package gcore_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gcore"
	"gcore/internal/faultinject"
	"gcore/internal/parser"
)

// Governance tests: context cancellation, timeouts, resource budgets
// and panic containment, driven through the public EvalContext API and
// the fault-injection harness. The suite asserts three invariants for
// every governed failure: the error is a typed *QueryError with the
// right Kind, no goroutines leak, and the engine's registered graphs
// are untouched (generation counters unchanged, no partial views).

// The SNB queries exercising each path kernel: k-shortest with a
// stored path, plain reachability, and the ALL-paths projection sweep
// (the heaviest kernel — multi-source product-automaton search).
const (
	snbShortestQuery = `CONSTRUCT (n)-/@p:reach/->(m)
MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`
	snbReachQuery = `CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.anchor = TRUE`
	snbAllQuery   = `CONSTRUCT (n)-/p/->(m)
MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`
)

// waitForGoroutines waits for the goroutine count to settle back to
// the pre-test level, failing the test if workers are still alive
// after a generous grace period.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// graphGenerations snapshots the generation counter of every
// registered graph, for asserting that failed statements mutate
// nothing.
func graphGenerations(eng *gcore.Engine) map[string]uint64 {
	gens := map[string]uint64{}
	for _, name := range eng.GraphNames() {
		g, _ := eng.Graph(name)
		gens[name] = g.Generation()
	}
	return gens
}

func assertGenerationsUnchanged(t *testing.T, eng *gcore.Engine, want map[string]uint64) {
	t.Helper()
	got := graphGenerations(eng)
	if len(got) != len(want) {
		t.Fatalf("registered graphs changed on a failed statement: %d before, %d after", len(want), len(got))
	}
	for name, gen := range want {
		if got[name] != gen {
			t.Errorf("graph %s mutated by a failed statement: generation %d -> %d", name, gen, got[name])
		}
	}
}

func TestEvalContextCanceledBeforeStart(t *testing.T) {
	eng := newEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.EvalContext(ctx, `CONSTRUCT (n) MATCH (n:Person)`)
	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled QueryError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// TestEvalContextCancelMidFlight cancels the context from inside the
// ALL-paths sweep of a multi-source SNB search and checks that the
// cancellation surfaces as KindCanceled and that every worker
// goroutine exits.
func TestEvalContextCancelMidFlight(t *testing.T) {
	eng := snbEngine(t, gcore.WithParallelism(4))
	gens := graphGenerations(eng)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	faultinject.Arm()
	defer faultinject.Disarm()
	faultinject.Set(faultinject.SiteRPQAll, faultinject.Action{Fn: cancel})

	_, err := eng.EvalContext(ctx, snbAllQuery)
	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindCanceled {
		t.Fatalf("err = %v, want KindCanceled QueryError", err)
	}
	if faultinject.Hits(faultinject.SiteRPQAll) == 0 {
		t.Fatal("the ALL-paths sweep probe was never reached")
	}
	waitForGoroutines(t, before)
	assertGenerationsUnchanged(t, eng, gens)
}

func TestEvalTimeout(t *testing.T) {
	eng := snbEngine(t, gcore.WithLimits(gcore.Limits{Timeout: time.Nanosecond}))
	_, err := eng.Eval(snbAllQuery)
	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindTimeout {
		t.Fatalf("err = %v, want KindTimeout QueryError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "timeout") {
		t.Errorf("timeout error does not name the timeout: %v", err)
	}
}

// TestMaxPathFrontierBudget: the frontier budget surfaces as a typed
// KindBudget error (its text is pinned by the budget/frontier-all
// goldens).
func TestMaxPathFrontierBudget(t *testing.T) {
	eng := snbEngine(t, gcore.WithLimits(gcore.Limits{MaxPathFrontier: 1}))
	_, err := eng.Eval(snbAllQuery)
	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindBudget {
		t.Fatalf("err = %v, want KindBudget QueryError", err)
	}
}

func TestMaxResultElementsBudget(t *testing.T) {
	eng := snbEngine(t, gcore.WithLimits(gcore.Limits{MaxResultElements: 5}))
	_, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person)`)
	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindBudget {
		t.Fatalf("err = %v, want KindBudget QueryError", err)
	}
	if !strings.Contains(err.Error(), "result limit") {
		t.Errorf("budget error does not name the result limit: %v", err)
	}
}

// TestMaxBindingsKind: the pre-existing binding budget now surfaces as
// a typed KindBudget error.
func TestMaxBindingsKind(t *testing.T) {
	eng := newEngine(t, gcore.WithLimits(gcore.Limits{MaxBindings: 100}))
	_, err := eng.Eval(`CONSTRUCT (a) MATCH (a), (b), (c), (d), (e)`)
	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindBudget {
		t.Fatalf("err = %v, want KindBudget QueryError", err)
	}
	if !strings.Contains(err.Error(), "binding limit") {
		t.Errorf("budget error does not name the binding limit: %v", err)
	}
}

// TestPanicContainment injects a panic at the node-scan checkpoint
// and checks that it is contained as a KindInternal error carrying
// the statement text, with the engine fully usable afterwards.
func TestPanicContainment(t *testing.T) {
	eng := newEngine(t)
	gens := graphGenerations(eng)

	faultinject.Arm()
	faultinject.Set(faultinject.SiteCoreScan, faultinject.Action{Panic: true})
	_, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person)`)
	faultinject.Disarm()

	qe, ok := gcore.AsQueryError(err)
	if !ok || qe.Kind != gcore.KindInternal {
		t.Fatalf("err = %v, want KindInternal QueryError", err)
	}
	if !strings.Contains(err.Error(), "panic during evaluation") {
		t.Errorf("contained panic does not identify itself: %v", err)
	}
	if !strings.Contains(qe.Stmt, "MATCH") {
		t.Errorf("contained panic does not carry the statement text: %q", qe.Stmt)
	}
	assertGenerationsUnchanged(t, eng, gens)

	// The engine survives: the same query evaluates normally.
	res, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person)`)
	if err != nil || res.Graph == nil {
		t.Fatalf("engine unusable after contained panic: %v, %v", res, err)
	}
}

// TestFailedViewNotRegistered: a GRAPH VIEW statement whose body fails
// mid-evaluation must not leave a partially built view in the catalog.
func TestFailedViewNotRegistered(t *testing.T) {
	eng := newEngine(t)
	gens := graphGenerations(eng)

	faultinject.Arm()
	faultinject.Set(faultinject.SiteCoreConstruct, faultinject.Action{Err: errors.New("injected view failure")})
	_, err := eng.Eval(`GRAPH VIEW doomed AS (CONSTRUCT (n) MATCH (n:Person))`)
	faultinject.Disarm()

	if err == nil || !strings.Contains(err.Error(), "injected view failure") {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if _, ok := eng.Graph("doomed"); ok {
		t.Fatal("failed GRAPH VIEW statement registered a partial view")
	}
	if contains(eng.GraphNames(), "doomed") {
		t.Fatal("failed view appears in GraphNames")
	}
	assertGenerationsUnchanged(t, eng, gens)
}

// TestFaultInjectionAllSites drives every declared probe site with a
// panic, an injected error and a mid-checkpoint cancellation. The
// scenario table is checked against AllSites so a new checkpoint
// cannot be added without fault coverage.
func TestFaultInjectionAllSites(t *testing.T) {
	type scenario struct {
		workers int
		query   string
	}
	scenarios := map[string]scenario{
		faultinject.SiteEvalStart:     {1, `CONSTRUCT (n) MATCH (n:Person)`},
		faultinject.SiteCoreScan:      {1, `CONSTRUCT (n) MATCH (n:Person)`},
		faultinject.SiteCoreExtend:    {1, `CONSTRUCT (n) MATCH (n:Person)-[e:knows]->(m:Person)`},
		faultinject.SiteCoreFilter:    {1, `SELECT n.firstName AS a MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.firstName < m.firstName`},
		faultinject.SiteCorePath:      {1, snbShortestQuery},
		faultinject.SiteCoreConstruct: {1, `CONSTRUCT (n) MATCH (n:Person)`},
		// par.chunk needs a parallel-eligible fan-out: >1 worker and at
		// least 64 rows (the sequential fast path has no chunk probe).
		faultinject.SiteParChunk:    {4, `CONSTRUCT (n) MATCH (n)`},
		faultinject.SiteRPQShortest: {1, snbShortestQuery},
		faultinject.SiteRPQReach:    {1, snbReachQuery},
		faultinject.SiteRPQAll:      {1, snbAllQuery},
	}
	for _, site := range faultinject.AllSites() {
		if _, ok := scenarios[site]; !ok {
			t.Fatalf("no fault scenario for probe site %s — every checkpoint must have fault coverage", site)
		}
	}

	injected := errors.New("injected checkpoint failure")
	for _, site := range faultinject.AllSites() {
		sc := scenarios[site]
		for _, mode := range []string{"panic", "error", "cancel"} {
			t.Run(site+"/"+mode, func(t *testing.T) {
				eng := snbEngine(t, gcore.WithParallelism(sc.workers))
				gens := graphGenerations(eng)
				before := runtime.NumGoroutine()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				faultinject.Arm()
				defer faultinject.Disarm()
				switch mode {
				case "panic":
					faultinject.Set(site, faultinject.Action{Panic: true})
				case "error":
					faultinject.Set(site, faultinject.Action{Err: injected})
				case "cancel":
					faultinject.Set(site, faultinject.Action{Fn: cancel})
				}

				_, err := eng.EvalContext(ctx, sc.query)
				if err == nil {
					t.Fatalf("site %s %s: evaluation succeeded, want failure", site, mode)
				}
				if faultinject.Hits(site) == 0 {
					t.Fatalf("site %s: probe never reached by %q", site, sc.query)
				}
				switch mode {
				case "panic":
					qe, ok := gcore.AsQueryError(err)
					if !ok || qe.Kind != gcore.KindInternal {
						t.Fatalf("site %s: err = %v, want KindInternal", site, err)
					}
				case "error":
					if !strings.Contains(err.Error(), "injected checkpoint failure") {
						t.Fatalf("site %s: injected error lost: %v", site, err)
					}
				case "cancel":
					qe, ok := gcore.AsQueryError(err)
					if !ok || qe.Kind != gcore.KindCanceled {
						t.Fatalf("site %s: err = %v, want KindCanceled", site, err)
					}
				}
				waitForGoroutines(t, before)
				assertGenerationsUnchanged(t, eng, gens)
			})
		}
	}
}

// TestDifferentialCanceledContext: every differential-suite statement
// evaluated under an already-cancelled context fails with KindCanceled
// and mutates nothing — no new graphs, no generation bumps.
func TestDifferentialCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	snbEng := snbEngine(t)
	checkAll := func(t *testing.T, eng *gcore.Engine, queries []string) {
		t.Helper()
		gens := graphGenerations(eng)
		names := eng.GraphNames()
		for i, q := range queries {
			_, err := eng.EvalContext(ctx, q)
			qe, ok := gcore.AsQueryError(err)
			if !ok || qe.Kind != gcore.KindCanceled {
				t.Fatalf("query %d: err = %v, want KindCanceled", i, err)
			}
		}
		after := eng.GraphNames()
		if len(after) != len(names) {
			t.Fatalf("canceled statements changed the catalog: %v -> %v", names, after)
		}
		assertGenerationsUnchanged(t, eng, gens)
	}
	t.Run("snb", func(t *testing.T) { checkAll(t, snbEng, snbQueries()) })

	paper := make([]string, 0, len(parser.PaperQueries))
	for _, q := range parser.PaperQueries {
		paper = append(paper, q)
	}
	t.Run("paper", func(t *testing.T) { checkAll(t, tourEngine(t), paper) })
}

// TestDifferentialGenerousLimits: generous-but-finite limits are
// observationally free — every differential query renders
// byte-identically to the ungoverned engine.
func TestDifferentialGenerousLimits(t *testing.T) {
	generous := gcore.Limits{
		MaxBindings:       1 << 30,
		MaxPathFrontier:   1 << 30,
		MaxResultElements: 1 << 30,
		Timeout:           time.Hour,
	}
	for i, query := range snbQueries() {
		want := renderResult(snbEngine(t).Eval(query))
		got := renderResult(snbEngine(t, gcore.WithLimits(generous)).Eval(query))
		if got != want {
			t.Errorf("query %d: governed result diverged from ungoverned\ngoverned:\n%s\nungoverned:\n%s", i, got, want)
		}
	}
}

// TestEvalScriptErrorPosition: script errors locate the failing
// statement by 1-based index and source position.
func TestEvalScriptErrorPosition(t *testing.T) {
	eng := newEngine(t)
	_, err := eng.EvalScript(`CONSTRUCT (n) MATCH (n:Person);
CONSTRUCT (x) MATCH (x) ON missing_graph`)
	if err == nil {
		t.Fatal("script with an unknown graph succeeded")
	}
	if !strings.Contains(err.Error(), "statement 2 at ") {
		t.Errorf("script error does not locate the statement: %v", err)
	}
}
