package gcore_test

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gcore"
	"gcore/internal/parser"
)

// Observability tests. Attaching a trace handler must never change
// what a query returns. EXPLAIN ANALYZE is checked on every paper
// example.

// evalObserved runs one query on a fresh engine built by setup with a
// recording trace handler attached and returns the rendered result.
func evalObserved(t *testing.T, setup func(testing.TB, ...gcore.Option) *gcore.Engine, query string) string {
	t.Helper()
	rec := &traceRecorder{}
	out := renderResult(setup(t, gcore.WithTraceHandler(rec)).Eval(query))
	if rec.starts == 0 || rec.starts != len(rec.ends) {
		t.Fatalf("unbalanced span events: %d starts, %d ends", rec.starts, len(rec.ends))
	}
	return out
}

// TestObservabilityDifferentialPaper: on every paper example,
// observed runs render byte-identically to plain runs.
func TestObservabilityDifferentialPaper(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			plain := renderResult(goldenTour(t).Eval(query))
			if observed := evalObserved(t, goldenTour, query); observed != plain {
				t.Fatalf("observed run diverged from plain run\nobserved:\n%s\nplain:\n%s", observed, plain)
			}
		})
	}
}

// TestObservabilityDifferentialSNB: the same invariant on the SNB
// toy graph's kernel-heavy query set.
func TestObservabilityDifferentialSNB(t *testing.T) {
	for i, query := range snbQueries() {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			plain := renderResult(goldenSNB(t).Eval(query))
			if observed := evalObserved(t, goldenSNB, query); observed != plain {
				t.Fatalf("observed run diverged from plain run\nobserved:\n%s\nplain:\n%s", observed, plain)
			}
		})
	}
}

// TestConstructionOptions: limits given at construction are the
// engine's limits, and a default graph named before it exists is
// promoted when it is registered — even after another graph.
func TestConstructionOptions(t *testing.T) {
	limits := gcore.Limits{MaxBindings: 10_000, Timeout: time.Minute}
	eng := gcore.NewEngine(gcore.WithLimits(limits), gcore.WithDefaultGraph("company_graph"))
	for _, g := range []*gcore.Graph{gcore.SampleSocialGraph(), gcore.SampleCompanyGraph()} {
		if err := eng.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Limits(); got != limits {
		t.Fatalf("limits = %+v, want %+v", got, limits)
	}
	res, err := eng.Eval(`SELECT c.name AS name MATCH (c:Company) ORDER BY name`)
	if err != nil || res.Table.Len() != 4 {
		t.Fatalf("default graph is not company_graph: %v, %v", res, err)
	}
}

// TestExplainAnalyzePaperQueries: EXPLAIN ANALYZE renders every paper
// example's plan with actual row counts and an execution footer.
func TestExplainAnalyzePaperQueries(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			eng := goldenTour(t)
			out, err := eng.ExplainAnalyze(query)
			if err != nil {
				// A few tour queries reference views defined by other
				// statements; EXPLAIN ANALYZE must fail exactly like a
				// plain run, not invent a plan.
				if plain := renderResult(goldenTour(t).Eval(query)); plain == "ERR: "+err.Error() {
					return
				}
				t.Fatal(err)
			}
			if !strings.Contains(out, "[actual rows=") {
				t.Fatalf("no actual-rows annotation in:\n%s", out)
			}
			if !strings.Contains(out, "executed: total time ") {
				t.Fatalf("no execution footer in:\n%s", out)
			}
		})
	}
}

// TestExplainStatementForms: EXPLAIN and EXPLAIN ANALYZE work as
// statement prefixes through the ordinary Eval path, returning the
// plan in Result.Plan.
func TestExplainStatementForms(t *testing.T) {
	const query = `CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'`
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Eval("EXPLAIN " + query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == "" || res.Graph != nil || res.Table != nil {
		t.Fatalf("EXPLAIN result should carry only a plan, got %+v", res)
	}
	direct, err := eng.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != direct {
		t.Fatalf("EXPLAIN statement and Engine.Explain disagree:\n%s\nvs:\n%s", res.Plan, direct)
	}

	res, err = eng.Eval("EXPLAIN ANALYZE " + query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "[actual rows=") {
		t.Fatalf("EXPLAIN ANALYZE plan lacks annotations:\n%s", res.Plan)
	}
}

// TestExplainContextCancellation: both EXPLAIN entry points run under
// the caller's context and fail with the typed cancellation error.
func TestExplainContextCancellation(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const query = `CONSTRUCT (n) MATCH (n:Person) ON social_graph`
	if _, err := eng.ExplainContext(ctx, query); err == nil {
		t.Fatal("ExplainContext ignored a cancelled context")
	} else if qe, ok := gcore.AsQueryError(err); !ok || qe.Kind != gcore.KindCanceled {
		t.Fatalf("expected KindCanceled from ExplainContext, got %v", err)
	}
	if _, err := eng.ExplainAnalyzeContext(ctx, query); err == nil {
		t.Fatal("ExplainAnalyzeContext ignored a cancelled context")
	} else if qe, ok := gcore.AsQueryError(err); !ok || qe.Kind != gcore.KindCanceled {
		t.Fatalf("expected KindCanceled from ExplainAnalyzeContext, got %v", err)
	}
}

// traceRecorder is a concurrency-safe TraceHandler for tests.
type traceRecorder struct {
	mu     sync.Mutex
	starts int
	ends   []gcore.Span
}

func (r *traceRecorder) SpanStart(op gcore.Op, depth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts++
}

func (r *traceRecorder) SpanEnd(sp gcore.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, sp)
}

// TestTraceHandlerEvents: an installed handler sees balanced span
// events, including a statement span carrying the statement text.
func TestTraceHandlerEvents(t *testing.T) {
	rec := &traceRecorder{}
	eng := gcore.NewEngine(gcore.WithTraceHandler(rec))
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person) ON social_graph`); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.starts == 0 || rec.starts != len(rec.ends) {
		t.Fatalf("unbalanced span events: %d starts, %d ends", rec.starts, len(rec.ends))
	}
	var stmt *gcore.Span
	for i := range rec.ends {
		if rec.ends[i].Op == gcore.OpStatement {
			stmt = &rec.ends[i]
		}
	}
	if stmt == nil {
		t.Fatal("no statement span observed")
	}
	if !strings.Contains(stmt.Label, "MATCH") {
		t.Fatalf("statement span label %q does not carry the statement text", stmt.Label)
	}
	if stmt.Elapsed <= 0 {
		t.Fatal("statement span has no elapsed time")
	}
}

// TestMetricsAccumulate: the engine-lifetime registry counts
// statements, errors and operator work across queries.
func TestMetricsAccumulate(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person) ON social_graph`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n) ON no_such_graph`); err == nil {
		t.Fatal("expected an error for a missing graph")
	}
	m := eng.Metrics()
	if m.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", m.Queries)
	}
	if m.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", m.Errors)
	}
	scan, ok := m.Operators["scan"]
	if !ok || scan.Count == 0 || scan.RowsOut == 0 {
		t.Fatalf("scan operator metrics missing or empty: %+v", m.Operators)
	}
	if m.Operators["statement"].ElapsedNS <= 0 {
		t.Fatal("statement elapsed time not recorded")
	}
}

// TestExplainAnalyzeConcurrent: EXPLAIN ANALYZE runs of one k-shortest
// statement on one engine, eight goroutines at a time, each render the
// plan a single-goroutine run renders, times masked — no two
// executions share a collector.
func TestExplainAnalyzeConcurrent(t *testing.T) {
	const query = `CONSTRUCT (n)-/@p:sp {distance := c}/->(m)
MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.anchor = TRUE AND m.lastName = 'Doe'`
	times := regexp.MustCompile(`((?:time|compile)[= ])[^,)\] \n]+`)
	eng := goldenSNB(t)
	analyze := func() (string, error) {
		out, err := eng.ExplainAnalyze(query)
		return times.ReplaceAllString(out, "${1}T"), err
	}
	// The first run compiles the plan and builds the snapshot; every
	// later one hits both, so the second run is the reference.
	if _, err := analyze(); err != nil {
		t.Fatal(err)
	}
	want, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "k-shortest ×1") {
		t.Fatalf("no k-shortest kernel in the plan:\n%s", want)
	}
	const workers, runs = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*runs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := analyze()
				if err == nil && got != want {
					err = fmt.Errorf("concurrent plan diverged\ngot:\n%s\nwant:\n%s", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMetricsPropColumns: predicate rows a `p.key = const` query
// answers from the property columns reach the engine's lifetime
// metrics, as they reach the EXPLAIN ANALYZE footer.
func TestMetricsPropColumns(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'`); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.PropColHits <= 0 {
		t.Fatalf("PropColHits = %d after a columnar equality, want > 0", m.PropColHits)
	}
}
