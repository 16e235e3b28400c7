package gcore_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gcore"
)

// Engine-level plan cache tests: repeated statements hit, hits are
// byte-identical to compiles, and structural changes (graph mutation,
// catalog registration, view redefinition) keep the cached plan yet
// are visible to its next execution.

func TestPlanCacheHitMiss(t *testing.T) {
	eng := newEngine(t)
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	first, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Eval("  " + q + "  # same statement, new spelling\n")
	if err != nil {
		t.Fatal(err)
	}
	st := eng.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
	if a, b := first.Table.String(), second.Table.String(); a != b {
		t.Fatalf("cached result diverged:\n%s\n%s", a, b)
	}
	m := eng.Metrics()
	if m.PlanCacheHits != 1 || m.PlanCacheMisses != 1 || m.PlanCacheEntries != 1 {
		t.Fatalf("metrics = hits %d misses %d entries %d", m.PlanCacheHits, m.PlanCacheMisses, m.PlanCacheEntries)
	}
}

// TestPlanCacheGenerationInvalidation: mutating the default graph
// bumps its generation, which retires no cached plan — the next
// evaluation hits — yet sees the new data: the entry's chain plan
// revalidates against the generation it was planned for.
func TestPlanCacheGenerationInvalidation(t *testing.T) {
	eng := newEngine(t)
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	before, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore := before.Table.Len()

	g, _ := eng.Graph("social_graph")
	err = g.AddNode(&gcore.Node{
		ID:     eng.NextNodeID(),
		Labels: gcore.NewLabels("Person"),
		Props:  gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str("Zed")}),
	})
	if err != nil {
		t.Fatal(err)
	}

	after, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Table.Len() != rowsBefore+1 {
		t.Fatalf("rows after mutation = %d, want %d", after.Table.Len(), rowsBefore+1)
	}
	if !strings.Contains(after.Table.String(), "Zed") {
		t.Fatalf("mutation invisible to cached statement:\n%s", after.Table.String())
	}
	if st := eng.PlanCacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit (a mutation keeps the plan)", st)
	}
}

// TestPlanCacheCatalogInvalidation: registering a graph retires no
// cached plan. A statement cached while its ON graph did not exist yet
// hits after the registration and resolves the new graph, added node
// included, at execution.
func TestPlanCacheCatalogInvalidation(t *testing.T) {
	eng := newEngine(t)
	const q = `SELECT n.firstName AS name MATCH (n:Person) ON other ORDER BY name`
	if _, err := eng.Eval(q); err == nil || !strings.Contains(err.Error(), "other") {
		t.Fatalf("query on an unregistered graph: err = %v", err)
	}
	other := gcore.NewGraph("other")
	if err := other.AddNode(&gcore.Node{
		ID:     eng.NextNodeID(),
		Labels: gcore.NewLabels("Person"),
		Props:  gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str("Zed")}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterGraph(other); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Len() != 1 || !strings.Contains(res.Table.String(), "Zed") {
		t.Fatalf("registered graph invisible to cached statement:\n%s", res.Table.String())
	}
	if st := eng.PlanCacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit (a registration keeps the plan)", st)
	}
}

// viewBodies are two definitions of the view v over the sample social
// graph with different element counts.
var viewBodies = [2]string{
	`GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme')`,
	`GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person) ON social_graph)`,
}

// cachedReads are a point read on the default graph and a count over
// the view v, the reads beside a GRAPH VIEW writer.
var cachedReads = [2]string{
	`SELECT n.lastName AS last MATCH (n:Person) WHERE n.firstName = 'Celine'`,
	`SELECT COUNT(*) AS c MATCH (n) ON v`,
}

// TestCachedPlanSurvivesViewWrite: redefining a view retires no cached
// plan. After warm-up, prepared reads beside three GRAPH VIEW writes
// compile nothing, on an Engine and on a DurableEngine, and each
// returns what the uncached path returns on freshly parsed text.
func TestCachedPlanSurvivesViewWrite(t *testing.T) {
	durable, err := gcore.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for _, g := range []*gcore.Graph{gcore.SampleSocialGraph(), gcore.SampleCompanyGraph()} {
		if err := durable.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	for name, eng := range map[string]*gcore.Engine{"engine": newEngine(t), "durable": durable.Engine} {
		t.Run(name, func(t *testing.T) {
			var prepared [2]*gcore.Prepared
			for i, q := range cachedReads {
				var err error
				if prepared[i], err = eng.Prepare(q); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: both view texts and both reads compile once.
			for _, body := range viewBodies {
				if _, err := eng.Eval(body); err != nil {
					t.Fatal(err)
				}
				for _, p := range prepared {
					if _, err := p.Eval(nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			warm := eng.PlanCacheStats().Misses
			var counts []string
			for w := 0; w < 3; w++ {
				if _, err := eng.Eval(viewBodies[w%2]); err != nil {
					t.Fatal(err)
				}
				for i, p := range prepared {
					got := renderResult(p.Eval(nil))
					if want := renderResult(evalParsed(eng, cachedReads[i])); got != want {
						t.Fatalf("write %d, %s: cached result diverged\ncached:\n%s\nuncached:\n%s", w, cachedReads[i], got, want)
					}
					if i == 1 {
						counts = append(counts, got)
					}
				}
			}
			if counts[0] == counts[1] {
				t.Fatal("redefining the view changed no count; the sequence proves nothing")
			}
			if st := eng.PlanCacheStats(); st.Misses != warm {
				t.Fatalf("misses grew from %d to %d across view writes: %+v", warm, st.Misses, st)
			}
		})
	}
}

// TestCachedPlanSessionLimits: limits are read at execution, not from
// the cached entry. A session under MaxBindings 1 that hits a plan
// another session cached still fails its budget, and the other session
// still succeeds on the same entry.
func TestCachedPlanSessionLimits(t *testing.T) {
	eng := newEngine(t)
	const q = `CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person)`
	free, tight := eng.NewSession(), eng.NewSession()
	tight.SetLimits(gcore.Limits{MaxBindings: 1})
	ctx := context.Background()
	if _, err := free.EvalContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	_, err := tight.EvalContext(ctx, q)
	if qe, ok := gcore.AsQueryError(err); !ok || qe.Kind != gcore.KindBudget {
		t.Fatalf("tight session: err = %v, want a KindBudget QueryError", err)
	}
	if _, err := free.EvalContext(ctx, q); err != nil {
		t.Fatalf("free session after the tight one: %v", err)
	}
	if st := eng.PlanCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss + 2 hits (one entry for both sessions)", st)
	}
}

// TestCachedPlanConcurrentViewWrites: prepared reads run from four
// goroutines while one writer redefines v 200 times with two
// alternating bodies. Every read returns one of the answers the
// uncached path gives under either definition. Run it under -race.
func TestCachedPlanConcurrentViewWrites(t *testing.T) {
	eng := newEngine(t)
	var prepared [2]*gcore.Prepared
	valid := [2]map[string]bool{{}, {}}
	for _, body := range viewBodies {
		if _, err := eng.Eval(body); err != nil {
			t.Fatal(err)
		}
		for i, q := range cachedReads {
			valid[i][renderResult(evalParsed(eng, q))] = true
		}
	}
	if len(valid[1]) != 2 {
		t.Fatalf("the two view bodies give %d distinct counts, want 2", len(valid[1]))
	}
	for i, q := range cachedReads {
		var err error
		if prepared[i], err = eng.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	const readers, writes = 4, 200
	done := make(chan struct{})
	errs := make(chan error, readers+1) // at most one send per goroutine
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				i := n % 2
				if got := renderResult(prepared[i].Eval(nil)); !valid[i][got] {
					errs <- fmt.Errorf("%s returned an answer of neither definition:\n%s", cachedReads[i], got)
					return
				}
			}
		}()
	}
	for w := 0; w < writes; w++ {
		if _, err := eng.Eval(viewBodies[w%2]); err != nil {
			errs <- err
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheStampede: concurrent evaluations of one statement on a
// fresh engine compile exactly once and all return the same bytes.
// Run under -race this also proves the cache probe itself is safe.
func TestPlanCacheStampede(t *testing.T) {
	eng := newEngine(t)
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	const goroutines = 12
	results := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := eng.Eval(q)
			results[i] = renderResult(res, err)
		}(i)
	}
	wg.Wait()
	st := eng.PlanCacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 compilation", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d diverged:\n%s\n%s", i, results[i], results[0])
		}
	}
}

func TestPreparedStatement(t *testing.T) {
	eng := newEngine(t)
	p, err := eng.Prepare(`SELECT n.firstName AS name MATCH (n:Person) WHERE n.employer = $emp ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if names := p.Params(); len(names) != 1 || names[0] != "emp" {
		t.Fatalf("params = %v", names)
	}

	acme, err := p.Eval(map[string]gcore.Value{"emp": gcore.Str("Acme")})
	if err != nil {
		t.Fatal(err)
	}
	hal, err := p.Eval(map[string]gcore.Value{"emp": gcore.Str("HAL")})
	if err != nil {
		t.Fatal(err)
	}
	if acme.Table.Len() == 0 || hal.Table.Len() == 0 {
		t.Fatalf("acme = %d rows, hal = %d rows", acme.Table.Len(), hal.Table.Len())
	}
	if acme.Table.String() == hal.Table.String() {
		t.Fatal("different bindings returned identical results")
	}

	// One prepared statement is one cache entry: the Prepare compiled
	// it, both executions hit.
	if st := eng.PlanCacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// An unbound parameter fails the execution, naming the parameter.
	if _, err := p.Eval(nil); err == nil || !strings.Contains(err.Error(), "$emp") {
		t.Fatalf("unbound eval error = %v", err)
	}
}

// TestPreparedMatchesInlined: a parameterised execution renders
// byte-identically to the same statement with the literal spliced in
// textually — through the plan cache and through the uncached
// AST-level path.
func TestPreparedMatchesInlined(t *testing.T) {
	const tmpl = `SELECT n.firstName AS name MATCH (n:Person) WHERE n.employer = $emp ORDER BY name`
	const inlined = `SELECT n.firstName AS name MATCH (n:Person) WHERE n.employer = ('Acme') ORDER BY name`
	p, err := newEngine(t).Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	got := renderResult(p.Eval(map[string]gcore.Value{"emp": gcore.Str("Acme")}))
	for name, eval := range map[string]evalFunc{"cached": (*gcore.Engine).Eval, "parsed": evalParsed} {
		if want := renderResult(eval(newEngine(t), inlined)); got != want {
			t.Fatalf("%s: parameterised result diverged\nparam:\n%s\ninline:\n%s", name, got, want)
		}
	}
}

// TestPlanCacheMutationSequence: a query / mutate / query sequence
// renders identically through the plan cache and through the uncached
// AST-level path — the cached entry's chain plan revalidates against
// the bumped generation, so the cached engine sees the mutation.
func TestPlanCacheMutationSequence(t *testing.T) {
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	runSeq := func(eval evalFunc) []string {
		eng := newEngine(t)
		var out []string
		res, err := eval(eng, q)
		out = append(out, renderResult(res, err))
		g, _ := eng.Graph("social_graph")
		if err := g.AddNode(&gcore.Node{
			ID:     eng.NextNodeID(),
			Labels: gcore.NewLabels("Person"),
			Props:  gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str("Zed")}),
		}); err != nil {
			t.Fatal(err)
		}
		res, err = eval(eng, q)
		out = append(out, renderResult(res, err))
		return out
	}
	want := runSeq(evalParsed)
	got := runSeq((*gcore.Engine).Eval)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d diverged\ncached:\n%s\nuncached:\n%s", i, got[i], want[i])
		}
	}
	if want[0] == want[1] {
		t.Fatal("mutation had no observable effect; the sequence proves nothing")
	}
}

func TestPrepareRejectsBadStatements(t *testing.T) {
	eng := newEngine(t)
	if _, err := eng.Prepare(`SELECT MATCH WHERE`); err == nil {
		t.Fatal("syntax error accepted")
	}
	if _, err := eng.Prepare(`SELECT n.x MATCH (n {y := 1})`); err == nil {
		t.Fatal("semantic error (:= outside CONSTRUCT) accepted")
	}
}

// TestExplainAnalyzeCacheFooter: the first run reports a miss with
// the compile cost, the second a hit with the cost saved.
func TestExplainAnalyzeCacheFooter(t *testing.T) {
	eng := newEngine(t)
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	first, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "plan cache: miss (compile ") {
		t.Fatalf("first run footer:\n%s", first)
	}
	second, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second, "plan cache: hit (compile ") || !strings.Contains(second, " saved)") {
		t.Fatalf("second run footer:\n%s", second)
	}
}

// TestPlanCacheEvictionBound: the cache never exceeds its capacity.
func TestPlanCacheEvictionBound(t *testing.T) {
	eng := gcore.NewEngine(gcore.WithPlanCacheSize(2))
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT n.firstName AS a MATCH (n:Person) ORDER BY a`,
		`SELECT n.lastName AS a MATCH (n:Person) ORDER BY a`,
		`SELECT n.employer AS a MATCH (n:Person) ORDER BY a`,
	}
	for _, q := range queries {
		if _, err := eng.Eval(q); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if st.Entries != 2 || st.Capacity != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ens := eng.PlanCacheEntries(); len(ens) != 2 {
		t.Fatalf("entries = %v", ens)
	}
}

// TestScriptsUseCache: a script evaluated twice compiles each
// statement once.
func TestScriptsUseCache(t *testing.T) {
	eng := newEngine(t)
	const script = `
		SELECT n.firstName AS name MATCH (n:Person) ORDER BY name;
		SELECT c.name AS name MATCH (c:Company) ORDER BY name;
	`
	for i := 0; i < 2; i++ {
		if _, err := eng.EvalScript(script); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.PlanCacheStats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses + 2 hits", st)
	}
}
