package gcore_test

import (
	"strings"
	"sync"
	"testing"

	"gcore"
)

// Engine-level plan cache tests: repeated statements hit, hits are
// byte-identical to compiles, and structural changes (graph mutation,
// catalog registration) retire stale entries.

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
// bumps its generation, so the next evaluation recompiles and sees
// the new data — a stale plan is never served.
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
	if st := eng.PlanCacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses (generation bump)", st)
	}
}

// TestPlanCacheCatalogInvalidation: registering a graph bumps the
// catalog version, so cached statements recompile rather than reuse
// entries keyed to the old catalog.
func TestPlanCacheCatalogInvalidation(t *testing.T) {
	eng := newEngine(t)
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	if _, err := eng.Eval(q); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterGraph(gcore.NewGraph("other")); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(q); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 misses (catalog bump)", st)
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
// AST-level path — the generation bump retires the stale entry, so the
// cached engine sees the mutation.
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
