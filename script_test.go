package gcore_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gcore"
)

// TestScriptFrontDoorLinear: the work a script costs before its first
// statement runs grows linearly with the script. Every statement of
// the script targets a graph that does not exist, so statement 1 fails
// at run time and only the front door (lex, parse, classify) runs over
// the whole text. The allocated bytes per source byte at 4 000
// statements must stay within 1.5× of the figure at 1 000; a front door
// that re-reads or re-copies the text before each statement grows
// with the square of the script. Bytes, not wall time, keep the bound
// independent of the machine.
func TestScriptFrontDoorLinear(t *testing.T) {
	const stmt = `CONSTRUCT (x:X) MATCH (n) ON nope;`
	perByte := func(n int) float64 {
		eng := gcore.NewEngine()
		script := strings.Repeat(stmt+"\n", n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := eng.EvalScript(script)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "statement 1 at 1:1") {
			t.Fatalf("%d statements: err = %v, want statement 1 to fail", n, err)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(script))
	}
	perByte(100) // warm the engine's one-time allocations
	small, large := perByte(1000), perByte(4000)
	t.Logf("%.0f B per source byte at 1 000 statements, %.0f at 4 000 (%.2f×)", small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("front door allocated %.0f B per source byte at 4 000 statements, %.0f at 1 000 (%.2f×, want ≤ 1.5×)",
			large, small, large/small)
	}
}

// TestScriptSyntaxErrorRunsNothing: a syntax error anywhere in a script
// runs nothing, not even the statements before it, and the error
// names the line and column where it was found.
func TestScriptSyntaxErrorRunsNothing(t *testing.T) {
	eng := newEngine(t)
	before := eng.Metrics()
	_, err := eng.EvalScript(`GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:Person));
SELECT n.firstName AS name MATCH (n) ON v;
SELECT n.firstName AS name MATCH (n) ON v WHERE ;`)
	if err == nil {
		t.Fatal("script with a syntax error succeeded")
	}
	if !strings.Contains(err.Error(), "parse error at 3:49:") {
		t.Errorf("syntax error not located at line 3, column 49: %v", err)
	}
	if _, ok := eng.Graph("v"); ok {
		t.Error("the view of statement 1 was registered")
	}
	after := eng.Metrics()
	if after.ReadStatements != before.ReadStatements || after.WriteStatements != before.WriteStatements {
		t.Errorf("statements counted: reads %d→%d, writes %d→%d",
			before.ReadStatements, after.ReadStatements, before.WriteStatements, after.WriteStatements)
	}
}

// TestScriptRunTimeErrorPosition: a statement that fails at run time is
// reported at its line and column in the script, both when the script
// compiles it and when the plan cache already holds it, compiled by
// Engine.Eval from the same statement laid out differently.
func TestScriptRunTimeErrorPosition(t *testing.T) {
	const script = "\n\n# ten bindings are not enough\n  CONSTRUCT (n)\n  MATCH (n)\n"
	const want = "statement 1 at 4:3: query error (budget): evaluation exceeded the binding limit " +
		"(limit 10 rows, reached 11); narrow the patterns or raise Limits.MaxBindings"
	limits := gcore.WithLimits(gcore.Limits{MaxBindings: 10})

	_, cold := newEngine(t, limits).EvalScript(script)

	eng := newEngine(t, limits)
	if _, err := eng.Eval("CONSTRUCT (n) MATCH (n)"); err == nil {
		t.Fatal("Eval within the budget")
	}
	before := eng.PlanCacheStats()
	_, warm := eng.EvalScript(script)
	after := eng.PlanCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("warm script probed the cache as hits %d→%d, misses %d→%d; want one hit",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	for _, c := range []struct {
		name string
		err  error
	}{{"cold", cold}, {"warm", warm}} {
		if c.err == nil || c.err.Error() != want {
			t.Errorf("%s: err = %v, want %q", c.name, c.err, want)
		}
		var qe *gcore.QueryError
		if !errors.As(c.err, &qe) || qe.Kind != gcore.KindBudget {
			t.Errorf("%s: %v does not unwrap to a budget error", c.name, c.err)
		}
	}
}

// TestScriptParsesAtMostOnce: a one-statement script costs what the
// same statement costs through Engine.Eval, plus its result slice.
// A cached statement is served from the plan cache without being lexed
// or parsed; a new one is parsed once, and its compile analyses that
// parse. The miss case alternates two texts on a one-entry cache, so
// every run compiles. Either way each read statement counts one
// plan-cache probe.
func TestScriptParsesAtMostOnce(t *testing.T) {
	const q = `SELECT n.firstName AS name MATCH (n:Person) WHERE n.employer = 'Acme' ORDER BY name`
	for _, c := range []struct {
		name string
		size int
		alt  string
	}{{"cache", 0, q}, {"miss", 1, strings.Replace(q, "Acme", "HAL", 1)}} {
		t.Run(c.name, func(t *testing.T) {
			eng := newEngine(t, gcore.WithPlanCacheSize(c.size))
			texts := [2]string{q, c.alt}
			allocs := func(eval func(string) error) float64 {
				i := 0
				return testing.AllocsPerRun(50, func() {
					if err := eval(texts[i%2]); err != nil {
						t.Fatal(err)
					}
					i++
				})
			}
			single := allocs(func(src string) error { _, err := eng.Eval(src); return err })
			script := allocs(func(src string) error { _, err := eng.EvalScript(src); return err })
			if script > single+2 {
				t.Errorf("EvalScript allocates %.0f per statement, Eval %.0f; want at most 2 more", script, single)
			}

			probes := func() int64 { st := eng.PlanCacheStats(); return st.Hits + st.Misses }
			for _, src := range []string{q, c.alt, q + ";\n" + c.alt + ";\n" + q} {
				want := int64(strings.Count(src, ";") + 1)
				before := probes()
				if _, err := eng.EvalScript(src); err != nil {
					t.Fatal(err)
				}
				if got := probes() - before; got != want {
					t.Errorf("%d-statement script counted %d plan-cache probes", want, got)
				}
			}
		})
	}
}

// TestScriptHitMissConcurrent: scripts served from the plan cache and
// scripts compiled on a miss interleave on one engine. Eight
// goroutines run shared and goroutine-specific texts on a one-entry
// cache, so hits, misses, evictions and shared compiles all happen;
// every result equals the one the same script gives run alone.
func TestScriptHitMissConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 20
	texts := []string{
		`SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`,
		"# shared, laid out differently\nSELECT n.firstName AS name\n  MATCH (n:Person) ORDER BY name",
		`SELECT c.name AS name MATCH (c:Company) ON company_graph ORDER BY name`,
	}
	for g := 0; g < goroutines; g++ {
		texts = append(texts, fmt.Sprintf(
			`SELECT n.firstName AS name MATCH (n:Person) WHERE n.firstName <> 'g%d' ORDER BY name;
SELECT COUNT(*) AS people MATCH (n:Person)`, g))
	}
	render := func(rs []*gcore.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		for _, r := range rs {
			sb.WriteString(renderResult(r, nil))
		}
		return sb.String()
	}
	want := make([]string, len(texts))
	for i, src := range texts {
		want[i] = render(newEngine(t).EvalScript(src))
	}

	eng := newEngine(t, gcore.WithPlanCacheSize(1))
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, i := range []int{(g + r) % 3, 3 + g} {
					if got := render(eng.EvalScript(texts[i])); got != want[i] {
						errs <- fmt.Sprintf("goroutine %d, script %d:\n%s\nwant:\n%s", g, i, got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
