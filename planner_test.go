package gcore_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"gcore"
	"gcore/internal/parser"
)

// The chain-start planner at the API boundary: a prepared $param
// statement and its inlined text start at the same node pattern, static
// EXPLAIN prints the start the evaluation takes, and concurrent
// executions — planning, counting degree sums and building value
// indexes on one shared snapshot — render the goldens. The CI race job
// runs these.

// startLine returns the first start line of a plan.
func startLine(t *testing.T, plan string) string {
	t.Helper()
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "start: node ") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("no start line in plan:\n%s", plan)
	return ""
}

func TestPlannerStartParamAndLiteral(t *testing.T) {
	const src = `SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person) WHERE c.name = $city`
	params := map[string]gcore.Value{"city": gcore.Str("City2")}
	inlined, err := parser.InlineParams(src, params)
	if err != nil {
		t.Fatal(err)
	}
	eng := goldenSNB(t)
	static, err := eng.Explain(src)
	if err != nil {
		t.Fatal(err)
	}
	literal, err := eng.Explain(inlined)
	if err != nil {
		t.Fatal(err)
	}
	start := startLine(t, static)
	if !strings.HasPrefix(start, "start: node 2 (c :City)") || startLine(t, literal) != start {
		t.Fatalf("parameter start %q, literal start %q; want both at node 2 (c :City)", start, startLine(t, literal))
	}
	// EXPLAIN ANALYZE annotates a step only when the evaluation ran a
	// step of that exact label: the City scan ran first, and seeked.
	p, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := p.ExplainAnalyzeContext(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if startLine(t, analyzed) != start || !strings.Contains(analyzed, "node scan (c :City)  ⊳ filter: (c.name = $city) [col]  [seek name]  [est 1]  [actual rows=1→1") {
		t.Errorf("the evaluation did not start where EXPLAIN said:\n%s", analyzed)
	}
	got := renderResult(p.Eval(params))
	if want := renderResult(evalParsed(goldenSNB(t), inlined)); got != want {
		t.Errorf("prepared result diverged from the inlined literal\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMatchStartConcurrent: the multi-hop golden chains, evaluated from
// several goroutines on one engine through the uncached AST-level path
// — each execution parses afresh, so every execution plans, reading
// degree sums and value indexes off the one snapshot as others fill
// them — render their goldens.
func TestMatchStartConcurrent(t *testing.T) {
	eng := goldenSNB(t)
	want := map[int]string{}
	for i, q := range goldenSNBQueries {
		if strings.Contains(q, "SELECT") && strings.Count(q, "-[") >= 2 {
			want[i] = readGolden(t, goldenSNBName(i))
		}
	}
	if len(want) < 3 {
		t.Fatalf("only %d multi-hop SELECT goldens", len(want))
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, g := range want {
					if got := renderResult(evalParsed(eng, goldenSNBQueries[i])); got != g {
						t.Errorf("snb query %d diverged under concurrent evaluation\ngot:\n%s\nwant:\n%s", i, got, g)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
