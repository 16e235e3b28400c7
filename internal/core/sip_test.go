package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/catalog"
	"gcore/internal/gov"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// sipGraphs builds two graphs over the same twelve persons: "sip_a"
// with knows and isLocatedIn edges, three cities and an employer per
// person, and "sip_b", whose knows edges run differently.
func sipGraphs(t *testing.T) (a, b *ppg.Graph) {
	t.Helper()
	a, b = ppg.New("sip_a"), ppg.New("sip_b")
	const persons = 12
	for id := 1; id <= persons; id++ {
		props := ppg.NewProperties(map[string]value.Value{
			"nr":       value.Int(int64(id)),
			"employer": value.Str(fmt.Sprintf("C%d", id%3)),
		})
		for _, g := range []*ppg.Graph{a, b} {
			if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(id), Labels: ppg.NewLabels("Person"), Props: props}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := 0; c < 3; c++ {
		if err := a.AddNode(&ppg.Node{ID: ppg.NodeID(50 + c), Labels: ppg.NewLabels("City"),
			Props: ppg.NewProperties(map[string]value.Value{"name": value.Str(fmt.Sprintf("City%d", c))})}); err != nil {
			t.Fatal(err)
		}
	}
	eid := ppg.EdgeID(100)
	edge := func(g *ppg.Graph, src, dst int, label string) {
		eid++
		if err := g.AddEdge(&ppg.Edge{ID: eid, Src: ppg.NodeID(src), Dst: ppg.NodeID(dst), Labels: ppg.NewLabels(label)}); err != nil {
			t.Fatal(err)
		}
	}
	for p := 1; p <= persons; p++ {
		edge(a, p, 1+(p*5)%persons, "knows")
		edge(a, p, 1+(p*7+3)%persons, "knows")
		edge(a, p, 50+(p*p)%3, "isLocatedIn")
		edge(b, p, 1+(p+1)%persons, "knows")
	}
	return a, b
}

// sipEvaluator is a fresh evaluator over fresh copies of sipGraphs,
// "sip_a" the default: every one draws the same path identifiers.
func sipEvaluator(t *testing.T) *Evaluator {
	t.Helper()
	a, b := sipGraphs(t)
	cat := catalog.New()
	for _, g := range []*ppg.Graph{a, b} {
		if err := cat.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.SetDefault(a.Name()); err != nil {
		t.Fatal(err)
	}
	return New(cat)
}

// conjunctTable evaluates the patterns of q's MATCH on a fresh
// evaluator, under the WHERE pushdown: as one block (evalPatterns,
// restrictions included) or, with oneByOne, as each pattern's chain
// unrestricted, folded with bindings.Join in textual order. It renders
// the table, the conjuncts the chains consumed and the error.
func conjunctTable(t *testing.T, q string, oneByOne bool) string {
	t.Helper()
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	if err := analyzeStatement(stmt); err != nil {
		t.Fatal(err)
	}
	c := sipEvaluator(t).newCtx(gov.New(context.Background(), gov.Limits{}))
	c.cached = newCachedStatement(stmt)
	mc := stmt.Query.(*ast.BasicQuery).Match
	conjs := c.cached.conjuncts(mc.Where)
	s := newScope(nil)
	tbl, err := func() (*bindings.Table, error) {
		if !oneByOne {
			tbl, _, err := c.evalPatterns(s, mc.Patterns, conjs)
			return tbl, err
		}
		var tbl *bindings.Table
		for _, lp := range mc.Patterns {
			g, err := c.resolveLocation(s, lp)
			if err != nil {
				return nil, err
			}
			t, _, err := c.evalChainPlanned(s, lp.Pattern, g, conjs, nil)
			if err != nil {
				return nil, err
			}
			if tbl == nil {
				tbl = t
			} else {
				tbl = bindings.Join(tbl, t)
			}
		}
		return tbl, nil
	}()
	if err != nil {
		return "error: " + err.Error()
	}
	var applied []string
	for _, cj := range conjs {
		if cj.applied {
			applied = append(applied, ast.ExprString(cj.src))
		}
	}
	return fmt.Sprintf("consumed %v\n%s", applied, tbl)
}

// TestConjunctRestrictionMatchesJoin: a MATCH whose later patterns are
// restricted to the nodes earlier ones bound gives the table of its
// patterns evaluated one by one and joined in textual order — row
// order, the reported error and minted path identifiers included —
// and EXPLAIN names exactly the restrictions that ran.
func TestConjunctRestrictionMatchesJoin(t *testing.T) {
	const colocated = `(n:Person)-[:knows]->(m:Person), (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person)`
	for _, tc := range []struct {
		name, match string
		restricted  []string // EXPLAIN's restricted: lines, in order
		wantErr     string
	}{
		{"colocated", colocated + ` WHERE n.employer = 'C1' AND c.name = 'City1'`,
			[]string{"m, n ⋉ pattern 1"}, ""},
		{"colocated reversed", `(n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person), (n:Person)-[:knows]->(m:Person) WHERE n.employer = 'C1' AND c.name = 'City1'`,
			[]string{"m, n ⋉ pattern 1"}, ""},
		{"colocated without filters", colocated, []string{"m, n ⋉ pattern 1"}, ""},
		{"three patterns", `(a:Person)-[:knows]->(b:Person), (b)-[:knows]->(d:Person), (d)-[:isLocatedIn]->(x:City)<-[:isLocatedIn]-(a), (a)-[:isLocatedIn]->(y:City) WHERE a.employer = 'C0'`,
			[]string{"b ⋉ pattern 1", "a ⋉ pattern 1; d ⋉ pattern 2", "a ⋉ patterns 1, 3"}, ""},
		{"across two ON graphs", `(n:Person)-[:knows]->(m:Person) ON sip_b, (m)-[:knows]->(o:Person) ON sip_a, (o)-[:knows]->(q:Person) ON sip_b, (n)<-[:knows]-(r) ON sip_a WHERE n.nr < 6`,
			[]string{"m ⋉ pattern 1", "o ⋉ pattern 2", "n ⋉ pattern 1"}, ""},
		{"shared start", `(c:City)<-[:isLocatedIn]-(p:Person), (p:Person)-[:knows]->(q:Person) WHERE c.name = 'City1'`,
			[]string{"p ⋉ pattern 1"}, ""},
		{"empty first pattern", `(n:Person)-[:knows]->(m:Person), (n)-[:isLocatedIn]->(c:City) WHERE n.employer = 'nobody'`,
			[]string{"n ⋉ pattern 1"}, ""},
		{"no shared variable", `(a:Person)-[:knows]->(b:Person), (c:City) WHERE a.employer = 'C2'`, nil, ""},
		{"pushed raise-free conjunct", colocated + ` WHERE c.name <> 'City2' AND NOT (m.nr > 11 OR m.nr < 2)`,
			[]string{"m, n ⋉ pattern 1"}, ""},
		// Each raising check of a later chain — an entry past, or on,
		// the restricted node, a conjunct it applies — refuses the
		// restriction: the parent reaches it on a row the restriction
		// would have dropped.
		{"raising entry past the restriction", `(n:Person), (n)-[:knows]->(m:Person {nr = 1/0}) WHERE n.employer = 'nobody'`,
			nil, "division by zero"},
		{"raising entry on the restriction", `(n:Person), (n:Person {nr = 1/0})-[:knows]->(m:Person) WHERE n.employer = 'nobody'`,
			nil, "division by zero"},
		{"raising conjunct", `(n:Person), (n)-[:knows]->(m:Person) WHERE n.employer = 'nobody' AND NOT m.nr`,
			nil, "NOT"},
		// A k-shortest pattern restricts the chains after it but takes no
		// restriction itself: it draws one identifier per walk examined.
		{"k-shortest restricting", `(a:Person)-/2 SHORTEST p<:knows*>/->(b:Person), (b)-[:isLocatedIn]->(c:City) WHERE a.employer = 'C0' AND c.name = 'City1'`,
			[]string{"b ⋉ pattern 1"}, ""},
		{"k-shortest restricted", `(a:Person)-[:isLocatedIn]->(c:City), (a)-/2 SHORTEST p<:knows*>/->(b:Person) WHERE c.name = 'City0'`,
			nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := "SELECT 1 AS one MATCH " + tc.match
			got, want := conjunctTable(t, q, false), conjunctTable(t, q, true)
			if got != want {
				t.Fatalf("restricted evaluation diverged\ngot:\n%s\nwant:\n%s", got, want)
			}
			if isErr := strings.HasPrefix(got, "error: "); isErr != (tc.wantErr != "") || !strings.Contains(got, tc.wantErr) {
				t.Fatalf("got %q, want error %q", got, tc.wantErr)
			}
			if tc.wantErr == "" && strings.Count(got, "\n") < 3 && !strings.Contains(tc.name, "empty") {
				t.Fatalf("the case binds too few rows to tell:\n%s", got)
			}
			stmt, err := parser.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := sipEvaluator(t).Explain(stmt)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, l := range strings.Split(plan, "\n") {
				if r, ok := strings.CutPrefix(strings.TrimSpace(l), "restricted: "); ok {
					lines = append(lines, r)
				}
			}
			if fmt.Sprint(lines) != fmt.Sprint(tc.restricted) {
				t.Errorf("EXPLAIN restrictions %q, want %q\n%s", lines, tc.restricted, plan)
			}
		})
	}

	// Executions of one cached statement share its chain plans but
	// never their restrictions: concurrent executions with different
	// bindings each match their own serial run.
	t.Run("concurrent executions", func(t *testing.T) {
		ev := sipEvaluator(t)
		ev.SetPlanCacheCapacity(8)
		src := `SELECT n.nr AS n, m.nr AS m MATCH ` + colocated + ` WHERE n.employer = $emp AND c.name = $city ORDER BY n, m`
		run := func(emp, city string) string {
			ex, err := ev.PrepareExec(src, map[string]value.Value{"emp": value.Str(emp), "city": value.Str(city)}, ExecOpts{})
			if err != nil {
				return err.Error()
			}
			res, err := ev.EvalExec(context.Background(), ex)
			if err != nil {
				return err.Error()
			}
			return res.Table.String()
		}
		var args [][2]string
		want := map[[2]string]string{}
		for e := 0; e < 3; e++ {
			for c := 0; c < 3; c++ {
				a := [2]string{fmt.Sprintf("C%d", e), fmt.Sprintf("City%d", c)}
				args = append(args, a)
				want[a] = run(a[0], a[1])
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4*len(args))
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range args {
					a := args[(i+w)%len(args)]
					if got := run(a[0], a[1]); got != want[a] {
						errs <- fmt.Sprintf("%v: got\n%s\nwant\n%s", a, got, want[a])
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	})
}
