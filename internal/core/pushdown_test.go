package core_test

import (
	"sort"
	"strings"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/snb"
	"gcore/internal/value"
)

// TestPushdownEquivalence runs queries whose WHERE conjuncts the
// evaluator applies at different points — across chains, behind a
// pattern predicate, inside an OPTIONAL block next to an EXISTS — and
// checks each against its result on the toy social graph, worked out
// by hand: John and Alice work for Acme, Celine for HAL, Frank for CWI
// and MIT, Peter for nobody; every Person lives in Houston; Celine and
// Frank have an interest in Wagner.
func TestPushdownEquivalence(t *testing.T) {
	ev := newToy(t)
	for _, c := range []struct{ src, want string }{
		// Acme employees paired with HAL employees.
		{`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person), (m:Person)
WHERE n.employer = 'Acme' AND m.employer = 'HAL' AND NOT n = m
ORDER BY a, b`, `"Alice" "Celine"` + "\n" + `"John" "Celine"`},
		// Out-degree in knows of everyone with an employer: Peter has
		// none, so size(n.employer) is the size of the empty set.
		{`SELECT n.firstName AS a, COUNT(*) AS c
MATCH (n:Person)-[:knows]->(m:Person)
WHERE (m)-[:isLocatedIn]->() AND size(n.employer) > 0
ORDER BY a`, `"Alice" 1` + "\n" + `"Celine" 1` + "\n" + `"Frank" 1` + "\n" + `"John" 2`},
	} {
		res := run(t, ev, c.src)
		rows := make([]string, len(res.Table.Rows))
		for i, r := range res.Table.Rows {
			cells := make([]string, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			rows[i] = strings.Join(cells, " ")
		}
		if got := strings.Join(rows, "\n"); got != c.want {
			t.Errorf("%s\ngot:\n%s\nwant:\n%s", c.src, got, c.want)
		}
	}
	// The Wagner fans, each alone: CONSTRUCT (n) keeps no edge.
	g := run(t, ev, `CONSTRUCT (n)
MATCH (n:Person)
WHERE EXISTS (CONSTRUCT () MATCH (n)-[:hasInterest]->(:Tag {name='Wagner'}))
OPTIONAL (n)-[:knows]->(f) WHERE (f:Person)`).Graph
	if got := firstNames(t, g); got != "Celine,Frank" || g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Errorf("constructed %s with %d nodes and %d edges, want Celine,Frank alone", got, g.NumNodes(), g.NumEdges())
	}
}

// TestPushdownEquivalenceGenerated checks a WHERE the evaluator pushes
// into a SHORTEST path step on generated graphs of a few seeds: the
// result must be the same MATCH without the WHERE, filtered row by row
// by the §A.1 oracle.
func TestPushdownEquivalenceGenerated(t *testing.T) {
	const (
		match = `MATCH (n:Person)-/SHORTEST q<:knows*> COST c/->(m:Person)`
		where = `n.anchor = TRUE AND c < 3`
	)
	cond, err := parser.Parse(`SELECT 1 AS x MATCH (n) WHERE ` + where)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cat := catalog.New()
		ds := snb.Generate(snb.Config{Persons: 25, Seed: seed}, cat.IDs())
		if err := cat.RegisterGraph(ds.Social); err != nil {
			t.Fatal(err)
		}
		ev := core.New(cat)
		got := tableRows(run(t, ev, `SELECT n.firstName AS a, m.firstName AS b `+match+` WHERE `+where+` ORDER BY a, b`).Table)

		o := &oracle{g: ds.Social}
		var want []string
		all := run(t, ev, `SELECT n AS n, m AS m, c AS c, n.firstName AS a, m.firstName AS b `+match).Table
		for _, r := range all.Rows {
			v, err := o.eval(cond.Query.(*ast.BasicQuery).Match.Where, binding{"n": r[0], "m": r[1], "c": r[2]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := value.Truth(v); err != nil {
				t.Fatal(err)
			} else if ok {
				want = append(want, r[3].String()+" "+r[4].String())
			}
		}
		sort.Strings(want)
		if len(want) == 0 {
			t.Fatalf("seed %d: no row passes %s", seed, where)
		}
		if w := strings.Join(want, "\n"); got != w {
			t.Errorf("seed %d: pushdown changed results\ngot:\n%s\nwant:\n%s", seed, got, w)
		}
	}
}
