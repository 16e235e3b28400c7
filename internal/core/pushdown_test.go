package core_test

import (
	"testing"

	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/snb"
)

// TestPushdownEquivalence runs a battery of queries with predicate
// pushdown enabled and disabled; the results must be byte-identical.
// This is the correctness argument for the optimisation, executed.
func TestPushdownEquivalence(t *testing.T) {
	queries := []string{
		parser.PaperQueries["L01"],
		parser.PaperQueries["L05"],
		parser.PaperQueries["L10"],
		parser.PaperQueries["L15"],
		parser.PaperQueries["L20"],
		parser.PaperQueries["L23"],
		parser.PaperQueries["L28"],
		parser.PaperQueries["L32"],
		parser.PaperQueries["L72"],
		// Conjuncts across chains, optional blocks, subqueries.
		`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person), (m:Person)
WHERE n.employer = 'Acme' AND m.employer = 'HAL' AND NOT n = m
ORDER BY a, b`,
		`SELECT n.firstName AS a, COUNT(*) AS c
MATCH (n:Person)-[:knows]->(m:Person)
WHERE (m)-[:isLocatedIn]->() AND size(n.employer) > 0
ORDER BY a`,
		`CONSTRUCT (n)
MATCH (n:Person)
WHERE EXISTS (CONSTRUCT () MATCH (n)-[:hasInterest]->(:Tag {name='Wagner'}))
OPTIONAL (n)-[:knows]->(f) WHERE (f:Person)`,
	}
	render := func(disable bool, src string) string {
		ev := newToyAblated(t, core.Ablation{NoPushdown: disable})
		stmt, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		res, err := ev.EvalStatement(stmt)
		if err != nil {
			t.Fatalf("eval (pushdown disabled=%v): %v\n%s", disable, err, src)
		}
		if res.Table != nil {
			return res.Table.Sorted().String()
		}
		data, err := res.Graph.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, src := range queries {
		on := render(false, src)
		off := render(true, src)
		if on != off {
			t.Errorf("pushdown changed the result of:\n%s\nwith:\n%s\nwithout:\n%s", src, on, off)
		}
	}
}

// TestPushdownEquivalenceGenerated repeats the check on generated
// graphs of a few seeds.
func TestPushdownEquivalenceGenerated(t *testing.T) {
	query := `SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-/SHORTEST q<:knows*> COST c/->(m:Person)
WHERE n.anchor = TRUE AND c < 3
ORDER BY a, b`
	for seed := int64(1); seed <= 3; seed++ {
		render := func(disable bool) string {
			cat := catalog.New()
			ds := snb.Generate(snb.Config{Persons: 25, Seed: seed}, cat.IDs())
			if err := cat.RegisterGraph(ds.Social); err != nil {
				t.Fatal(err)
			}
			ev := core.NewAblated(cat, core.Ablation{NoPushdown: disable})
			stmt, err := parser.Parse(query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ev.EvalStatement(stmt)
			if err != nil {
				t.Fatal(err)
			}
			return res.Table.Sorted().String()
		}
		if on, off := render(false), render(true); on != off {
			t.Errorf("seed %d: pushdown changed results\nwith:\n%s\nwithout:\n%s", seed, on, off)
		}
	}
}
