package core_test

import (
	"strings"
	"testing"

	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/snb"
	"gcore/internal/table"
	"gcore/internal/value"
)

// Targeted tests for evaluator paths not reached by the guided tour.

func TestLabelTestOnStoredPath(t *testing.T) {
	ev := newToy(t)
	// Paths are first-class: label tests and property access work on
	// path variables in WHERE.
	res := run(t, ev, `SELECT p.trust AS trust
MATCH (a)-/@p/->(b) ON example_graph
WHERE (p:toWagner) AND p.trust > 0.9`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if !value.Equal(res.Table.Rows[0][0].Scalarize(), value.Float(0.95)) {
		t.Errorf("trust = %v", res.Table.Rows[0][0])
	}
	// A failing path label test.
	res = run(t, ev, `SELECT id(p) AS v
MATCH (a)-/@p/->(b) ON example_graph
WHERE (p:nosuch)`)
	if res.Table.Len() != 0 {
		t.Error("label test on path must filter")
	}
}

func TestLabelsOfComputedPath(t *testing.T) {
	ev := newToy(t)
	// A freshly computed path has no labels or properties yet;
	// labels(p) is the empty set, property access the empty set.
	res := run(t, ev, `SELECT size(labels(p)) AS nl, size(p.trust) AS np
MATCH (n:Person)-/SHORTEST p<:knows*>/->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`)
	row := res.Table.Rows[0]
	if !value.Equal(row[0], value.Int(0)) || !value.Equal(row[1], value.Int(0)) {
		t.Errorf("computed path metadata = %v", row)
	}
}

func TestReversedComplexRegexes(t *testing.T) {
	ev := newToy(t)
	// Reversal distributes over alternation, closures, optionals and
	// node tests; wildcards invert. hasInterest runs Person→Tag, so
	// from the Tag side the reversed pattern needs the inverse.
	queries := []string{
		// (w)<-/:hasInterest/-(m): edge m→w matched right-to-left.
		`SELECT id(m) AS v MATCH (w:Tag)<-/<:hasInterest>/-(m:Person) ON social_graph`,
		// Alternation under reversal.
		`SELECT id(m) AS v MATCH (w:Tag)<-/<:hasInterest|:nosuch>/-(m:Person) ON social_graph`,
		// Plus and optional.
		`SELECT id(m) AS v MATCH (m:Person)<-/<:knows+ :knows?>/-(o:Person) ON social_graph WHERE m.firstName = 'John'`,
		// Node test and wildcards survive reversal.
		`SELECT id(m) AS v MATCH (w:Tag)<-/<_ !:Person _->/-(m) ON social_graph WHERE (m:Tag)`,
	}
	for _, q := range queries {
		res := run(t, ev, q)
		_ = res // shape-only: must evaluate without error
	}
	// Views cannot be reversed.
	err := runErr(t, ev, `PATH w = (x)-[e:knows]->(y)
CONSTRUCT (n) MATCH (a)<-/p<~w*>/-(b)`)
	if !strings.Contains(err.Error(), "right-to-left") {
		t.Errorf("err = %v", err)
	}
}

func TestSameEdgeConstructedTwice(t *testing.T) {
	ev := newToy(t)
	// The same bound edge in two construct items merges (identity).
	g := run(t, ev, `CONSTRUCT (n)-[e]->(m) SET e.a := 1, (n)-[e]->(m) SET e.b := 2
MATCH (n:Person)-[e:knows]->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`).Graph
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (merged identity)", g.NumEdges())
	}
	e, _ := g.Edge(snb.KnowsJohnPeter)
	if !value.Equal(e.Props.Get("a").Scalarize(), value.Int(1)) ||
		!value.Equal(e.Props.Get("b").Scalarize(), value.Int(2)) {
		t.Errorf("merged props = %v", e.Props)
	}
}

func TestWhenOnStoredPathConstruct(t *testing.T) {
	ev := newToy(t)
	// WHEN can filter stored-path constructs by their fresh
	// properties.
	g := run(t, ev, `CONSTRUCT (n)-/@p:near {d := c}/->(m) WHEN p.d <= 1
MATCH (n:Person)-/SHORTEST p<:knows*> COST c/->(m:Person)
WHERE n.firstName = 'John'`).Graph
	if g.NumPaths() != 3 { // John(0), Peter(1), Alice(1)
		t.Fatalf("paths = %d, want 3\n", g.NumPaths())
	}
	for _, pid := range g.PathIDs() {
		p, _ := g.Path(pid)
		if p.Length() > 1 {
			t.Errorf("path %v survived WHEN d<=1", p.Nodes)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectAndMinusViews(t *testing.T) {
	ev := newToy(t)
	// Set operations over view-defined graphs.
	run(t, ev, `GRAPH VIEW acme AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme')`)
	run(t, ev, `GRAPH VIEW johns AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'John')`)
	g := run(t, ev, `CONSTRUCT (n) MATCH (n) ON acme
INTERSECT
CONSTRUCT (n) MATCH (n) ON johns`).Graph
	if g.NumNodes() != 1 {
		t.Fatalf("acme ∩ johns = %d nodes", g.NumNodes())
	}
	if _, ok := g.Node(snb.John); !ok {
		t.Error("John missing from intersection")
	}
}

func TestExistsWithOnClause(t *testing.T) {
	ev := newToy(t)
	// Correlated EXISTS whose inner MATCH runs on a different graph.
	g := run(t, ev, `CONSTRUCT (n)
MATCH (n:Person)
WHERE EXISTS (
  CONSTRUCT ()
  MATCH (c:Company) ON company_graph
  WHERE c.name IN n.employer )`).Graph
	// Persons whose employer names a known company: John, Alice,
	// Celine, Frank (Peter has none).
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NumNodes())
	}
	if _, ok := g.Node(snb.Peter); ok {
		t.Error("Peter must be excluded")
	}
}

func TestNestedLocalGraphScoping(t *testing.T) {
	ev := newToy(t)
	// A GRAPH binding is visible to later head clauses of the same
	// statement, including view bodies.
	g := run(t, ev, `GRAPH base AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme')
GRAPH derived AS (CONSTRUCT (n) MATCH (n) ON base WHERE n.firstName = 'Alice')
CONSTRUCT (n) MATCH (n) ON derived`).Graph
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if _, ok := g.Node(snb.Alice); !ok {
		t.Error("Alice missing")
	}
}

func TestDuplicatePathViewRejected(t *testing.T) {
	ev := newToy(t)
	err := runErr(t, ev, `PATH w = (x)-[e:knows]->(y)
PATH w = (x)-[e:knows]->(y)
CONSTRUCT (n) MATCH (n:Person)`)
	if !strings.Contains(err.Error(), "duplicate PATH") {
		t.Errorf("err = %v", err)
	}
}

func TestAnalysisSortErrors(t *testing.T) {
	ev := newToy(t)
	cases := map[string]string{
		// Path var reused as node var.
		`CONSTRUCT (n) MATCH (n:Person)-/p<:knows*>/->(m), (p)`: "used both as",
		// Cost var reused as edge var.
		`CONSTRUCT (n) MATCH (n)-/q<:knows*> COST c/->(m)-[c]->(o)`: "used both as",
		// Copy form in MATCH.
		`CONSTRUCT (n) MATCH (=n)`: "only allowed in CONSTRUCT",
		// := in MATCH property map.
		`CONSTRUCT (n) MATCH (n {k := 1})`: "only allowed in CONSTRUCT",
		// PATH clause without a segment.
		`PATH w = (x) CONSTRUCT (n) MATCH (n)`: "path segment",
	}
	for src, frag := range cases {
		err := runErr(t, ev, src)
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("%s:\n  err = %v, want fragment %q", src, err, frag)
		}
	}
}

func TestSelectOverFrom(t *testing.T) {
	ev := newToy(t)
	// SELECT directly over an imported binding table.
	res := run(t, ev, `SELECT custName AS c, prodCode AS p FROM orders ORDER BY c, p`)
	if res.Table.Len() != 5 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	first, _ := res.Table.Rows[0][0].AsString()
	if first != "Ada" {
		t.Errorf("first = %q", first)
	}
}

// TestFromNullCellIsUnbound: FROM turns a NULL cell into an unbound
// variable, so COUNT(*) (which counts rows binding every variable)
// skips that row; an unknown table is an error.
func TestFromNullCellIsUnbound(t *testing.T) {
	cat := catalog.New()
	tb := table.New("t", "x", "y")
	if err := tb.AddRow(value.Int(1), value.Null); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow(value.Int(2), value.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	ev := core.New(cat)
	res := run(t, ev, `SELECT COUNT(*) AS c, COUNT(x) AS n FROM t`)
	if c, _ := res.Table.Rows[0][0].AsInt(); c != 1 {
		t.Errorf("COUNT(*) = %d, want 1 (the NULL cell leaves y unbound)", c)
	}
	if n, _ := res.Table.Rows[0][1].AsInt(); n != 2 {
		t.Errorf("COUNT(x) = %d, want 2", n)
	}
	err := runErr(t, ev, `SELECT x FROM missing`)
	if want := `catalog: unknown binding table "missing"`; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want %s", err, want)
	}
}

func TestMatchOnTableWithFilter(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, `SELECT o.custName AS c
MATCH (o) ON orders
WHERE o.prodCode = 1001
ORDER BY c`)
	if res.Table.Len() != 3 {
		t.Fatalf("rows = %d (Bob twice + Ada)", res.Table.Len())
	}
}

func TestUnionShorthandPreservesStoredPaths(t *testing.T) {
	ev := newToy(t)
	// UNION with a graph containing stored paths keeps them.
	g := run(t, ev, `CONSTRUCT example_graph, (x :Extra)
MATCH (n:Person) WHERE n.firstName = 'John'`).Graph
	if g.NumPaths() != 1 {
		t.Fatalf("paths = %d", g.NumPaths())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectAggregates(t *testing.T) {
	ev := newToy(t)
	// Ungrouped: one row over all bindings.
	res := run(t, ev, `SELECT COUNT(*) AS n MATCH (p:Person)`)
	if res.Table.Len() != 1 || !value.Equal(res.Table.Rows[0][0], value.Int(5)) {
		t.Fatalf("COUNT(*) = %v", res.Table)
	}
	// Grouped by the non-aggregate item: out-degree per person.
	res = run(t, ev, `SELECT n.firstName AS name, COUNT(*) AS deg
MATCH (n:Person)-[:knows]->(m)
ORDER BY deg DESC, name`)
	if res.Table.Len() != 5 {
		t.Fatalf("groups = %d\n%s", res.Table.Len(), res.Table)
	}
	top, _ := res.Table.Rows[0][0].Scalarize().AsString()
	if top != "Peter" || !value.Equal(res.Table.Rows[0][1], value.Int(3)) {
		t.Errorf("top = %v", res.Table.Rows[0])
	}
	// Mixed aggregates with expressions.
	res = run(t, ev, `SELECT MIN(c) AS near, MAX(c) AS far, AVG(c) AS avg_
MATCH (n:Person)-/SHORTEST p<:knows*> COST c/->(m:Person)
WHERE n.firstName = 'John'`)
	row := res.Table.Rows[0]
	if !value.Equal(row[0], value.Int(0)) || !value.Equal(row[1], value.Int(2)) {
		t.Errorf("min/max = %v", row)
	}
	// Empty match with only aggregates: one row, COUNT 0.
	res = run(t, ev, `SELECT COUNT(*) AS n MATCH (x:NoSuchLabel)`)
	if res.Table.Len() != 1 || !value.Equal(res.Table.Rows[0][0], value.Int(0)) {
		t.Fatalf("empty COUNT(*) = %v", res.Table)
	}
	// Empty match with a grouping column: no rows.
	res = run(t, ev, `SELECT x.a AS a, COUNT(*) AS n MATCH (x:NoSuchLabel)`)
	if res.Table.Len() != 0 {
		t.Fatalf("grouped empty = %d rows", res.Table.Len())
	}
}

func TestOptionalWithOn(t *testing.T) {
	ev := newToy(t)
	// The OPTIONAL block matches on a different graph than the main
	// pattern: employer data joins against the company graph.
	res := run(t, ev, `SELECT n.firstName AS name, c.name AS company
MATCH (n:Person)
OPTIONAL (c:Company) ON company_graph WHERE 'HAL' IN c.name
ORDER BY name`)
	if res.Table.Len() != 5 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	// Every person gets the HAL row (cartesian with the 1-row block).
	for _, r := range res.Table.Rows {
		if s, _ := r[1].Scalarize().AsString(); s != "HAL" {
			t.Errorf("company = %q", s)
		}
	}
}

func TestSetOpRequiresGraphOperands(t *testing.T) {
	ev := newToy(t)
	err := runErr(t, ev, `SELECT n.a AS x MATCH (n)
UNION
CONSTRUCT (n) MATCH (n)`)
	if !strings.Contains(err.Error(), "graph operands") {
		t.Errorf("err = %v", err)
	}
}

func TestConstructUnionWithTableAsGraph(t *testing.T) {
	ev := newToy(t)
	// A table name as a construct item unions its node-graph form.
	g := run(t, ev, `CONSTRUCT orders, (x :Marker)
MATCH (n:Person) WHERE n.firstName = 'John'`).Graph
	// 5 order rows + 1 marker node.
	if g.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", g.NumNodes())
	}
}
