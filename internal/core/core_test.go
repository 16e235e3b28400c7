package core_test

import (
	"testing"

	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/snb"
	"gcore/internal/table"
	"gcore/internal/value"
)

// newToy builds an evaluator over the Figure 4 toy database:
// social_graph (default), company_graph, the example_graph of
// Figure 2, and the orders binding table of §5.
func newToy(t *testing.T) *core.Evaluator {
	t.Helper()
	cat := catalog.New()
	if err := cat.RegisterGraph(snb.SocialGraph()); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterGraph(snb.CompanyGraph()); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterGraph(snb.Fig2Graph()); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetDefault("social_graph"); err != nil {
		t.Fatal(err)
	}
	cols, rows := snb.OrdersRows()
	orders := table.New("orders", cols...)
	for _, r := range rows {
		if err := orders.AddRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.RegisterTable(orders); err != nil {
		t.Fatal(err)
	}
	return core.New(cat)
}

func run(t *testing.T, ev *core.Evaluator, src string) *core.Result {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\nquery:\n%s", err, src)
	}
	res, err := ev.EvalStatement(stmt)
	if err != nil {
		t.Fatalf("eval: %v\nquery:\n%s", err, src)
	}
	return res
}

func runErr(t *testing.T, ev *core.Evaluator, src string) error {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\nquery:\n%s", err, src)
	}
	_, err = ev.EvalStatement(stmt)
	if err == nil {
		t.Fatalf("expected evaluation error for:\n%s", src)
	}
	return err
}

func nodeNames(t *testing.T, g *ppg.Graph, key string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if s, ok := n.Props.Get(key).Scalarize().AsString(); ok {
			out[s] = true
		}
	}
	return out
}

func edgesWithLabel(g *ppg.Graph, label string) []*ppg.Edge {
	var out []*ppg.Edge
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		if e.Labels.Has(label) {
			out = append(out, e)
		}
	}
	return out
}

// ---- Guided tour, lines 1–4 ----

func TestTourL01AlwaysReturningAGraph(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, parser.PaperQueries["L01"])
	g := res.Graph
	if g == nil {
		t.Fatal("query must return a graph")
	}
	// Persons who work at Acme: John and Alice, with identity,
	// labels and properties preserved; no edges.
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("graph = %v", g)
	}
	for _, id := range []ppg.NodeID{snb.John, snb.Alice} {
		n, ok := g.Node(id)
		if !ok {
			t.Fatalf("node #%d missing (identity must be preserved)", id)
		}
		if !n.Labels.Has("Person") {
			t.Error("labels must be preserved")
		}
		if n.Props.Get("firstName").Len() == 0 {
			t.Error("properties must be preserved")
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- Lines 5–9: multi-graph join ----

func TestTourL05MultiGraphJoin(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L05"]).Graph
	// The = join drops Frank (multi-valued) and Peter (absent):
	// worksAt edges for (Acme,Alice), (HAL,Celine), (Acme,John).
	works := edgesWithLabel(g, "worksAt")
	if len(works) != 3 {
		t.Fatalf("worksAt edges = %d, want 3", len(works))
	}
	pairs := map[[2]ppg.NodeID]bool{}
	for _, e := range works {
		pairs[[2]ppg.NodeID{e.Src, e.Dst}] = true
	}
	for _, want := range [][2]ppg.NodeID{{snb.Alice, snb.Acme}, {snb.Celine, snb.HAL}, {snb.John, snb.Acme}} {
		if !pairs[want] {
			t.Errorf("missing worksAt %v", want)
		}
	}
	// UNION social_graph: the original graph is included.
	if _, ok := g.Node(snb.Peter); !ok {
		t.Error("union with social_graph lost Peter")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- Lines 10–19: IN and property unrolling ----

func TestTourL10InOperator(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L10"]).Graph
	works := edgesWithLabel(g, "worksAt")
	// IN also matches Frank with CWI and MIT: five edges.
	if len(works) != 5 {
		t.Fatalf("worksAt edges = %d, want 5", len(works))
	}
	frankCount := 0
	for _, e := range works {
		if e.Src == snb.Frank {
			frankCount++
		}
	}
	if frankCount != 2 {
		t.Errorf("Frank gets %d worksAt edges, want 2 (CWI and MIT)", frankCount)
	}
}

func TestTourL15PropertyUnrolling(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L15"]).Graph
	works := edgesWithLabel(g, "worksAt")
	if len(works) != 5 {
		t.Fatalf("worksAt edges = %d, want 5 (the unrolled binding set has 5 rows)", len(works))
	}
}

// ---- Lines 20–22: graph aggregation ----

func TestTourL20GraphAggregation(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L20"]).Graph
	// One new Company node per distinct employer value.
	var companies []*ppg.Node
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if n.Labels.Has("Company") {
			companies = append(companies, n)
		}
	}
	if len(companies) != 4 {
		t.Fatalf("companies = %d, want 4 (CWI, MIT, Acme, HAL)", len(companies))
	}
	names := map[string]bool{}
	for _, n := range companies {
		s, _ := n.Props.Get("name").Scalarize().AsString()
		names[s] = true
	}
	for _, want := range []string{"CWI", "MIT", "Acme", "HAL"} {
		if !names[want] {
			t.Errorf("company %q missing", want)
		}
	}
	if works := edgesWithLabel(g, "worksAt"); len(works) != 5 {
		t.Errorf("worksAt edges = %d, want 5", len(works))
	}
	// Original graph is unioned in.
	if _, ok := g.Node(snb.Houston); !ok {
		t.Error("union with social_graph lost Houston")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- Lines 23–27: storing paths ----

func TestTourL23StoredShortestPaths(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L23"]).Graph
	if g.NumPaths() == 0 {
		t.Fatal("no stored paths")
	}
	sawPeter := false
	for _, pid := range g.PathIDs() {
		p, _ := g.Path(pid)
		if !p.Labels.Has("localPeople") {
			t.Errorf("stored path %d lacks the localPeople label", pid)
		}
		d := p.Props.Get("distance")
		if d.Len() != 1 {
			t.Errorf("stored path %d lacks a distance", pid)
		}
		if p.Nodes[0] != snb.John {
			t.Errorf("path %d does not start at John", pid)
		}
		if p.Nodes[len(p.Nodes)-1] == snb.Peter && p.Length() == 1 {
			sawPeter = true
			if !value.Equal(d.Scalarize(), value.Int(1)) {
				t.Errorf("distance John→Peter = %v, want 1", d)
			}
		}
	}
	if !sawPeter {
		t.Error("no one-hop stored path John→Peter")
	}
	// The result graph is the projection of nodes and edges involved
	// in the stored paths; every path is valid in it.
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- Lines 28–31: reachability ----

func TestTourL28Reachability(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L28"]).Graph
	// Persons co-located with John and reachable over knows*: all
	// five (including John via the empty path).
	if g.NumNodes() != 5 || g.NumEdges() != 0 || g.NumPaths() != 0 {
		t.Fatalf("graph = %v", g)
	}
	for _, id := range []ppg.NodeID{snb.John, snb.Peter, snb.Celine, snb.Alice, snb.Frank} {
		if _, ok := g.Node(id); !ok {
			t.Errorf("person #%d missing", id)
		}
	}
}

// ---- Lines 32–35: ALL paths projection ----

func TestTourL32AllPathsProjection(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L32"]).Graph
	// The projection of all knows-walks from John to co-located
	// persons covers all five persons and all eight knows edges.
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
	if got := len(edgesWithLabel(g, "knows")); got != 8 {
		t.Fatalf("knows edges in projection = %d, want 8", got)
	}
	if g.NumPaths() != 0 {
		t.Error("ALL projection must not store path objects")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPathVarMisuseRejected(t *testing.T) {
	ev := newToy(t)
	err := runErr(t, ev, `CONSTRUCT (n)-/@p:bad/->(m)
MATCH (n:Person)-/ALL p<:knows*>/->(m:Person)`)
	if err == nil {
		t.Fatal("storing an ALL projection must fail")
	}
	runErr(t, ev, `CONSTRUCT (n)
MATCH (n:Person)-/ALL p<:knows*>/->(m:Person)
WHERE size(nodes(p)) > 2`)
}

// ---- Lines 36–38: existential subqueries ----

func TestTourL36ExplicitExists(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, `CONSTRUCT (n)
MATCH (n:Person), (m:Person)
WHERE m.firstName = 'Celine' AND EXISTS (
  CONSTRUCT ()
  MATCH (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) )`).Graph
	// Everybody is co-located with Celine.
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
}

func TestImplicitExistsNegation(t *testing.T) {
	ev := newToy(t)
	// WHERE NOT (pattern): persons without a hasInterest edge.
	g := run(t, ev, `CONSTRUCT (n)
MATCH (n:Person)
WHERE NOT (n)-[:hasInterest]->()`).Graph
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3 (John, Peter, Alice)", g.NumNodes())
	}
	if _, ok := g.Node(snb.Celine); ok {
		t.Error("Celine likes Wagner and must be excluded")
	}
}

// ---- Lines 39–47: views, OPTIONAL, SET, aggregation ----

func defineSocialGraph1(t *testing.T, ev *core.Evaluator) {
	t.Helper()
	run(t, ev, parser.PaperQueries["L39"])
}

func TestTourL39ViewWithOptional(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, parser.PaperQueries["L39"])
	g := res.Graph
	if g.Name() != "social_graph1" {
		t.Fatalf("view name = %q", g.Name())
	}
	// Every knows edge gets nr_messages; values follow the message
	// pairs of the toy data (Fig. 5).
	want := map[[2]ppg.NodeID]int64{
		{snb.John, snb.Peter}: 2, {snb.Peter, snb.John}: 2,
		{snb.Peter, snb.Celine}: 3, {snb.Celine, snb.Peter}: 3,
		{snb.Peter, snb.Frank}: 1, {snb.Frank, snb.Peter}: 1,
		{snb.John, snb.Alice}: 0, {snb.Alice, snb.John}: 0,
	}
	knows := edgesWithLabel(g, "knows")
	if len(knows) != 8 {
		t.Fatalf("knows edges = %d", len(knows))
	}
	for _, e := range knows {
		wantN, ok := want[[2]ppg.NodeID{e.Src, e.Dst}]
		if !ok {
			t.Fatalf("unexpected knows edge %d→%d", e.Src, e.Dst)
		}
		got := e.Props.Get("nr_messages")
		if !value.Equal(got.Scalarize(), value.Int(wantN)) {
			t.Errorf("nr_messages(%d→%d) = %v, want %d", e.Src, e.Dst, got, wantN)
		}
		if !e.Labels.Has("knows") {
			t.Error("bound edge must keep its labels")
		}
	}
	// The union with social_graph keeps everything else.
	if _, ok := g.Node(snb.Wagner); !ok {
		t.Error("union lost the Wagner tag")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ---- Lines 48–56: multiple OPTIONAL blocks ----

func TestMultipleOptionalBlocks(t *testing.T) {
	ev := newToy(t)
	// Order of independent OPTIONAL blocks is irrelevant.
	q1 := `CONSTRUCT (n) SET n.tag := COLLECT(m.name) SET n.city := COLLECT(c.name)
MATCH (n:Person)
OPTIONAL (n)-[:hasInterest]->(m)
OPTIONAL (n)-[:isLocatedIn]->(c)`
	q2 := `CONSTRUCT (n) SET n.tag := COLLECT(m.name) SET n.city := COLLECT(c.name)
MATCH (n:Person)
OPTIONAL (n)-[:isLocatedIn]->(c)
OPTIONAL (n)-[:hasInterest]->(m)`
	g1 := run(t, ev, q1).Graph
	g2 := run(t, ev, q2).Graph
	for _, id := range []ppg.NodeID{snb.John, snb.Celine} {
		n1, _ := g1.Node(id)
		n2, _ := g2.Node(id)
		if !value.Equal(n1.Props.Get("tag"), n2.Props.Get("tag")) ||
			!value.Equal(n1.Props.Get("city"), n2.Props.Get("city")) {
			t.Errorf("optional order changed the result for #%d", id)
		}
	}
	celine, _ := g1.Node(snb.Celine)
	tag := celine.Props.Get("tag").Scalarize()
	if tag.Len() != 1 {
		t.Errorf("Celine's collected tags = %v", tag)
	}
	// The shared-variable restriction.
	err := runErr(t, ev, `CONSTRUCT (n)
MATCH (n:Person)
OPTIONAL (n)-[:hasInterest]->(a)
OPTIONAL (n)-[:isLocatedIn]->(a)`)
	if err == nil {
		t.Error("shared optional variable must be rejected")
	}
}

// ---- Lines 57–66: weighted shortest paths over a PATH view ----

func defineSocialGraph2(t *testing.T, ev *core.Evaluator) {
	t.Helper()
	defineSocialGraph1(t, ev)
	run(t, ev, parser.PaperQueries["L57"])
}

func TestTourL57WeightedPaths(t *testing.T) {
	ev := newToy(t)
	defineSocialGraph1(t, ev)
	g := run(t, ev, parser.PaperQueries["L57"]).Graph
	if g.Name() != "social_graph2" {
		t.Fatalf("view name = %q", g.Name())
	}
	// Exactly two stored toWagner paths (to the two Wagner lovers),
	// both via Peter (Alice's segment is excluded: she works at Acme).
	if g.NumPaths() != 2 {
		t.Fatalf("stored paths = %d, want 2", g.NumPaths())
	}
	ends := map[ppg.NodeID]bool{}
	for _, pid := range g.PathIDs() {
		p, _ := g.Path(pid)
		if !p.Labels.Has("toWagner") {
			t.Error("stored path lacks toWagner label")
		}
		if p.Nodes[0] != snb.John {
			t.Errorf("path starts at #%d, want John", p.Nodes[0])
		}
		if len(p.Nodes) != 3 || p.Nodes[1] != snb.Peter {
			t.Errorf("path %v does not go via Peter", p.Nodes)
		}
		ends[p.Nodes[len(p.Nodes)-1]] = true
	}
	if !ends[snb.Celine] || !ends[snb.Frank] {
		t.Errorf("path endpoints = %v, want Celine and Frank", ends)
	}
	// social_graph1 is unioned in: nr_messages present.
	found := false
	for _, e := range edgesWithLabel(g, "knows") {
		if e.Props.Get("nr_messages").Len() > 0 {
			found = true
		}
	}
	if !found {
		t.Error("union with social_graph1 lost nr_messages")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPathViewCostMustBePositive(t *testing.T) {
	ev := newToy(t)
	runErr(t, ev, `PATH bad = (x)-[e:knows]->(y) COST 0 - 1
CONSTRUCT (n)
MATCH (n:Person)-/p<~bad*>/->(m:Person)`)
}

// ---- Lines 67–71: querying stored paths ----

// The paper's line 71 reads "WHERE n = nodes(p)[1]", which contradicts
// the pattern (n is the start of every toWagner path) and the stated
// result; with m = nodes(p)[1] the query produces exactly the paper's
// answer: a single wagnerFriend edge between John and Peter with
// score 2. See EXPERIMENTS.md.
const tourL67 = `CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m)
          WHEN e.score > 0
MATCH (n:Person)-/@p:toWagner/->(), (m:Person)
ON social_graph2
WHERE m = nodes(p)[1]`

func TestTourL67StoredPathAnalytics(t *testing.T) {
	ev := newToy(t)
	defineSocialGraph2(t, ev)
	g := run(t, ev, tourL67).Graph
	edges := edgesWithLabel(g, "wagnerFriend")
	if len(edges) != 1 {
		t.Fatalf("wagnerFriend edges = %d, want exactly 1", len(edges))
	}
	e := edges[0]
	if e.Src != snb.John || e.Dst != snb.Peter {
		t.Errorf("edge = %d→%d, want John→Peter", e.Src, e.Dst)
	}
	if !value.Equal(e.Props.Get("score").Scalarize(), value.Int(2)) {
		t.Errorf("score = %v, want 2", e.Props.Get("score"))
	}
	// Only John and Peter survive (WHEN drops nothing here, but no
	// other persons were matched by m = nodes(p)[1]).
	if g.NumNodes() != 2 {
		t.Errorf("nodes = %d, want 2", g.NumNodes())
	}
}

// ---- Lines 72–75: SELECT ----

func TestTourL72Select(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, parser.PaperQueries["L72"])
	if res.Table == nil {
		t.Fatal("SELECT must return a table")
	}
	tbl := res.Table
	if len(tbl.Cols) != 1 || tbl.Cols[0] != "friendName" {
		t.Fatalf("cols = %v", tbl.Cols)
	}
	got := map[string]bool{}
	for _, r := range tbl.Rows {
		s, _ := r[0].AsString()
		got[s] = true
	}
	for _, want := range []string{"Doe, John", "Smith, Peter", "Mayer, Celine", "Hacker, Alice", "Gold, Frank"} {
		if !got[want] {
			t.Errorf("friend %q missing from %v", want, got)
		}
	}
}

func TestSelectDistinctOrderLimit(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, `SELECT DISTINCT n.lastName AS ln
MATCH (n:Person)
ORDER BY ln DESC LIMIT 3`)
	tbl := res.Table
	if tbl.Len() != 3 {
		t.Fatalf("rows = %d, want 3", tbl.Len())
	}
	first, _ := tbl.Rows[0][0].Scalarize().AsString()
	if first != "Smith" {
		t.Errorf("first row = %q, want Smith (descending)", first)
	}
}

// ---- Lines 76–85: tabular inputs ----

func TestTourL76FromBindingTable(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L76"]).Graph
	customers, products := 0, 0
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if n.Labels.Has("Customer") {
			customers++
		}
		if n.Labels.Has("Product") {
			products++
		}
	}
	if customers != 3 || products != 3 {
		t.Fatalf("customers/products = %d/%d, want 3/3", customers, products)
	}
	bought := edgesWithLabel(g, "bought")
	// Distinct (customer, product) pairs: Ada-1001, Ada-1002,
	// Bob-1001 (bought twice, one edge), Cyd-1003.
	if len(bought) != 4 {
		t.Errorf("bought edges = %d, want 4", len(bought))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTourL81TableAsGraph(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L81"]).Graph
	if len(edgesWithLabel(g, "bought")) != 4 {
		t.Errorf("bought edges = %d, want 4", len(edgesWithLabel(g, "bought")))
	}
	names := nodeNames(t, g, "name")
	for _, want := range []string{"Ada", "Bob", "Cyd"} {
		if !names[want] {
			t.Errorf("customer %q missing", want)
		}
	}
}

// ---- Set operations at the query level ----

func TestSetOperations(t *testing.T) {
	ev := newToy(t)
	inter := run(t, ev, `CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'
INTERSECT
CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'John'`).Graph
	if inter.NumNodes() != 1 {
		t.Fatalf("intersect = %d nodes, want 1 (John)", inter.NumNodes())
	}
	minus := run(t, ev, `CONSTRUCT (n) MATCH (n:Person)
MINUS
CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'`).Graph
	if minus.NumNodes() != 3 {
		t.Fatalf("minus = %d nodes, want 3", minus.NumNodes())
	}
	union := run(t, ev, `CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'John'
UNION
CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'Peter'`).Graph
	if union.NumNodes() != 2 {
		t.Fatalf("union = %d nodes, want 2", union.NumNodes())
	}
}

// ---- GRAPH (query-local) and ON (subquery) ----

func TestLocalGraphBinding(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, `GRAPH acme AS (
  CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'
)
CONSTRUCT (n)
MATCH (n) ON acme
WHERE n.firstName = 'Alice'`).Graph
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d, want 1", g.NumNodes())
	}
	if _, ok := g.Node(snb.Alice); !ok {
		t.Error("Alice missing")
	}
	// The local name does not leak into the catalog.
	runErr(t, ev, `CONSTRUCT (n) MATCH (n) ON acme`)
}

func TestOnSubquery(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, `CONSTRUCT (n)
MATCH (n) ON (CONSTRUCT (m) MATCH (m:Person) WHERE m.employer = 'HAL')`).Graph
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d, want 1 (Celine)", g.NumNodes())
	}
}

// ---- Copy forms and REMOVE ----

func TestCopyFormsAndRemove(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, `CONSTRUCT (=n :Clone) REMOVE n.employer
MATCH (n:Person) WHERE n.firstName = 'John'`).Graph
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	id := g.NodeIDs()[0]
	if id == snb.John {
		t.Error("copy form must mint a fresh identity")
	}
	n, _ := g.Node(id)
	if !n.Labels.Has("Person") || !n.Labels.Has("Clone") {
		t.Errorf("labels = %v", n.Labels)
	}
	if !value.Equal(n.Props.Get("firstName").Scalarize(), value.Str("John")) {
		t.Error("copied properties lost")
	}
	if n.Props.Get("employer").Len() != 0 {
		t.Error("REMOVE n.employer failed")
	}

	// Edge copy: fresh identity, copied labels.
	g2 := run(t, ev, `CONSTRUCT (n)-[=e]->(m)
MATCH (n:Person)-[e:knows]->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`).Graph
	es := edgesWithLabel(g2, "knows")
	if len(es) != 1 {
		t.Fatalf("copied edges = %d", len(es))
	}
	if es[0].ID == snb.KnowsJohnPeter {
		t.Error("edge copy must mint a fresh identity")
	}
}

func TestBoundEdgeEndpointViolation(t *testing.T) {
	ev := newToy(t)
	// Constructing a bound edge between the wrong endpoints violates
	// its identity (§3).
	runErr(t, ev, `CONSTRUCT (m)-[e]->(n)
MATCH (n:Person)-[e:knows]->(m:Person)`)
}

// ---- WHEN ----

func TestWhenFiltersConstruction(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, `CONSTRUCT (n :Busy {deg := COUNT(*)}) WHEN n.deg >= 3
MATCH (n:Person)-[:knows]->(m)`).Graph
	// knows out-degrees: John 2, Peter 3, Celine 1, Alice 1, Frank 1.
	if g.NumNodes() != 1 {
		t.Fatalf("nodes = %d, want 1 (Peter)", g.NumNodes())
	}
	if _, ok := g.Node(snb.Peter); !ok {
		t.Error("Peter missing")
	}
}

// ---- CASE ----

func TestCaseCoalescesMissingData(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, `SELECT n.firstName AS name,
  CASE WHEN size(n.employer) = 0 THEN 'unemployed' ELSE n.employer END AS job
MATCH (n:Person)
ORDER BY name`)
	tbl := res.Table
	if tbl.Len() != 5 {
		t.Fatalf("rows = %d", tbl.Len())
	}
	// Peter (row ordered by name: Alice, Celine, Frank, John, Peter).
	job, _ := tbl.Rows[4][1].Scalarize().AsString()
	if job != "unemployed" {
		t.Errorf("Peter's job = %q", job)
	}
}

// ---- Appendix A.2 worked example on the Figure 2 graph ----

func TestAppendixMatchExample(t *testing.T) {
	ev := newToy(t)
	// Match γ Where ξ of §A.2 rewritten in surface syntax: x and y in
	// Houston, a stored path from x to y over (knows|knows⁻)*.
	res := run(t, ev, `SELECT id(x) AS x, id(y) AS y, id(w) AS w, id(z) AS z
MATCH (x)-[:isLocatedIn]->(w), (y)-[:isLocatedIn]->(w),
      (x)-/@z<(:knows|:knows-)*>/->(y)
ON example_graph
WHERE w.name = 'Houston'`)
	tbl := res.Table
	if tbl.Len() != 1 {
		t.Fatalf("bindings = %d, want exactly 1\n%s", tbl.Len(), tbl)
	}
	row := tbl.Rows[0]
	want := []int64{105, 102, 106, 301}
	for i, w := range want {
		got, _ := row[i].Scalarize().AsInt()
		if got != w {
			t.Errorf("column %s = %d, want %d", tbl.Cols[i], got, w)
		}
	}
}

// ---- Appendix A.3 worked example ----

func TestAppendixConstructExample(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, parser.PaperQueries["L20"]).Graph
	// Five worksAt edges between four persons and four companies,
	// with Frank connected to both MIT and CWI (the J{f,g,h}K example).
	works := edgesWithLabel(g, "worksAt")
	if len(works) != 5 {
		t.Fatalf("worksAt = %d", len(works))
	}
	frankTargets := map[ppg.NodeID]bool{}
	for _, e := range works {
		if e.Src == snb.Frank {
			frankTargets[e.Dst] = true
		}
	}
	if len(frankTargets) != 2 {
		t.Errorf("Frank connects to %d companies, want 2", len(frankTargets))
	}
}

// ---- Error paths ----

func TestEvalErrors(t *testing.T) {
	ev := newToy(t)
	cases := []string{
		`CONSTRUCT (n) MATCH (n) ON nowhere`,                          // unknown graph
		`CONSTRUCT (n) MATCH (n)-[n]->(m)`,                            // sort conflict
		`CONSTRUCT (n)-[e]-(m) MATCH (n:Person)-[e:knows]->(m)`,       // undirected construct edge
		`CONSTRUCT (n) MATCH (n:Person) WHERE COUNT(*) > 1`,           // aggregate in WHERE
		`SELECT n.a AS x MATCH (n) ORDER BY COUNT(*)`,                 // aggregate in ORDER BY
		`CONSTRUCT (n) MATCH (n:Person)-/p<~nosuch*>/->(m)`,           // unknown path view
		`CONSTRUCT (x GROUP e) MATCH (n:Person {employer=e}) WHERE 1`, // WHERE not boolean
		`CONSTRUCT (n) FROM nosuchtable`,                              // unknown table
		`PATH kk = (a)-[e:knows]->(b) WHERE 1
CONSTRUCT (n) MATCH (n:Person)-/<~kk*>/->(m)`, // PATH WHERE not boolean
	}
	for _, src := range cases {
		stmt, err := parser.Parse(src)
		if err != nil {
			continue // some are parse-time errors, equally fine
		}
		if _, err := ev.EvalStatement(stmt); err == nil {
			t.Errorf("no error for: %s", src)
		}
	}
}

// ---- Closure: query the output of a query ----

func TestComposability(t *testing.T) {
	ev := newToy(t)
	// Feed the worksAt graph of L10 into a second query via ON.
	g := run(t, ev, `CONSTRUCT (c)
MATCH (c:Company)<-[:worksAt]-(n) ON (
  CONSTRUCT (c) <-[:worksAt]-(n)
  MATCH (c:Company) ON company_graph,
        (n:Person) ON social_graph
  WHERE c.name IN n.employer
)
WHERE n.firstName = 'Frank'`).Graph
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d, want 2 (CWI and MIT)", g.NumNodes())
	}
}
