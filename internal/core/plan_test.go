package core

import (
	"math"
	"strings"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/catalog"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// planGraph builds a small graph with deliberately skewed label
// cardinalities: four Person nodes chained by knows edges, one City
// every Person lives in.
func planGraph(t *testing.T) *ppg.Graph {
	t.Helper()
	g := ppg.New("plan_graph")
	addNode := func(id ppg.NodeID, labels ...string) {
		if err := g.AddNode(&ppg.Node{ID: id, Labels: ppg.NewLabels(labels...),
			Props: ppg.NewProperties(map[string]value.Value{"nr": value.Int(int64(id))})}); err != nil {
			t.Fatal(err)
		}
	}
	addNode(1, "Person")
	addNode(2, "Person")
	addNode(3, "Person")
	addNode(4, "Person", "Manager")
	addNode(5, "City")
	eid := ppg.EdgeID(100)
	addEdge := func(src, dst ppg.NodeID, label string) {
		eid++
		if err := g.AddEdge(&ppg.Edge{ID: eid, Src: src, Dst: dst, Labels: ppg.NewLabels(label)}); err != nil {
			t.Fatal(err)
		}
	}
	addEdge(1, 2, "knows")
	addEdge(2, 3, "knows")
	addEdge(3, 4, "knows")
	addEdge(4, 1, "knows")
	addEdge(1, 5, "isLocatedIn")
	addEdge(2, 5, "isLocatedIn")
	addEdge(3, 5, "isLocatedIn")
	addEdge(4, 5, "isLocatedIn")
	return g
}

func planEvaluator(t *testing.T, ab Ablation) *Evaluator {
	t.Helper()
	cat := catalog.New()
	if err := cat.RegisterGraph(planGraph(t)); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetDefault("plan_graph"); err != nil {
		t.Fatal(err)
	}
	return NewAblated(cat, ab)
}

func nodePat(v string, labels ...string) *ast.NodePattern {
	np := &ast.NodePattern{Var: v}
	for _, l := range labels {
		np.Labels = append(np.Labels, []string{l})
	}
	return np
}

func TestEstimateNodeScan(t *testing.T) {
	g := planGraph(t)
	if got := estimateNodeScan(g, nodePat("p", "Person")); got != 4 {
		t.Errorf("Person estimate = %d, want 4", got)
	}
	if got := estimateNodeScan(g, nodePat("c", "City")); got != 1 {
		t.Errorf("City estimate = %d, want 1", got)
	}
	// Conjunctive labels take the most selective conjunct.
	if got := estimateNodeScan(g, nodePat("m", "Person", "Manager")); got != 1 {
		t.Errorf("Person∧Manager estimate = %d, want 1", got)
	}
	if got := estimateNodeScan(g, nodePat("x")); got != g.NumNodes() {
		t.Errorf("unlabelled estimate = %d, want %d", got, g.NumNodes())
	}
	if got := estimateNodeScan(nil, nodePat("x", "Person")); got != math.MaxInt {
		t.Errorf("nil graph estimate = %d, want MaxInt", got)
	}
}

func TestPlanChainReversal(t *testing.T) {
	g := planGraph(t)
	gp := &ast.GraphPattern{
		Nodes: []*ast.NodePattern{nodePat("p", "Person"), nodePat("c", "City")},
		Links: []ast.Link{&ast.EdgePattern{Var: "e", Dir: ast.DirOut, Labels: ast.LabelSpec{{"isLocatedIn"}}}},
	}
	pl := planChain(gp, g, false)
	if !pl.reversed || pl.estFwd != 4 || pl.estRev != 1 {
		t.Fatalf("plan = %+v, want reversed with estFwd=4 estRev=1", pl)
	}
	if pl.startEstimate() != 1 {
		t.Errorf("startEstimate = %d, want 1", pl.startEstimate())
	}
	// The reversed pattern starts at the City end with the edge
	// flipped; the original AST is untouched.
	if pl.runGp.Nodes[0].Var != "c" || pl.runGp.Nodes[1].Var != "p" {
		t.Errorf("reversed nodes = %s, %s", pl.runGp.Nodes[0].Var, pl.runGp.Nodes[1].Var)
	}
	if dir := pl.runGp.Links[0].(*ast.EdgePattern).Dir; dir != ast.DirIn {
		t.Errorf("reversed edge dir = %v, want DirIn", dir)
	}
	if gp.Links[0].(*ast.EdgePattern).Dir != ast.DirOut {
		t.Error("planChain mutated the shared AST")
	}

	// Forward start already cheapest: no reversal.
	fw := &ast.GraphPattern{
		Nodes: []*ast.NodePattern{nodePat("c", "City"), nodePat("p", "Person")},
		Links: []ast.Link{&ast.EdgePattern{Dir: ast.DirIn, Labels: ast.LabelSpec{{"isLocatedIn"}}}},
	}
	if pl := planChain(fw, g, false); pl.reversed {
		t.Error("chain already starting at the cheap end must not reverse")
	}

	// Path links pin the textual direction.
	withPath := &ast.GraphPattern{
		Nodes: []*ast.NodePattern{nodePat("p", "Person"), nodePat("c", "City")},
		Links: []ast.Link{&ast.PathPattern{Mode: ast.PathReach}},
	}
	if pl := planChain(withPath, g, false); pl.reversed || pl.estRev != math.MaxInt {
		t.Errorf("path chain plan = %+v, want unreversed", pl)
	}

	// The ablation forces the textual order.
	if pl := planChain(gp, g, true); pl.reversed {
		t.Error("textual must pin the forward direction")
	}
}

func TestReverseNames(t *testing.T) {
	pn := patternNames{node: []string{"a", "b", "c"}, link: []string{"e1", "e2"}}
	rev := reverseNames(pn)
	if rev.node[0] != "c" || rev.node[2] != "a" || rev.link[0] != "e2" || rev.link[1] != "e1" {
		t.Errorf("reverseNames = %+v", rev)
	}
	// The input must stay intact (it is reused for the restore sort).
	if pn.node[0] != "a" || pn.link[0] != "e1" {
		t.Error("reverseNames mutated its input")
	}
}

func TestJoinOrder(t *testing.T) {
	ests := []int{50, 2, math.MaxInt, 2}
	got := joinOrder(ests, false)
	want := []int{1, 3, 0, 2} // ties keep textual order
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("joinOrder = %v, want %v", got, want)
		}
	}
	got = joinOrder(ests, true)
	for i := range got {
		if got[i] != i {
			t.Fatalf("textual joinOrder = %v, want identity", got)
		}
	}
}

// TestPlannedEvalMatchesTextual: on the skewed graph the planner
// reverses chains and reorders conjunct joins; the produced tables
// must be identical — including row order — to the textual plan.
func TestPlannedEvalMatchesTextual(t *testing.T) {
	queries := []string{
		// Chain reversal (Person → City scans from the single City).
		`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`,
		// Reversal across two hops with an undirected edge.
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[:knows]->(q:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)<-[:knows]-(q:Person)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[e]-(q)`,
		// Conjunct reordering: the City scan folds first.
		`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`,
		`SELECT a.nr AS x MATCH (a:Person)-[:knows]->(b:Person), (c:City)<-[:isLocatedIn]-(b)`,
		// OPTIONAL block with its own multi-pattern fold.
		`SELECT p.nr AS a, c.nr AS b MATCH (p:Person) OPTIONAL (p)-[:isLocatedIn]->(c:City), (m:Manager)`,
	}
	for _, q := range queries {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		eval := func(ab Ablation) string {
			res, err := planEvaluator(t, ab).EvalStatement(stmt)
			if err != nil {
				t.Fatalf("eval %q (%+v): %v", q, ab, err)
			}
			return res.Table.String()
		}
		want := eval(Ablation{NoReorder: true})
		got := eval(Ablation{})
		if got != want {
			t.Errorf("planner changed results for %q\nplanned:\n%s\ntextual:\n%s", q, got, want)
		}
	}
}

// TestExplainSurfacesPlan: EXPLAIN prints the scan direction decision
// and the conjunct join order.
func TestExplainSurfacesPlan(t *testing.T) {
	ev := planEvaluator(t, Ablation{})
	explainQ := func(q string) string {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		plan, err := ev.Explain(stmt)
		if err != nil {
			t.Fatalf("explain: %v", err)
		}
		return plan
	}
	plan := explainQ(`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`)
	if !strings.Contains(plan, "start: right end, reverse scan [est 1; forward 4]") {
		t.Errorf("reverse decision not surfaced:\n%s", plan)
	}
	// The chain is walked in the direction that will actually run.
	if !strings.Contains(plan, "node scan (c :City)") {
		t.Errorf("reversed chain not shown from its start:\n%s", plan)
	}
	plan = explainQ(`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`)
	if !strings.Contains(plan, "join order: pattern 2 [est 1] ⋈ pattern 1 [est 4]") {
		t.Errorf("join order not surfaced:\n%s", plan)
	}
	plan = explainQ(`SELECT c.nr AS b MATCH (c:City)`)
	if !strings.Contains(plan, "start: left end, forward scan [est 1]") {
		t.Errorf("forward decision not surfaced:\n%s", plan)
	}
	// Patterns on run-time-only graphs carry no static estimate.
	plan = explainQ(`SELECT x.nr AS a, c.nr AS b
MATCH (c:City) OPTIONAL (x) ON (CONSTRUCT (m:Manager) MATCH (m:Manager))`)
	if strings.Contains(plan, "ON (subquery)\n    start:") {
		t.Errorf("subquery pattern must not print a static scan decision:\n%s", plan)
	}

	ev = planEvaluator(t, Ablation{NoReorder: true})
	plan = explainQ(`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`)
	if !strings.Contains(plan, "join order: pattern 1 [est 4] ⋈ pattern 2 [est 1]") {
		t.Errorf("NoReorder join order not textual:\n%s", plan)
	}
	plan = explainQ(`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`)
	if !strings.Contains(plan, "start: left end, forward scan [est 4]") {
		t.Errorf("NoReorder must pin the forward scan:\n%s", plan)
	}
}
