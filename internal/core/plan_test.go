package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/catalog"
	"gcore/internal/csr"
	"gcore/internal/gov"
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
	return evaluatorOn(t, planGraph(t), ab)
}

func evaluatorOn(t *testing.T, g *ppg.Graph, ab Ablation) *Evaluator {
	t.Helper()
	cat := catalog.New()
	if err := cat.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetDefault(g.Name()); err != nil {
		t.Fatal(err)
	}
	return NewAblated(cat, ab)
}

// matchOf parses a statement and returns its first MATCH chain and the
// WHERE conjuncts.
func matchOf(t *testing.T, q string) (*ast.GraphPattern, []*conjunct) {
	t.Helper()
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	mc := stmt.Query.(*ast.BasicQuery).Match
	return mc.Patterns[0].Pattern, newCachedStatement(stmt).conjuncts(mc.Where)
}

func TestNodeEstimate(t *testing.T) {
	snap := csr.Build(planGraph(t))
	est := func(q string, ab Ablation) nodeEst {
		gp, conjs := matchOf(t, q)
		return estimateNode(ab, snap, gp.Nodes[0], conjs, nil)
	}
	for _, c := range []struct {
		q          string
		ab         Ablation
		base, card float64
	}{
		{`SELECT 1 AS x MATCH (p:Person)`, Ablation{}, 4, 4},
		{`SELECT 1 AS x MATCH (c:City)`, Ablation{}, 1, 1},
		// Conjunctive labels take the most selective conjunct.
		{`SELECT 1 AS x MATCH (m:Person:Manager)`, Ablation{}, 1, 1},
		{`SELECT 1 AS x MATCH (x)`, Ablation{}, 5, 5},
		// A seekable equality: nr is unique, one posting per key —
		// whatever the constant, literal or parameter.
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nr = 3`, Ablation{}, 4, 1},
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nr = 99`, Ablation{}, 4, 1},
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nr = $n`, Ablation{}, 4, 1},
		// No node carries the key: the equality keeps nothing.
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nope = 3`, Ablation{}, 4, 0},
		// Range conjuncts and scans that never seek keep the partition.
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nr > 3`, Ablation{}, 4, 4},
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nr = 3`, Ablation{NoPropColumns: true}, 4, 4},
		{`SELECT 1 AS x MATCH (p:Person) WHERE p.nr = 3`, Ablation{NoPushdown: true}, 4, 4},
	} {
		if got := est(c.q, c.ab); got.base != c.base || got.card != c.card {
			t.Errorf("%s (%+v): base/card = %v/%v, want %v/%v", c.q, c.ab, got.base, got.card, c.base, c.card)
		}
	}
}

func TestFanOut(t *testing.T) {
	snap := csr.Build(planGraph(t))
	person := nodeEst{labels: []int32{snap.LabelID("Person")}, base: 4, card: 4}
	city := nodeEst{labels: []int32{snap.LabelID("City")}, base: 1, card: 1}
	any := nodeEst{base: 5, card: 5}
	located := &ast.EdgePattern{Labels: ast.LabelSpec{{"isLocatedIn"}}}
	for _, c := range []struct {
		name string
		from nodeEst
		ep   *ast.EdgePattern
		dir  ast.Direction
		want float64
	}{
		{"Person out isLocatedIn", person, located, ast.DirOut, 1},
		{"City in isLocatedIn", city, located, ast.DirIn, 4},
		{"City out isLocatedIn", city, located, ast.DirOut, 0},
		{"Person both knows", person, &ast.EdgePattern{Labels: ast.LabelSpec{{"knows"}}}, ast.DirBoth, 2},
		{"Person out any", person, &ast.EdgePattern{}, ast.DirOut, 2},
		{"any out any", any, &ast.EdgePattern{}, ast.DirOut, 8.0 / 5},
		{"Person out knows|isLocatedIn", person, &ast.EdgePattern{Labels: ast.LabelSpec{{"knows", "isLocatedIn"}}}, ast.DirOut, 2},
		{"unknown edge label", person, &ast.EdgePattern{Labels: ast.LabelSpec{{"likes"}}}, ast.DirOut, 0},
	} {
		if got := fanOut(snap, c.from, c.ep, c.dir); got != c.want {
			t.Errorf("%s: fan-out %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPlanChainStart(t *testing.T) {
	snap := csr.Build(planGraph(t))
	plan := func(q string, ab Ablation, s *csr.Snapshot) chainPlan {
		gp, conjs := matchOf(t, q)
		return planChain(ab, gp, s, conjs, nil)
	}
	for _, c := range []struct {
		name, q string
		ab      Ablation
		start   int
		ests    string
	}{
		// The single City ends the chain: start there, walk back.
		{"last node", `SELECT 1 AS x MATCH (p:Person)-[:isLocatedIn]->(c:City)`, Ablation{}, 1, "[1 4]"},
		{"first node already cheapest", `SELECT 1 AS x MATCH (c:City)<-[:isLocatedIn]-(p:Person)`, Ablation{}, 0, "[1 4]"},
		// The City sits mid-chain: start there, extend right, then left.
		{"interior node", `SELECT 1 AS x MATCH (p:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(q:Person)`, Ablation{}, 1, "[1 4 16]"},
		// An equality pins the middle Person.
		{"interior seek", `SELECT 1 AS x MATCH (p:Person)-[:knows]->(q:Person)-[:knows]->(r:Person) WHERE q.nr = 2`, Ablation{}, 1, "[1 1 1]"},
		{"interior seek, parameter", `SELECT 1 AS x MATCH (p:Person)-[:knows]->(q:Person)-[:knows]->(r:Person) WHERE q.nr = $nr`, Ablation{}, 1, "[1 1 1]"},
		// Equal costs keep the leftmost start.
		{"tie", `SELECT 1 AS x MATCH (p:Person)-[:knows]->(q:Person)`, Ablation{}, 0, "[4 4]"},
		// Path links pin the first node.
		{"path link", `SELECT 1 AS x MATCH (p:Person)-/<:isLocatedIn>/->(c:City)`, Ablation{}, 0, "[4 4]"},
		// The ablation forces the textual order.
		{"textual", `SELECT 1 AS x MATCH (p:Person)-[:isLocatedIn]->(c:City)`, Ablation{NoReorder: true}, 0, "[4 4]"},
	} {
		pl := plan(c.q, c.ab, snap)
		if pl.start != c.start || fmt.Sprint(pl.ests) != c.ests {
			t.Errorf("%s: start %d ests %v, want start %d ests %s", c.name, pl.start, pl.ests, c.start, c.ests)
		}
		sum := 0
		for _, e := range pl.ests {
			sum += e
		}
		if pl.cost != sum {
			t.Errorf("%s: cost %d, want the sum of the step estimates %d", c.name, pl.cost, sum)
		}
	}
	// A graph only known at run time: first node, no estimates.
	if pl := plan(`SELECT 1 AS x MATCH (p:Person)-[:isLocatedIn]->(c:City)`, Ablation{}, nil); pl.start != 0 || pl.ests != nil || pl.cost != math.MaxInt {
		t.Errorf("nil snapshot plan = %+v", pl)
	}
}

func TestChainSteps(t *testing.T) {
	got := fmt.Sprint(chainSteps(3, 1))
	if want := "[{1 1 2 false} {2 2 3 false} {0 1 0 true}]"; got != want {
		t.Errorf("chainSteps(3, 1) = %s, want %s", got, want)
	}
	gp := &ast.GraphPattern{
		Nodes: []*ast.NodePattern{nodePat("a"), nodePat("b"), nodePat("c")},
		Links: []ast.Link{&ast.EdgePattern{Var: "e", Dir: ast.DirOut}, &ast.EdgePattern{Var: "f", Dir: ast.DirBoth}},
	}
	if dir := (chainStep{link: 0, flip: true}).linkOf(gp).(*ast.EdgePattern).Dir; dir != ast.DirIn {
		t.Errorf("flipped out-edge runs %v, want DirIn", dir)
	}
	if dir := (chainStep{link: 1, flip: true}).linkOf(gp).(*ast.EdgePattern).Dir; dir != ast.DirBoth {
		t.Errorf("flipped undirected edge runs %v, want DirBoth", dir)
	}
	if gp.Links[0].(*ast.EdgePattern).Dir != ast.DirOut {
		t.Error("linkOf mutated the shared AST")
	}
}

func nodePat(v string, labels ...string) *ast.NodePattern {
	np := &ast.NodePattern{Var: v}
	for _, l := range labels {
		np.Labels = append(np.Labels, []string{l})
	}
	return np
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

// matchTable evaluates the MATCH clause of q — patterns, WHERE and
// OPTIONAL blocks — and renders its binding table in row order (SELECT
// would sort it). With start >= 0 every chain starts at node start
// (clamped to the chain), through a plan-cache entry pre-loaded with
// those plans; otherwise the evaluator plans.
func matchTable(t *testing.T, ev *Evaluator, q string, start int) (string, error) {
	t.Helper()
	stmt, err := parser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	if err := analyzeStatement(stmt); err != nil {
		t.Fatal(err)
	}
	c := ev.newCtx(gov.New(context.Background(), gov.Limits{}))
	c.cached = newCachedStatement(stmt)
	mc := stmt.Query.(*ast.BasicQuery).Match
	if start >= 0 {
		pats := mc.Patterns
		for _, ob := range mc.Optionals {
			pats = append(pats, ob.Patterns...)
		}
		for _, lp := range pats {
			c.cached.storeChainPlan(lp.Pattern, ev.cat.Default(), chainPlan{start: min(start, len(lp.Pattern.Nodes)-1)})
		}
	}
	tbl, _, err := c.evalMatch(newScope(nil), mc, bindings.Unit())
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

// TestPlannedEvalMatchesTextual: every start of a chain must produce
// the binding table — including row order — of the textual plan. The
// fixed queries cover the skewed graph's planner choices; the random
// ones force each start of random chains over a random graph with
// undirected edges and self-loops, {k = v} bindings anywhere, repeated
// variables, WHERE equalities the destination gates consume, and
// OPTIONAL blocks sharing variables with the outer pattern.
func TestPlannedEvalMatchesTextual(t *testing.T) {
	rows := 0
	check := func(ev, textual *Evaluator, q string) {
		t.Helper()
		want, wantErr := matchTable(t, textual, q, -1)
		for k := -1; k < 4; k++ {
			got, err := matchTable(t, ev, q, k)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s from node %d: error %v, textual error %v", q, k, err, wantErr)
			}
			if got != want {
				t.Fatalf("start %d changed the bindings of %q\nplanned:\n%s\ntextual:\n%s", k, q, got, want)
			}
		}
		rows += strings.Count(want, "\n")
	}
	ev, textual := planEvaluator(t, Ablation{}), planEvaluator(t, Ablation{NoReorder: true})
	for _, q := range []string{
		`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[:knows]->(q:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(q:Person)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)<-[:knows]-(q:Person)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[e]-(q)`,
		`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`,
		`SELECT a.nr AS x MATCH (a:Person)-[:knows]->(b:Person), (c:City)<-[:isLocatedIn]-(b)`,
		`SELECT p.nr AS a, c.nr AS b MATCH (p:Person) OPTIONAL (p)-[:isLocatedIn]->(c:City), (m:Manager)`,
	} {
		check(ev, textual, q)
	}

	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 12; round++ {
		g := randomPlanGraph(t, rng)
		ev, textual := evaluatorOn(t, g, Ablation{}), evaluatorOn(t, g, Ablation{NoReorder: true})
		for i := 0; i < 25; i++ {
			check(ev, textual, randomChainQuery(rng))
		}
	}
	if rows < 1000 {
		t.Errorf("the queries bound only %d rows in all", rows)
	}
}

// randomPlanGraph builds a small graph of A/B nodes and r/s edges —
// self-loops included — whose k and w properties are absent, scalar or
// two-element sets.
func randomPlanGraph(t *testing.T, rng *rand.Rand) *ppg.Graph {
	t.Helper()
	g := ppg.New("random_plan_graph")
	labels := [][]string{nil, {"A"}, {"B"}, {"A", "B"}}
	prop := func(props map[string]value.Value, key string) {
		switch rng.Intn(4) {
		case 0:
		case 1:
			props[key] = value.Set(value.Int(int64(rng.Intn(3))), value.Int(int64(3+rng.Intn(2))))
		default:
			props[key] = value.Int(int64(rng.Intn(3)))
		}
	}
	const nodes = 9
	for id := 1; id <= nodes; id++ {
		props := map[string]value.Value{}
		prop(props, "k")
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(id), Labels: ppg.NewLabels(labels[rng.Intn(len(labels))]...),
			Props: ppg.NewProperties(props)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 22; i++ {
		props := map[string]value.Value{}
		prop(props, "w")
		src := ppg.NodeID(1 + rng.Intn(nodes))
		dst := src // a self-loop now and then
		if rng.Intn(6) > 0 {
			dst = ppg.NodeID(1 + rng.Intn(nodes))
		}
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(100 + i), Src: src, Dst: dst,
			Labels: ppg.NewLabels([]string{"r", "s"}[rng.Intn(2)]), Props: ppg.NewProperties(props)}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// randomChainQuery writes a SELECT over one random chain of one to
// three edge patterns, sometimes behind an outer pattern it shares its
// first variable with through OPTIONAL.
func randomChainQuery(rng *rand.Rand) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var sel []string
	seen := map[string]bool{}
	out := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			sel = append(sel, v+" AS "+v)
		}
	}
	var sb strings.Builder
	var named []string
	node := func(i int) {
		v := pick("n0", "n1", "n2", "n3", "")
		if i > 1 && rng.Intn(4) == 0 {
			v = "n0" // a variable bound earlier in the chain
		}
		sb.WriteString("(" + v + pick("", "", ":A", ":B"))
		if rng.Intn(3) == 0 {
			b := pick("x", "y")
			sb.WriteString(" {k=" + b + "}")
			out(b)
		}
		sb.WriteString(")")
		out(v)
		if v != "" {
			named = append(named, v)
		}
	}
	links := 1 + rng.Intn(3)
	node(0)
	for i := 1; i <= links; i++ {
		ev := pick(fmt.Sprintf("e%d", i), "")
		body := ev + pick("", ":r", ":s")
		if rng.Intn(4) == 0 {
			b := pick("y", "z")
			body += " {w=" + b + "}"
			out(b)
		}
		out(ev)
		switch rng.Intn(3) {
		case 0:
			sb.WriteString("-[" + body + "]->")
		case 1:
			sb.WriteString("<-[" + body + "]-")
		default:
			sb.WriteString("-[" + body + "]-")
		}
		node(i)
	}
	chain := sb.String()
	where := ""
	if len(named) > 0 && rng.Intn(2) == 0 {
		where = fmt.Sprintf(" WHERE %s.k = %d", named[rng.Intn(len(named))], rng.Intn(3))
	}
	if len(sel) == 0 {
		sel = append(sel, "1 AS one")
	}
	if rng.Intn(4) == 0 {
		return fmt.Sprintf("SELECT o AS o, %s MATCH (o:A) OPTIONAL (o)-[:r]->%s%s", strings.Join(sel, ", "), chain, where)
	}
	return fmt.Sprintf("SELECT %s MATCH %s%s", strings.Join(sel, ", "), chain, where)
}

// TestExplainSurfacesPlan: EXPLAIN prints the chain start with its
// estimate, each step's estimate, and the conjunct join order; EXPLAIN
// ANALYZE prints the estimates next to the actual rows.
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
	contains := func(plan string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(plan, want) {
				t.Errorf("plan lacks %q:\n%s", want, plan)
			}
		}
	}
	// The chain is walked from the start that will actually run.
	contains(explainQ(`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`),
		"start: node 2 (c :City) [est 5], emission order restored\n",
		"node scan (c :City)  [est 1]\n",
		"expand <-[:isLocatedIn]-(p :Person) (adjacency)  [est 4]\n")
	contains(explainQ(`SELECT p.nr AS a MATCH (p:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(q:Person)`),
		"start: node 2 (c :City) [est 21]",
		"node scan (c :City)  [est 1]\n",
		"expand <-[:isLocatedIn]-(q :Person) (adjacency)  [est 4]\n",
		"expand <-[:isLocatedIn]-(p :Person) (adjacency)  [est 16]\n")
	contains(explainQ(`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`),
		"join order: pattern 2 [est 1] ⋈ pattern 1 [est 4]")
	contains(explainQ(`SELECT c.nr AS b MATCH (c:City)`), "start: node 1 (c :City) [est 1]\n")
	// A later pattern is restricted to the nodes earlier ones bound its
	// shared node variables to, in a MATCH and in an OPTIONAL block; a
	// pattern with a path step never is.
	contains(explainQ(`SELECT p.nr AS a MATCH (p:Person)-[:knows]->(q:Person), (q)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(p)`),
		"hash-join with pattern 2 (default graph)\n    restricted: p, q ⋉ pattern 1\n    start:")
	contains(explainQ(`SELECT p.nr AS a MATCH (p:Person) OPTIONAL (p)-[:knows]->(q:Person), (q)-[:knows]->(r:Person)`),
		"expand <-[:knows]-(p) (adjacency)  [est 4]\n    restricted: q ⋉ pattern 1\n    start: node 2 (r :Person)")
	if plan := explainQ(`SELECT p.nr AS a MATCH (p:Person)-[:knows]->(q:Person), (q)-/<:knows*>/->(p)`); strings.Contains(plan, "restricted:") {
		t.Errorf("a path pattern must take no restriction:\n%s", plan)
	}
	// Patterns on run-time-only graphs carry no static estimate.
	plan := explainQ(`SELECT x.nr AS a, c.nr AS b
MATCH (c:City) OPTIONAL (x) ON (CONSTRUCT (m:Manager) MATCH (m:Manager))`)
	if strings.Contains(plan, "ON (subquery)\n    start:") {
		t.Errorf("subquery pattern must not print a static start:\n%s", plan)
	}

	// A parameter and its inlined literal plan alike, and EXPLAIN
	// ANALYZE prints the estimates beside what ran.
	const q = `SELECT p.nr AS a MATCH (p:Person)-[:knows]->(q:Person)-[:knows]->(r:Person) WHERE q.nr = %s`
	lit, param := explainQ(fmt.Sprintf(q, "2")), explainQ(fmt.Sprintf(q, "$nr"))
	if strings.ReplaceAll(param, "$nr", "2") != lit {
		t.Errorf("parameter and literal plans differ:\n%s\n%s", param, lit)
	}
	contains(lit, "start: node 2 (q :Person) [est 3]")
	stmt, err := parser.Parse(fmt.Sprintf(q, "2"))
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := ev.ExplainAnalyze(stmt)
	if err != nil {
		t.Fatal(err)
	}
	contains(analyzed, "[seek nr]  [est 1]  [actual rows=1→1", "(r :Person) (adjacency)  [est 1]  [actual rows=1→1")

	ev = planEvaluator(t, Ablation{NoReorder: true})
	contains(explainQ(`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`),
		"join order: pattern 1 [est 4] ⋈ pattern 2 [est 1]")
	contains(explainQ(`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`),
		"start: node 1 (p :Person) [est 8]\n")
}

// TestDestinationGateErrors: the destination gate of an edge step drops
// rows before they are built, so it may only consume WHERE conjuncts
// where no evaluation the step used to run first can raise. Each case
// runs from the first node — the gate then guards q — and must raise,
// or not, exactly as the interpreter-only engine, whose gate consumes
// no conjuncts, does.
func TestDestinationGateErrors(t *testing.T) {
	for _, c := range []struct {
		name, q string
		raises  bool
	}{
		// A raising filter entry on the destination keeps the gate from
		// consuming the conjunct that would drop every row.
		{"node filter entry", `SELECT 1 AS x MATCH (p:Person)-[:knows]->(q:Person {nr = 1/0}) WHERE q.nr = 99`, true},
		// The edge's entries run before the gate.
		{"edge filter entry", `SELECT 1 AS x MATCH (p:Person)-[:knows {nr = 1/0}]->(q:Person) WHERE q.nr = 99`, true},
		// A raising conjunct ahead of the equality stops the walk.
		{"raising conjunct first", `SELECT 1 AS x MATCH (p:Person)-[:knows]->(q:Person) WHERE NOT q.nr AND q.nr = 99`, true},
		// Behind it, the equality drops every row first, gate or not.
		{"raising conjunct second", `SELECT 1 AS x MATCH (p:Person)-[:knows]->(q:Person) WHERE q.nr = 99 AND NOT q.nr`, false},
	} {
		_, err := matchTable(t, planEvaluator(t, Ablation{}), c.q, 0)
		_, oracle := matchTable(t, planEvaluator(t, Ablation{NoPropColumns: true}), c.q, 0)
		if (err != nil) != c.raises || fmt.Sprint(err) != fmt.Sprint(oracle) {
			t.Errorf("%s: error %v, want raised=%v as the interpreter's %v", c.name, err, c.raises, oracle)
		}
	}
}
