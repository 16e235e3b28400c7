// Package repro regenerates every figure and table of the G-CORE
// paper and checks the engine's output against the facts the paper
// states. It is shared by the repro test suite (repro_test.go at the
// module root) and the cmd/gcore-repro harness; EXPERIMENTS.md records
// the paper-vs-measured outcome of each check.
package repro

import (
	"fmt"
	"sort"
	"strings"

	"gcore"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/snb"
	"gcore/internal/value"
)

// Check is one paper-vs-measured comparison.
type Check struct {
	ID       string // experiment id from DESIGN.md (FIG2, FIG4-L05, …)
	Name     string
	Paper    string // what the paper states
	Measured string // what the engine produced
	Err      error  // non-nil if the measurement contradicts the paper
}

func (c Check) OK() bool { return c.Err == nil }

// NewEngine builds the toy database of the guided tour: social_graph
// (default), company_graph, the Figure 2 example graph, and the
// orders table.
func NewEngine() (*gcore.Engine, error) {
	eng := gcore.NewEngine(gcore.WithDefaultGraph("social_graph"))
	for _, g := range []*gcore.Graph{
		gcore.SampleSocialGraph(), gcore.SampleCompanyGraph(), gcore.SampleExampleGraph(),
	} {
		if err := eng.RegisterGraph(g); err != nil {
			return nil, err
		}
	}
	if err := eng.RegisterTable(gcore.SampleOrdersTable()); err != nil {
		return nil, err
	}
	return eng, nil
}

// RunAll executes every reproduction check in a fresh engine.
func RunAll() []Check {
	var out []Check
	out = append(out, Fig2()...)
	out = append(out, Fig3()...)
	eng, err := NewEngine()
	if err != nil {
		return append(out, Check{ID: "SETUP", Err: err})
	}
	out = append(out, GuidedTour(eng)...)
	out = append(out, Fig5(eng)...)
	out = append(out, Appendix(eng)...)
	out = append(out, Table1()...)
	return out
}

func check(id, name, paper string, measured string, ok bool) Check {
	c := Check{ID: id, Name: name, Paper: paper, Measured: measured}
	if !ok {
		c.Err = fmt.Errorf("%s: measured %q contradicts the paper (%s)", id, measured, paper)
	}
	return c
}

func failed(id, name string, err error) Check {
	return Check{ID: id, Name: name, Err: err}
}

// Fig2 verifies the Example 2.2 formalisation of the Figure 2 graph.
func Fig2() []Check {
	g := gcore.SampleExampleGraph()
	var out []Check
	out = append(out, check("FIG2", "PPG cardinalities",
		"N={101..106}, E={201..207}, P={301}",
		fmt.Sprintf("%d nodes, %d edges, %d paths", g.NumNodes(), g.NumEdges(), g.NumPaths()),
		g.NumNodes() == 6 && g.NumEdges() == 7 && g.NumPaths() == 1))

	e201, ok201 := g.Edge(201)
	out = append(out, check("FIG2", "ρ(201) = (102, 101)",
		"edge 201 runs 102→101",
		fmt.Sprintf("ρ(201) = (%d,%d)", e201.Src, e201.Dst),
		ok201 && e201.Src == 102 && e201.Dst == 101))

	p, okP := g.Path(301)
	nodesOK := okP && len(p.Nodes) == 3 && p.Nodes[0] == 105 && p.Nodes[1] == 103 && p.Nodes[2] == 102
	edgesOK := okP && len(p.Edges) == 2 && p.Edges[0] == 207 && p.Edges[1] == 202
	out = append(out, check("FIG2", "δ(301) = [105, 207, 103, 202, 102]",
		"nodes(301)=[105,103,102], edges(301)=[207,202]",
		fmt.Sprintf("nodes %v, edges %v", p.Nodes, p.Edges), nodesOK && edgesOK))

	trustOK := okP && value.Equal(p.Props.Get("trust").Scalarize(), value.Float(0.95))
	labelOK := okP && p.Labels.Has("toWagner")
	out = append(out, check("FIG2", "λ(301), σ(301,trust)",
		"label toWagner, trust 0.95",
		fmt.Sprintf("labels %v, trust %s", p.Labels, p.Props.Get("trust")), trustOK && labelOK))
	return out
}

// Fig3 verifies the SNB schema conformance of the datasets and the
// generator.
func Fig3() []Check {
	var out []Check
	if err := snb.CheckSchema(gcore.SampleSocialGraph()); err != nil {
		out = append(out, failed("FIG3", "toy social_graph conforms to the SNB schema", err))
	} else {
		out = append(out, check("FIG3", "toy social_graph conforms to the SNB schema",
			"node/edge types of Fig. 3", "conformant", true))
	}
	social, _ := gcore.GenerateSNB(gcore.SNBConfig{Persons: 200, Seed: 42})
	if err := snb.CheckSchema(social); err != nil {
		out = append(out, failed("FIG3", "generated graph conforms to the SNB schema", err))
	} else {
		out = append(out, check("FIG3", "generated graph (200 persons) conforms to the SNB schema",
			"node/edge types of Fig. 3",
			fmt.Sprintf("conformant (%d nodes, %d edges)", social.NumNodes(), social.NumEdges()), true))
	}
	return out
}

func evalGraph(eng *gcore.Engine, id, name, src string) (*gcore.Graph, *Check) {
	res, err := eng.Eval(src)
	if err != nil {
		c := failed(id, name, err)
		return nil, &c
	}
	if res.Graph == nil {
		c := failed(id, name, fmt.Errorf("expected a graph result"))
		return nil, &c
	}
	return res.Graph, nil
}

func countEdges(g *gcore.Graph, label string) int {
	n := 0
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		if e.Labels.Has(label) {
			n++
		}
	}
	return n
}

func countNodesWithLabel(g *gcore.Graph, label string) int {
	n := 0
	for _, id := range g.NodeIDs() {
		nd, _ := g.Node(id)
		if nd.Labels.Has(label) {
			n++
		}
	}
	return n
}

// GuidedTour reruns every §3 example on the toy database and checks
// the stated outcomes (experiment FIG4).
func GuidedTour(eng *gcore.Engine) []Check {
	var out []Check

	// L01.
	if g, c := evalGraph(eng, "FIG4-L01", "always returning a graph", parser.PaperQueries["L01"]); c != nil {
		out = append(out, *c)
	} else {
		out = append(out, check("FIG4-L01", "persons working at Acme",
			"a graph with no edges and only the Acme employees (all labels/properties preserved)",
			fmt.Sprintf("%d nodes, %d edges", g.NumNodes(), g.NumEdges()),
			g.NumNodes() == 2 && g.NumEdges() == 0))
	}

	// Binding table of the L05 join (3 rows per the paper).
	if res, err := eng.Eval(`SELECT c.name AS company, n.firstName AS person
MATCH (c:Company) ON company_graph, (n:Person) ON social_graph
WHERE c.name = n.employer`); err != nil {
		out = append(out, failed("FIG4-L05", "join binding table", err))
	} else {
		out = append(out, check("FIG4-L05", "join binding table",
			"3 bindings: (Acme,Alice), (HAL,Celine), (Acme,John)",
			fmt.Sprintf("%d bindings", res.Table.Len()), res.Table.Len() == 3))
	}

	// The cartesian product without WHERE (20 rows).
	if res, err := eng.Eval(`SELECT c.name AS company, n.firstName AS person
MATCH (c:Company) ON company_graph, (n:Person) ON social_graph`); err != nil {
		out = append(out, failed("FIG4-CART", "cartesian product table", err))
	} else {
		out = append(out, check("FIG4-CART", "cartesian product table",
			"4 companies × 5 persons = 20 bindings",
			fmt.Sprintf("%d bindings", res.Table.Len()), res.Table.Len() == 20))
	}

	// L05 graph: 3 worksAt edges.
	if g, c := evalGraph(eng, "FIG4-L05", "equi-join construct", parser.PaperQueries["L05"]); c != nil {
		out = append(out, *c)
	} else {
		out = append(out, check("FIG4-L05", "equi-join construct",
			"Frank fails to match (multi-valued employer): 3 worksAt edges",
			fmt.Sprintf("%d worksAt edges", countEdges(g, "worksAt")), countEdges(g, "worksAt") == 3))
	}

	// L10: IN — five edges, Frank twice.
	if g, c := evalGraph(eng, "FIG4-L10", "IN join", parser.PaperQueries["L10"]); c != nil {
		out = append(out, *c)
	} else {
		out = append(out, check("FIG4-L10", "IN join",
			"five new edges; Frank gets two :worksAt edges (MIT and CWI)",
			fmt.Sprintf("%d worksAt edges", countEdges(g, "worksAt")), countEdges(g, "worksAt") == 5))
	}

	// L15: unrolled property binding (5 rows / 5 edges).
	if res, err := eng.Eval(`SELECT c.name AS company, n.firstName AS person, e AS employer
MATCH (c:Company) ON company_graph, (n:Person {employer=e}) ON social_graph
WHERE c.name = e`); err != nil {
		out = append(out, failed("FIG4-L15", "unrolled binding table", err))
	} else {
		out = append(out, check("FIG4-L15", "unrolled binding table",
			"5 bindings (Frank twice: MIT and CWI)",
			fmt.Sprintf("%d bindings", res.Table.Len()), res.Table.Len() == 5))
	}

	// L20: graph aggregation.
	if g, c := evalGraph(eng, "FIG4-L20", "graph aggregation with GROUP", parser.PaperQueries["L20"]); c != nil {
		out = append(out, *c)
	} else {
		companies := countNodesWithLabel(g, "Company")
		out = append(out, check("FIG4-L20", "graph aggregation with GROUP",
			"four new company nodes (CWI, MIT, Acme, HAL) and five worksAt edges",
			fmt.Sprintf("%d companies, %d edges", companies, countEdges(g, "worksAt")),
			companies == 4 && countEdges(g, "worksAt") == 5))
	}

	// L23: 3-shortest stored paths.
	if g, c := evalGraph(eng, "FIG4-L23", "storing paths with @p", parser.PaperQueries["L23"]); c != nil {
		out = append(out, *c)
	} else {
		allLabelled := g.NumPaths() > 0
		startJohn := true
		for _, pid := range g.PathIDs() {
			p, _ := g.Path(pid)
			if !p.Labels.Has("localPeople") || p.Props.Get("distance").Len() == 0 {
				allLabelled = false
			}
			if p.Nodes[0] != snb.John {
				startJohn = false
			}
		}
		out = append(out, check("FIG4-L23", "storing paths with @p",
			"a graph of stored :localPeople paths from John Doe with a distance property",
			fmt.Sprintf("%d stored paths, labelled=%v, start-at-John=%v", g.NumPaths(), allLabelled, startJohn),
			allLabelled && startJohn))
	}

	// L28: reachability.
	if g, c := evalGraph(eng, "FIG4-L28", "reachability", parser.PaperQueries["L28"]); c != nil {
		out = append(out, *c)
	} else {
		out = append(out, check("FIG4-L28", "reachability",
			"persons reachable over knows* living at John's location",
			fmt.Sprintf("%d nodes, %d edges", g.NumNodes(), g.NumEdges()),
			g.NumNodes() == 5 && g.NumEdges() == 0))
	}

	// L32: ALL paths projection.
	if g, c := evalGraph(eng, "FIG4-L32", "ALL paths graph projection", parser.PaperQueries["L32"]); c != nil {
		out = append(out, *c)
	} else {
		out = append(out, check("FIG4-L32", "ALL paths graph projection",
			"the projection of all knows-walks (tractable despite infinitely many walks)",
			fmt.Sprintf("%d nodes, %d knows edges, %d stored paths", g.NumNodes(), countEdges(g, "knows"), g.NumPaths()),
			g.NumNodes() == 5 && countEdges(g, "knows") == 8 && g.NumPaths() == 0))
	}

	// L72: tabular projection.
	if res, err := eng.Eval(parser.PaperQueries["L72"]); err != nil {
		out = append(out, failed("FIG4-L72", "tabular projection (§5)", err))
	} else {
		names := []string{}
		for _, r := range res.Table.Rows {
			s, _ := r[0].Scalarize().AsString()
			names = append(names, s)
		}
		sort.Strings(names)
		out = append(out, check("FIG4-L72", "tabular projection (§5)",
			"a table friendName of persons reachable over knows* in John's city",
			strings.Join(names, "; "), res.Table.Len() == 5))
	}

	// L76 / L81: tabular inputs.
	for _, id := range []string{"L76", "L81"} {
		if g, c := evalGraph(eng, "FIG4-"+id, "tabular input (§5)", parser.PaperQueries[id]); c != nil {
			out = append(out, *c)
		} else {
			out = append(out, check("FIG4-"+id, "tabular input (§5)",
				"per-customer and per-product nodes connected by bought edges",
				fmt.Sprintf("%d customers, %d products, %d bought edges",
					countNodesWithLabel(g, "Customer"), countNodesWithLabel(g, "Product"), countEdges(g, "bought")),
				countNodesWithLabel(g, "Customer") == 3 && countNodesWithLabel(g, "Product") == 3 && countEdges(g, "bought") == 4))
		}
	}
	return out
}

// TourL67 is the stored-path analytics query of lines 67–71 with the
// one-variable correction discussed in EXPERIMENTS.md (the paper's
// "WHERE n = nodes(p)[1]" contradicts its own stated result; with m
// the query yields exactly the single wagnerFriend edge John→Peter
// with score 2).
const TourL67 = `CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m)
          WHEN e.score > 0
MATCH (n:Person)-/@p:toWagner/->(), (m:Person)
ON social_graph2
WHERE m = nodes(p)[1]`

// Fig5 defines the two views of Figure 5 and checks their contents,
// then runs the stored-path analytics query (FIG4-L67).
func Fig5(eng *gcore.Engine) []Check {
	var out []Check
	// social_graph1: nr_messages via OPTIONAL + COUNT(*).
	g1, c := evalGraph(eng, "FIG5", "view social_graph1", parser.PaperQueries["L39"])
	if c != nil {
		return append(out, *c)
	}
	want := map[[2]gcore.NodeID]int64{
		{snb.John, snb.Peter}: 2, {snb.Peter, snb.John}: 2,
		{snb.Peter, snb.Celine}: 3, {snb.Celine, snb.Peter}: 3,
		{snb.Peter, snb.Frank}: 1, {snb.Frank, snb.Peter}: 1,
		{snb.John, snb.Alice}: 0, {snb.Alice, snb.John}: 0,
	}
	okMsgs := true
	for _, id := range g1.EdgeIDs() {
		e, _ := g1.Edge(id)
		if !e.Labels.Has("knows") {
			continue
		}
		w, known := want[[2]gcore.NodeID{e.Src, e.Dst}]
		if !known || !value.Equal(e.Props.Get("nr_messages").Scalarize(), value.Int(w)) {
			okMsgs = false
		}
	}
	out = append(out, check("FIG5", "social_graph1 nr_messages",
		"every :knows edge annotated; 0 for people who never exchanged a message",
		fmt.Sprintf("message counts per edge match the toy data: %v", okMsgs), okMsgs))

	// social_graph2: weighted shortest paths stored as :toWagner.
	g2, c := evalGraph(eng, "FIG5", "view social_graph2", parser.PaperQueries["L57"])
	if c != nil {
		return append(out, *c)
	}
	viaPeter := g2.NumPaths() == 2
	ends := map[gcore.NodeID]bool{}
	for _, pid := range g2.PathIDs() {
		p, _ := g2.Path(pid)
		if len(p.Nodes) != 3 || p.Nodes[0] != snb.John || p.Nodes[1] != snb.Peter {
			viaPeter = false
		}
		ends[p.Nodes[len(p.Nodes)-1]] = true
	}
	out = append(out, check("FIG5", "social_graph2 stored paths",
		"two stored :toWagner paths (to the two Wagner lovers), both via Peter",
		fmt.Sprintf("%d paths, via-Peter=%v, endpoints Celine/Frank=%v",
			g2.NumPaths(), viaPeter, ends[snb.Celine] && ends[snb.Frank]),
		viaPeter && ends[snb.Celine] && ends[snb.Frank]))

	// L67: analytics over the stored paths.
	g3, c := evalGraph(eng, "FIG4-L67", "stored-path analytics", TourL67)
	if c != nil {
		return append(out, *c)
	}
	var wagnerEdges []*ppg.Edge
	for _, id := range g3.EdgeIDs() {
		e, _ := g3.Edge(id)
		if e.Labels.Has("wagnerFriend") {
			wagnerEdges = append(wagnerEdges, e)
		}
	}
	ok := len(wagnerEdges) == 1 &&
		wagnerEdges[0].Src == snb.John && wagnerEdges[0].Dst == snb.Peter &&
		value.Equal(wagnerEdges[0].Props.Get("score").Scalarize(), value.Int(2))
	measured := fmt.Sprintf("%d wagnerFriend edges", len(wagnerEdges))
	if len(wagnerEdges) == 1 {
		measured = fmt.Sprintf("one edge #%d→#%d score %s",
			wagnerEdges[0].Src, wagnerEdges[0].Dst, wagnerEdges[0].Props.Get("score"))
	}
	out = append(out, check("FIG4-L67", "stored-path analytics",
		"a single :wagnerFriend edge between John and Peter with score 2",
		measured, ok))
	return out
}

// Appendix reruns the §A.2 and §A.3 worked examples.
func Appendix(eng *gcore.Engine) []Check {
	var out []Check
	res, err := eng.Eval(`SELECT id(x) AS x, id(y) AS y, id(w) AS w, id(z) AS z
MATCH (x)-[:isLocatedIn]->(w), (y)-[:isLocatedIn]->(w),
      (x)-/@z<(:knows|:knows-)*>/->(y)
ON example_graph
WHERE w.name = 'Houston'`)
	if err != nil {
		out = append(out, failed("APX-A", "Match γ Where ξ worked example", err))
	} else {
		ok := res.Table.Len() == 1
		if ok {
			r := res.Table.Rows[0]
			ids := []int64{}
			for _, v := range r {
				i, _ := v.Scalarize().AsInt()
				ids = append(ids, i)
			}
			ok = len(ids) == 4 && ids[0] == 105 && ids[1] == 102 && ids[2] == 106 && ids[3] == 301
			out = append(out, check("APX-A", "Match γ Where ξ worked example",
				"exactly {x↦105, y↦102, w↦106, z↦301}",
				fmt.Sprintf("%d binding(s): x=%d y=%d w=%d z=%d", res.Table.Len(), ids[0], ids[1], ids[2], ids[3]), ok))
		} else {
			out = append(out, check("APX-A", "Match γ Where ξ worked example",
				"exactly one binding", fmt.Sprintf("%d bindings", res.Table.Len()), false))
		}
	}

	// §A.3: J{f,g,h}K — grouped company construction with 5 edges.
	if g, c := evalGraph(eng, "APX-C", "Construct {f,g,h} worked example", parser.PaperQueries["L20"]); c != nil {
		out = append(out, *c)
	} else {
		frank := 0
		for _, id := range g.EdgeIDs() {
			e, _ := g.Edge(id)
			if e.Labels.Has("worksAt") && e.Src == snb.Frank {
				frank++
			}
		}
		out = append(out, check("APX-C", "Construct {f,g,h} worked example",
			"ΩN has 5 rows; Frank connects to both #MIT and #CWI",
			fmt.Sprintf("%d worksAt edges, %d from Frank", countEdges(g, "worksAt"), frank),
			countEdges(g, "worksAt") == 5 && frank == 2))
	}
	return out
}
