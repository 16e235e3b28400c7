package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/snb"
	"gcore/internal/table"
	"gcore/internal/value"
)

// TestConstructBindingSemantics pins which µ each CONSTRUCT phase
// reads: property assignments see the matched binding, WHEN sees the
// construct identities overriding it, COUNT(*) counts only rows that
// bind every match variable, and group order (hence identifier order)
// follows the group keys.
func TestConstructBindingSemantics(t *testing.T) {
	cat := catalog.New()
	ds := snb.Generate(snb.Config{Persons: 30, Seed: 1}, cat.IDs())
	if err := cat.RegisterGraph(ds.Social); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetDefault(ds.Social.Name()); err != nil {
		t.Fatal(err)
	}
	adv := table.New("adv", "x", "y")
	for _, r := range [][2]value.Value{
		{value.Str("a|b"), value.Str("c")},
		{value.Str("a"), value.Str("b|c")},
		{value.Str("?"), value.Null},
		{value.Str("2:ab"), value.Str("?")},
	} {
		if err := adv.AddRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.RegisterTable(adv); err != nil {
		t.Fatal(err)
	}
	ev := core.New(cat)

	knows := 0
	lastNames := map[string]bool{}
	for _, id := range ds.Social.EdgeIDs() {
		if e, _ := ds.Social.Edge(id); e.Labels.Has("knows") {
			knows++
		}
	}
	for _, id := range ds.Persons {
		n, _ := ds.Social.Node(id)
		s, _ := n.Props.Get("lastName").Scalarize().AsString()
		lastNames[s] = true
	}
	// props lists one property of every node in identifier order.
	props := func(g *ppg.Graph, key string) []value.Value {
		var out []value.Value
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			out = append(out, n.Props.Get(key).Scalarize())
		}
		return out
	}

	cases := []struct {
		name  string
		query string
		check func(t *testing.T, g *ppg.Graph)
	}{
		{"node copy kept by WHEN on its identity",
			`CONSTRUCT (=n :Copy {x := 1}) WHEN n.x = 1 MATCH (n:Person)`,
			func(t *testing.T, g *ppg.Graph) {
				if g.NumNodes() != 30 {
					t.Errorf("nodes = %d, want 30", g.NumNodes())
				}
			}},
		{"node copy dropped by WHEN on its identity",
			`CONSTRUCT (=n :Copy {x := 1}) WHEN n.x = 2 MATCH (n:Person)`,
			func(t *testing.T, g *ppg.Graph) {
				if g.NumNodes() != 0 {
					t.Errorf("nodes = %d, want 0", g.NumNodes())
				}
			}},
		{"edge copy kept by WHEN on its identity",
			`CONSTRUCT (n)-[=e :Copy {x := 1}]->(m) WHEN e.x = 1 MATCH (n:Person)-[e:knows]->(m:Person)`,
			func(t *testing.T, g *ppg.Graph) {
				if g.NumEdges() != knows || g.NumNodes() != 30 {
					t.Errorf("graph = %d nodes, %d edges; want 30, %d", g.NumNodes(), g.NumEdges(), knows)
				}
			}},
		{"edge copy dropped by WHEN on its identity",
			`CONSTRUCT (n)-[=e :Copy {x := 1}]->(m) WHEN e.x = 2 MATCH (n:Person)-[e:knows]->(m:Person)`,
			func(t *testing.T, g *ppg.Graph) {
				if !g.IsEmpty() {
					t.Errorf("graph = %d nodes, %d edges; want empty", g.NumNodes(), g.NumEdges())
				}
			}},
		{"COUNT(*) skips rows of an unmatched OPTIONAL",
			`CONSTRUCT (n {c := COUNT(*)}) MATCH (n:Person) OPTIONAL (n)-[:nosuch]->(m)`,
			func(t *testing.T, g *ppg.Graph) {
				cs := props(g, "c")
				if len(cs) != 30 {
					t.Fatalf("nodes = %d, want 30", len(cs))
				}
				for _, c := range cs {
					if !value.Equal(c, value.Int(0)) {
						t.Fatalf("c = %v, want 0", c)
					}
				}
			}},
		{"GROUP expression",
			`CONSTRUCT (x GROUP n.lastName :Family {name := n.lastName, size := COUNT(*)}) MATCH (n:Person)`,
			func(t *testing.T, g *ppg.Graph) {
				names, sizes := props(g, "name"), props(g, "size")
				if len(names) != len(lastNames) {
					t.Fatalf("families = %d, want %d", len(names), len(lastNames))
				}
				total := int64(0)
				for i, n := range names {
					if i > 0 && value.Compare(names[i-1], n) >= 0 {
						t.Errorf("families out of key order: %v", names)
					}
					s, _ := sizes[i].AsInt()
					total += s
				}
				if total != 30 {
					t.Errorf("family sizes sum to %d, want 30", total)
				}
			}},
		{"ungrouped rows with separator-like strings",
			`CONSTRUCT (r :Row {x := x}) FROM adv`,
			func(t *testing.T, g *ppg.Graph) {
				// Identifiers follow the typed row order (x, then y);
				// separator bytes inside a string are plain bytes.
				want := []value.Value{value.Str("2:ab"), value.Str("?"), value.Str("a"), value.Str("a|b")}
				got := props(g, "x")
				if len(got) != len(want) {
					t.Fatalf("rows = %v, want %v", got, want)
				}
				for i := range want {
					if !value.Equal(got[i], want[i]) {
						t.Fatalf("identifier order = %v, want %v", got, want)
					}
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stmt, err := parser.Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ev.EvalStatement(stmt)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatal(err)
			}
			tc.check(t, res.Graph)
		})
	}
}

// CONSTRUCT corner cases beyond the guided tour.

func TestConstructSharedVariablesAcrossItems(t *testing.T) {
	ev := newToy(t)
	// The same unbound variable in several comma-separated patterns
	// denotes the same identities (§3: "to connect newly created
	// graph elements").
	g := run(t, ev, `CONSTRUCT (hub GROUP 1 :Hub), (hub)-[:links]->(n)
MATCH (n:Person)`).Graph
	hubs := 0
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if n.Labels.Has("Hub") {
			hubs++
		}
	}
	if hubs != 1 {
		t.Fatalf("hubs = %d, want exactly 1 (shared identity)", hubs)
	}
	if got := len(edgesWithLabel(g, "links")); got != 5 {
		t.Errorf("links = %d, want 5", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConstructUnboundWithoutGroupIsPerBinding(t *testing.T) {
	ev := newToy(t)
	// Without GROUP, an unbound node is created per binding (§3: the
	// "company node for each binding" caveat).
	g := run(t, ev, `CONSTRUCT (x :Thing)
MATCH (n:Person)`).Graph
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5 (one per binding)", g.NumNodes())
	}
}

func TestConstructAnonymousNodes(t *testing.T) {
	ev := newToy(t)
	// Each anonymous () is independent: two anonymous constructs per
	// binding give two nodes per binding.
	g := run(t, ev, `CONSTRUCT ()-[:pair]->()
MATCH (n:Person) WHERE n.firstName = 'John'`).Graph
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("graph = %v", g)
	}
}

func TestConstructEdgePropertiesAndSetRemove(t *testing.T) {
	ev := newToy(t)
	g := run(t, ev, `CONSTRUCT (n)-[e:tagged {w := 2}]->(m)
  SET e.k := n.firstName SET e:extra REMOVE n.employer
MATCH (n:Person)-[:knows]->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`).Graph
	es := edgesWithLabel(g, "tagged")
	if len(es) != 1 {
		t.Fatalf("edges = %d", len(es))
	}
	e := es[0]
	if !e.Labels.Has("extra") {
		t.Error("SET e:extra lost")
	}
	if !value.Equal(e.Props.Get("w").Scalarize(), value.Int(2)) {
		t.Errorf("w = %v", e.Props.Get("w"))
	}
	if !value.Equal(e.Props.Get("k").Scalarize(), value.Str("John")) {
		t.Errorf("k = %v", e.Props.Get("k"))
	}
	// REMOVE applies to the constructed copy of n, not the source.
	n, _ := g.Node(snb.John)
	if n.Props.Get("employer").Len() != 0 {
		t.Error("REMOVE n.employer failed on the result")
	}
	src, _ := gcoreSocial(t).Node(snb.John)
	if src.Props.Get("employer").Len() == 0 {
		t.Error("REMOVE must not mutate the source graph")
	}
}

func gcoreSocial(t *testing.T) *ppg.Graph {
	t.Helper()
	return snb.SocialGraph()
}

func TestConstructDoesNotMutateSource(t *testing.T) {
	cat := catalog.New()
	social := snb.SocialGraph()
	if err := cat.RegisterGraph(social); err != nil {
		t.Fatal(err)
	}
	ev := core.New(cat)
	stmt, err := parser.Parse(`CONSTRUCT (n :Mutant) SET n.firstName := 'X'
MATCH (n:Person)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvalStatement(stmt); err != nil {
		t.Fatal(err)
	}
	// G-CORE is a query language, not an update language (§3).
	n, _ := social.Node(snb.John)
	if n.Labels.Has("Mutant") {
		t.Error("construct mutated source labels")
	}
	if !value.Equal(n.Props.Get("firstName").Scalarize(), value.Str("John")) {
		t.Error("construct mutated source properties")
	}
}

func TestConstructStoredPathIdentityPreserved(t *testing.T) {
	ev := newToy(t)
	// Re-storing a matched stored path preserves its identity and
	// merges labels.
	g := run(t, ev, `CONSTRUCT (a)-/@p:verified/->(b)
MATCH (a)-/@p:toWagner/->(b) ON example_graph`).Graph
	if g.NumPaths() != 1 {
		t.Fatalf("paths = %d", g.NumPaths())
	}
	p, ok := g.Path(snb.Fig2ToWagner)
	if !ok {
		t.Fatal("stored path identity lost")
	}
	if !p.Labels.Has("toWagner") || !p.Labels.Has("verified") {
		t.Errorf("labels = %v", p.Labels)
	}
	// Properties survive too.
	if !value.Equal(p.Props.Get("trust").Scalarize(), value.Float(0.95)) {
		t.Errorf("trust = %v", p.Props.Get("trust"))
	}
}

func TestConstructProjectionOfStoredPath(t *testing.T) {
	ev := newToy(t)
	// -/p/-> without @ projects constituents only: no path object.
	g := run(t, ev, `CONSTRUCT (a)-/p/->(b)
MATCH (a)-/@p:toWagner/->(b) ON example_graph`).Graph
	if g.NumPaths() != 0 {
		t.Error("projection must not store paths")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("projection = %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConstructWhenDropsNodesAndDependents(t *testing.T) {
	ev := newToy(t)
	// Drop all persons whose group is smaller than 2; edges between
	// dropped nodes vanish too — never dangling.
	g := run(t, ev, `CONSTRUCT (n {deg := COUNT(*)})-[:peer]->(m) WHEN n.deg >= 2
MATCH (n:Person)-[:knows]->(m:Person)`).Graph
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-degrees: John 2, Peter 3, others 1. Only John and Peter
	// survive as sources; m nodes group per binding... m is bound so
	// groups by identity with deg = in-degree.
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		if _, ok := g.Node(e.Src); !ok {
			t.Fatal("dangling edge after WHEN")
		}
		if _, ok := g.Node(e.Dst); !ok {
			t.Fatal("dangling edge after WHEN")
		}
	}
}

func TestConstructMultiValuedAssignment(t *testing.T) {
	ev := newToy(t)
	// Assigning a set value keeps it multi-valued.
	g := run(t, ev, `CONSTRUCT (=n :Copy {jobs := n.employer})
MATCH (n:Person) WHERE n.firstName = 'Frank'`).Graph
	n, _ := g.Node(g.NodeIDs()[0])
	if n.Props.Get("jobs").Len() != 2 {
		t.Errorf("jobs = %v, want the two-element set", n.Props.Get("jobs"))
	}
}

func TestConstructFromIntersectAndMinusResults(t *testing.T) {
	ev := newToy(t)
	// Set-operation results are ordinary graphs: re-query them by
	// nesting in ON.
	g := run(t, ev, `CONSTRUCT (n)
MATCH (n) ON (
  CONSTRUCT (n) MATCH (n:Person)
  MINUS
  CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'John'
)`).Graph
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", g.NumNodes())
	}
}

func TestConstructEdgeBetweenGroupedNodes(t *testing.T) {
	ev := newToy(t)
	// Edges between two GROUP-ed unbound nodes: one edge per pair of
	// group keys.
	g := run(t, ev, `CONSTRUCT (a GROUP e1 :L {v:=e1})-[:rel]->(b GROUP e2 :R {v:=e2})
MATCH (n:Person {employer=e1}), (m:Person {employer=e2})
WHERE n.firstName = 'Frank'`).Graph
	// e1 ∈ {CWI, MIT}; e2 ∈ {Acme(×2), HAL, CWI, MIT} → 2 × 4 pairs.
	if got := len(edgesWithLabel(g, "rel")); got != 8 {
		t.Fatalf("rel edges = %d, want 8", got)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConstructAlwaysValid: any construct over random generated
// graphs yields a valid PPG (no dangling edges, well-formed paths).
func TestQuickConstructAlwaysValid(t *testing.T) {
	queries := []string{
		`CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person)`,
		`CONSTRUCT (x GROUP e :C {name:=e})<-[:w]-(n) MATCH (n:Person {employer=e})`,
		`CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
		`CONSTRUCT (n)-/q/->(m) MATCH (n:Person)-/ALL q<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
		`CONSTRUCT (n {deg := COUNT(*)}) WHEN n.deg > 1 MATCH (n:Person)-[:knows]->()`,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cat := catalog.New()
		social := snb.Generate(snb.Config{Persons: 10 + r.Intn(20), Seed: seed}, cat.IDs())
		if err := cat.RegisterGraph(social.Social); err != nil {
			return false
		}
		ev := core.New(cat)
		for _, q := range queries {
			stmt, err := parser.Parse(q)
			if err != nil {
				t.Logf("parse %s: %v", q, err)
				return false
			}
			res, err := ev.EvalStatement(stmt)
			if err != nil {
				t.Logf("eval %s: %v", q, err)
				return false
			}
			if err := res.Graph.Validate(); err != nil {
				t.Logf("invariant violated by %s: %v", q, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestQuickWherePermutationEquivalence: predicate pushdown must be
// order-insensitive — permuting the conjuncts of WHERE (which changes
// what gets pushed where) cannot change the result.
func TestQuickWherePermutationEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		cat := catalog.New()
		social := snb.Generate(snb.Config{Persons: 15, Seed: seed}, cat.IDs())
		if err := cat.RegisterGraph(social.Social); err != nil {
			return false
		}
		ev := core.New(cat)
		q1 := `SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:knows]->(m:Person)
WHERE n.anchor = TRUE AND size(m.employer) > 0 ORDER BY a, b`
		q2 := `SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:knows]->(m:Person)
WHERE size(m.employer) > 0 AND n.anchor = TRUE ORDER BY a, b`
		run := func(src string) string {
			stmt, err := parser.Parse(src)
			if err != nil {
				return "parse error"
			}
			res, err := ev.EvalStatement(stmt)
			if err != nil {
				return "eval error"
			}
			return res.Table.String()
		}
		return run(q1) == run(q2) && run(q1) != "eval error"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMatchEquivalentToBruteForce cross-checks the pattern matcher
// against a brute-force enumerator for a 2-node pattern on random
// graphs.
func TestMatchEquivalentToBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		cat := catalog.New()
		ds := snb.Generate(snb.Config{Persons: 12, Seed: seed}, cat.IDs())
		g := ds.Social
		if err := cat.RegisterGraph(g); err != nil {
			return false
		}
		ev := core.New(cat)
		stmt, err := parser.Parse(fmt.Sprintf(
			`SELECT id(n) AS a, id(m) AS b MATCH (n:Person)-[:knows]->(m:Person) ON %s ORDER BY a, b`, g.Name()))
		if err != nil {
			return false
		}
		res, err := ev.EvalStatement(stmt)
		if err != nil {
			return false
		}
		// Brute force over all edges.
		want := 0
		for _, eid := range g.EdgeIDs() {
			e, _ := g.Edge(eid)
			src, _ := g.Node(e.Src)
			dst, _ := g.Node(e.Dst)
			if e.Labels.Has("knows") && src.Labels.Has("Person") && dst.Labels.Has("Person") {
				want++
			}
		}
		return res.Table.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCrossSortCopyForms(t *testing.T) {
	ev := newToy(t)
	// §3: the copy syntax can copy all labels and properties of a
	// node onto an edge and vice versa.
	g := run(t, ev, `CONSTRUCT (n)-[=m]->(m)
MATCH (n:Person)-[:knows]->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`).Graph
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	e, _ := g.Edge(g.EdgeIDs()[0])
	if !e.Labels.Has("Person") {
		t.Errorf("edge labels = %v, want the node's Person label copied", e.Labels)
	}
	if !value.Equal(e.Props.Get("firstName").Scalarize(), value.Str("Peter")) {
		t.Errorf("edge firstName = %v", e.Props.Get("firstName"))
	}

	// Edge → node copy.
	g2 := run(t, ev, `CONSTRUCT (=e :FromEdge)
MATCH (n:Person)-[e:knows]->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`).Graph
	n2, _ := g2.Node(g2.NodeIDs()[0])
	if !n2.Labels.Has("knows") || !n2.Labels.Has("FromEdge") {
		t.Errorf("node labels = %v, want the edge's knows label copied", n2.Labels)
	}

	// Path → node copy.
	g3 := run(t, ev, `CONSTRUCT (=p :FromPath)
MATCH ()-/@p:toWagner/->() ON example_graph`).Graph
	n3, _ := g3.Node(g3.NodeIDs()[0])
	if !n3.Labels.Has("toWagner") {
		t.Errorf("node labels = %v, want the path's toWagner label copied", n3.Labels)
	}
	if !value.Equal(n3.Props.Get("trust").Scalarize(), value.Float(0.95)) {
		t.Errorf("trust = %v", n3.Props.Get("trust"))
	}
}

// TestConstructRejectsForgedWalk: CONSTRUCT checks every path it
// stores or projects against the source snapshot's edge endpoints. A
// stored path whose second edge does not join its second and third
// nodes — forged past AddPath's check — is refused with an error that
// names the path, whether the path is stored or only projected.
func TestConstructRejectsForgedWalk(t *testing.T) {
	nodes := []*ppg.Node{{ID: 1}, {ID: 2}, {ID: 3}}
	edges := []*ppg.Edge{{ID: 10, Src: 1, Dst: 2}, {ID: 11, Src: 1, Dst: 3}}
	forged := &ppg.Path{ID: 77, Nodes: []ppg.NodeID{1, 2, 3}, Edges: []ppg.EdgeID{10, 11}}
	g := ppg.Assemble("forged", nodes, edges, []*ppg.Path{forged})
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepts the forged path")
	}
	cat := catalog.New()
	if err := cat.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	ev := core.New(cat)
	for _, q := range []string{
		`CONSTRUCT (n)-/@p/->(m) MATCH (n)-/@p/->(m) ON forged`,
		`CONSTRUCT (n)-/p/->(m) MATCH (n)-/@p/->(m) ON forged`,
	} {
		stmt, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ev.EvalStatement(stmt)
		if err == nil || !strings.Contains(err.Error(), "path #77") || !strings.Contains(err.Error(), "edge #11") {
			t.Fatalf("%s: got error %v, want one naming path #77 and edge #11", q, err)
		}
	}
}
