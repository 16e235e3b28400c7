package snb

import (
	"reflect"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

func TestFig2GraphMatchesFormalization(t *testing.T) {
	g := Fig2Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Example 2.2: |N| = 6, |E| = 7, |P| = 1.
	if g.NumNodes() != 6 || g.NumEdges() != 7 || g.NumPaths() != 1 {
		t.Fatalf("cardinalities %d/%d/%d", g.NumNodes(), g.NumEdges(), g.NumPaths())
	}
	// ρ(201) = (102, 101), ρ(207) = (105, 103).
	e201, _ := g.Edge(201)
	if e201.Src != 102 || e201.Dst != 101 {
		t.Errorf("ρ(201) = (%d,%d)", e201.Src, e201.Dst)
	}
	e207, _ := g.Edge(207)
	if e207.Src != 105 || e207.Dst != 103 {
		t.Errorf("ρ(207) = (%d,%d)", e207.Src, e207.Dst)
	}
	// λ assignments from the example.
	n101, _ := g.Node(101)
	if !n101.Labels.Has("Tag") {
		t.Error("λ(101) must contain Tag")
	}
	n102, _ := g.Node(102)
	if !n102.Labels.Has("Person") || !n102.Labels.Has("Manager") {
		t.Error("λ(102) must be {Person, Manager}")
	}
	// σ assignments.
	if !value.Equal(n101.Props.Get("name").Scalarize(), value.Str("Wagner")) {
		t.Error("σ(101, name) must be Wagner")
	}
	e205, _ := g.Edge(205)
	since, _ := value.ParseDate("1/12/2014")
	if !value.Equal(e205.Props.Get("since").Scalarize(), since) {
		t.Errorf("σ(205, since) = %v", e205.Props.Get("since"))
	}
	// δ(301) = [105, 207, 103, 202, 102]; nodes(301) and edges(301).
	p, _ := g.Path(301)
	wantN := []ppg.NodeID{105, 103, 102}
	wantE := []ppg.EdgeID{207, 202}
	for i := range wantN {
		if p.Nodes[i] != wantN[i] {
			t.Fatalf("nodes(301) = %v", p.Nodes)
		}
	}
	for i := range wantE {
		if p.Edges[i] != wantE[i] {
			t.Fatalf("edges(301) = %v", p.Edges)
		}
	}
	if !p.Labels.Has("toWagner") {
		t.Error("λ(301) must contain toWagner")
	}
	if !value.Equal(p.Props.Get("trust").Scalarize(), value.Float(0.95)) {
		t.Errorf("σ(301, trust) = %v", p.Props.Get("trust"))
	}
}

func TestSocialGraphShape(t *testing.T) {
	g := SocialGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(g); err != nil {
		t.Fatal(err)
	}
	// Employer properties drive the §3 join examples.
	check := func(id ppg.NodeID, want value.Value) {
		t.Helper()
		n, _ := g.Node(id)
		got := n.Props.Get("employer")
		if want.IsNull() {
			if got.Len() != 0 {
				t.Errorf("node #%d should have no employer, has %v", id, got)
			}
			return
		}
		if !value.Equal(got.Scalarize(), want.Scalarize()) {
			t.Errorf("employer(#%d) = %v, want %v", id, got, want)
		}
	}
	check(John, value.Str("Acme"))
	check(Alice, value.Str("Acme"))
	check(Celine, value.Str("HAL"))
	check(Peter, value.Null)
	check(Frank, value.Set(value.Str("CWI"), value.Str("MIT")))

	// 8 directed knows edges (4 bi-directional pairs).
	knows := 0
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		if e.Labels.Has("knows") {
			knows++
		}
	}
	if knows != 8 {
		t.Errorf("knows edges = %d, want 8", knows)
	}
	// Message pairs: 2+3+1 pairs = 6 posts + 6 comments.
	posts, comments := 0, 0
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if n.Labels.Has("Post") {
			posts++
		}
		if n.Labels.Has("Comment") {
			comments++
		}
	}
	if posts != 6 || comments != 6 {
		t.Errorf("posts/comments = %d/%d, want 6/6", posts, comments)
	}
}

func TestCompanyGraph(t *testing.T) {
	g := CompanyGraph()
	if g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatalf("company graph = %v", g)
	}
	names := map[string]bool{}
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		s, _ := n.Props.Get("name").Scalarize().AsString()
		names[s] = true
		if !n.Labels.Has("Company") {
			t.Error("company node missing label")
		}
	}
	for _, want := range []string{"Acme", "HAL", "CWI", "MIT"} {
		if !names[want] {
			t.Errorf("company %s missing", want)
		}
	}
}

func TestGeneratorDeterministicAndConformant(t *testing.T) {
	gen1 := ppg.NewIDGen(1)
	ds1 := Generate(Config{Persons: 60, Seed: 7}, gen1)
	if err := ds1.Social.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(ds1.Social); err != nil {
		t.Fatal(err)
	}
	if len(ds1.Persons) != 60 {
		t.Fatalf("persons = %d", len(ds1.Persons))
	}
	// Determinism: same seed, same graph.
	gen2 := ppg.NewIDGen(1)
	ds2 := Generate(Config{Persons: 60, Seed: 7}, gen2)
	if ds1.Social.NumNodes() != ds2.Social.NumNodes() || ds1.Social.NumEdges() != ds2.Social.NumEdges() {
		t.Error("generator is not deterministic")
	}
	j1, err := ds1.Social.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := ds2.Social.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Error("generator output differs across runs with the same seed")
	}
	// Different seed, different layout.
	gen3 := ppg.NewIDGen(1)
	ds3 := Generate(Config{Persons: 60, Seed: 8}, gen3)
	j3, err := ds3.Social.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) == string(j3) {
		t.Error("different seeds should differ")
	}
	// Companion graph holds companies only.
	if ds1.Companies.NumNodes() == 0 {
		t.Error("no companies generated")
	}
}

// TestGeneratorSharesLabelSets: the generated graphs have a decoded
// graph's heap layout: the elements of one label share a Labels slice,
// and those without properties share one empty map.
func TestGeneratorSharesLabelSets(t *testing.T) {
	ds := Generate(Config{Persons: 60, Seed: 7}, ppg.NewIDGen(1))
	labels := map[string]*string{}
	var empty ppg.Properties
	check := func(what string, id uint64, ls ppg.Labels, p ppg.Properties) {
		if first, ok := labels[ls[0]]; ok && first != &ls[0] {
			t.Fatalf("%s #%d holds its own %v label set", what, id, ls)
		}
		labels[ls[0]] = &ls[0]
		if len(p) == 0 {
			if empty == nil {
				empty = p
			}
			if reflect.ValueOf(p).Pointer() != reflect.ValueOf(empty).Pointer() {
				t.Fatalf("%s #%d holds its own empty property map", what, id)
			}
		}
	}
	for _, n := range ds.Social.Nodes() {
		check("node", uint64(n.ID), n.Labels, n.Props)
	}
	for _, e := range ds.Social.Edges() {
		check("edge", uint64(e.ID), e.Labels, e.Props)
	}
	if empty == nil {
		t.Fatal("no element without properties")
	}
}

func TestGeneratorScalesConnectivity(t *testing.T) {
	gen := ppg.NewIDGen(1)
	ds := Generate(Config{Persons: 30, AvgKnows: 6, Seed: 3}, gen)
	knows := 0
	for _, id := range ds.Social.EdgeIDs() {
		e, _ := ds.Social.Edge(id)
		if e.Labels.Has("knows") {
			knows++
		}
	}
	// Ring (30 pairs) + chords ((6-2)*30/2 = 60 attempts, some dup):
	// at least the ring must exist.
	if knows < 60 {
		t.Errorf("knows edges = %d, want >= 60 (ring)", knows)
	}
}

func TestCheckSchemaRejectsViolations(t *testing.T) {
	g := ppg.New("bad")
	if err := g.AddNode(&ppg.Node{ID: 1, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&ppg.Node{ID: 2, Labels: ppg.NewLabels("Tag")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 3, Src: 2, Dst: 1, Labels: ppg.NewLabels("knows")}); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(g); err == nil {
		t.Error("Tag -knows-> Person must violate the schema")
	}
	// Unlabelled node.
	g2 := ppg.New("bad2")
	if err := g2.AddNode(&ppg.Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(g2); err == nil {
		t.Error("unlabelled node must violate the schema")
	}
	// Unknown edge label.
	g3 := ppg.New("bad3")
	if err := g3.AddNode(&ppg.Node{ID: 1, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	if err := g3.AddEdge(&ppg.Edge{ID: 2, Src: 1, Dst: 1, Labels: ppg.NewLabels("likes")}); err != nil {
		t.Fatal(err)
	}
	if err := CheckSchema(g3); err == nil {
		t.Error("unknown edge label must violate the schema")
	}
}

func TestOrdersRows(t *testing.T) {
	cols, rows := OrdersRows()
	if len(cols) != 2 || len(rows) != 5 {
		t.Fatalf("orders = %v, %d rows", cols, len(rows))
	}
}
