package ppg

import (
	"strings"
	"testing"

	"gcore/internal/value"
)

// buildExampleGraph constructs the PPG of the paper's Figure 2 /
// Example 2.2: six nodes, seven edges and one stored path.
func buildExampleGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("example")
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add(g.AddNode(&Node{ID: 101, Labels: NewLabels("Tag"), Props: NewProperties(map[string]value.Value{"name": value.Str("Wagner")})}))
	add(g.AddNode(&Node{ID: 102, Labels: NewLabels("Person", "Manager")}))
	add(g.AddNode(&Node{ID: 103, Labels: NewLabels("Person")}))
	add(g.AddNode(&Node{ID: 104, Labels: NewLabels("Person")}))
	add(g.AddNode(&Node{ID: 105, Labels: NewLabels("Person")}))
	add(g.AddNode(&Node{ID: 106, Labels: NewLabels("City"), Props: NewProperties(map[string]value.Value{"name": value.Str("Houston")})}))

	since, err := value.ParseDate("1/12/2014")
	if err != nil {
		t.Fatal(err)
	}
	add(g.AddEdge(&Edge{ID: 201, Src: 102, Dst: 101, Labels: NewLabels("hasInterest")}))
	add(g.AddEdge(&Edge{ID: 202, Src: 103, Dst: 102, Labels: NewLabels("knows")}))
	add(g.AddEdge(&Edge{ID: 203, Src: 102, Dst: 103, Labels: NewLabels("knows")}))
	add(g.AddEdge(&Edge{ID: 204, Src: 102, Dst: 106, Labels: NewLabels("isLocatedIn")}))
	add(g.AddEdge(&Edge{ID: 205, Src: 103, Dst: 105, Labels: NewLabels("knows"), Props: NewProperties(map[string]value.Value{"since": since})}))
	add(g.AddEdge(&Edge{ID: 206, Src: 105, Dst: 106, Labels: NewLabels("isLocatedIn")}))
	add(g.AddEdge(&Edge{ID: 207, Src: 105, Dst: 103, Labels: NewLabels("knows")}))

	add(g.AddPath(&Path{
		ID:     301,
		Nodes:  []NodeID{105, 103, 102},
		Edges:  []EdgeID{207, 202},
		Labels: NewLabels("toWagner"),
		Props:  NewProperties(map[string]value.Value{"trust": value.Float(0.95)}),
	}))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLabels(t *testing.T) {
	ls := NewLabels("Person", "Manager", "Person")
	if len(ls) != 2 {
		t.Fatalf("NewLabels dedup failed: %v", ls)
	}
	if !ls.Has("Person") || ls.Has("Tag") {
		t.Error("Has misbehaves")
	}
	if !ls.Add("Tag").Has("Tag") {
		t.Error("Add failed")
	}
	if got := ls.Add("Person"); len(got) != 2 {
		t.Error("Add of existing label should not grow the set")
	}
	if ls.Remove("Manager").Has("Manager") {
		t.Error("Remove failed")
	}
	if got := ls.Remove("Absent"); !got.Equal(ls) {
		t.Error("Remove of absent label should be identity")
	}
	if got := NewLabels("a", "b").Union(NewLabels("b", "c")); len(got) != 3 {
		t.Errorf("Union = %v", got)
	}
	if got := NewLabels("a", "b").Intersect(NewLabels("b", "c")); len(got) != 1 || got[0] != "b" {
		t.Errorf("Intersect = %v", got)
	}
	if !NewLabels("x").Equal(NewLabels("x")) || NewLabels("x").Equal(NewLabels("y")) {
		t.Error("Equal misbehaves")
	}
}

func TestProperties(t *testing.T) {
	p := Properties{}
	p.Set("employer", value.Str("Acme"))
	got := p.Get("employer")
	if got.Kind() != value.KindSet || got.Len() != 1 {
		t.Fatalf("scalar property must normalise to singleton set, got %v", got)
	}
	p.Set("employer", value.Set(value.Str("CWI"), value.Str("MIT")))
	if p.Get("employer").Len() != 2 {
		t.Error("multi-valued set lost")
	}
	if !p.Get("missing").IsNull() && p.Get("missing").Len() != 0 {
		t.Error("absent property must be the empty set")
	}
	// Setting to empty set removes the property (σ(x,k) = ∅).
	p.Set("employer", value.EmptySet)
	if _, ok := p["employer"]; ok {
		t.Error("setting ∅ should remove the property")
	}
	p.Set("a", value.Int(1))
	p.Set("b", value.Int(2))
	keys := p.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	cl := p.Clone()
	cl.Set("a", value.Int(9))
	if value.Equal(p.Get("a"), cl.Get("a")) {
		t.Error("Clone must be independent")
	}
	if !p.Equal(NewProperties(map[string]value.Value{"a": value.Int(1), "b": value.Int(2)})) {
		t.Error("Equal failed")
	}
}

func TestExampleGraphShape(t *testing.T) {
	g := buildExampleGraph(t)
	if g.NumNodes() != 6 || g.NumEdges() != 7 || g.NumPaths() != 1 {
		t.Fatalf("example graph has %d/%d/%d elements", g.NumNodes(), g.NumEdges(), g.NumPaths())
	}
	p, ok := g.Path(301)
	if !ok {
		t.Fatal("path 301 missing")
	}
	// nodes(301) = [105, 103, 102] and edges(301) = [207, 202] — the
	// paper writes the node *set* {102,103,105} sorted; the list order
	// is traversal order.
	if p.Length() != 2 {
		t.Errorf("length(301) = %d", p.Length())
	}
	if p.Nodes[0] != 105 || p.Nodes[1] != 103 || p.Nodes[2] != 102 {
		t.Errorf("nodes(301) = %v", p.Nodes)
	}
	if p.Edges[0] != 207 || p.Edges[1] != 202 {
		t.Errorf("edges(301) = %v", p.Edges)
	}
	if e, _ := g.Edge(201); e.Src != 102 || e.Dst != 101 {
		t.Error("ρ(201) ≠ (102,101)")
	}
	ls, ok := g.LabelsOf(value.PathRef(301))
	if !ok || !ls.Has("toWagner") {
		t.Error("λ(301) must contain toWagner")
	}
	v, ok := g.PropOf(value.PathRef(301), "trust")
	if !ok || !value.Equal(v.Scalarize(), value.Float(0.95)) {
		t.Errorf("σ(301, trust) = %v", v)
	}
	if _, ok := g.LabelsOf(value.Int(3)); ok {
		t.Error("LabelsOf non-ref must fail")
	}
	if _, ok := g.PropOf(value.NodeRef(999), "x"); ok {
		t.Error("PropOf missing node must fail")
	}
}

func TestAdjacency(t *testing.T) {
	g := buildExampleGraph(t)
	outs, ins := adjacency(g)
	out := outs[102]
	if len(out) != 3 || out[0] != 201 || out[1] != 203 || out[2] != 204 {
		t.Errorf("out(102) = %v", out)
	}
	in := ins[106]
	if len(in) != 2 || in[0] != 204 || in[1] != 206 {
		t.Errorf("in(106) = %v", in)
	}
	if len(outs[101]) != 0 {
		t.Error("Tag node has no out-edges")
	}
}

func TestInsertionErrors(t *testing.T) {
	g := New("g")
	if err := g.AddNode(&Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{ID: 1}); err == nil {
		t.Error("duplicate node must fail")
	}
	if err := g.AddEdge(&Edge{ID: 2, Src: 1, Dst: 99}); err == nil {
		t.Error("dangling edge must fail")
	}
	if err := g.AddEdge(&Edge{ID: 2, Src: 99, Dst: 1}); err == nil {
		t.Error("dangling edge must fail")
	}
	if err := g.AddNode(&Node{ID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&Edge{ID: 4, Src: 1, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&Edge{ID: 4, Src: 1, Dst: 3}); err == nil {
		t.Error("duplicate edge must fail")
	}
	// Path validity: wrong arity, missing elements, non-adjacent edge.
	if err := g.AddPath(&Path{ID: 5, Nodes: []NodeID{1}, Edges: []EdgeID{4}}); err == nil {
		t.Error("path with wrong arity must fail")
	}
	if err := g.AddPath(&Path{ID: 5, Nodes: []NodeID{1, 99}, Edges: []EdgeID{4}}); err == nil {
		t.Error("path with missing node must fail")
	}
	if err := g.AddPath(&Path{ID: 5, Nodes: []NodeID{1, 3}, Edges: []EdgeID{99}}); err == nil {
		t.Error("path with missing edge must fail")
	}
	if err := g.AddNode(&Node{ID: 6}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPath(&Path{ID: 5, Nodes: []NodeID{1, 6}, Edges: []EdgeID{4}}); err == nil {
		t.Error("path with non-adjacent edge must fail")
	}
	// Edges may be traversed backwards inside a path (Definition 2.1,
	// condition 3: ρ(ej) = (aj,aj+1) or (aj+1,aj)).
	if err := g.AddPath(&Path{ID: 5, Nodes: []NodeID{3, 1}, Edges: []EdgeID{4}}); err != nil {
		t.Errorf("backward edge traversal must be legal: %v", err)
	}
	if err := g.AddPath(&Path{ID: 5, Nodes: []NodeID{3, 1}, Edges: []EdgeID{4}}); err == nil {
		t.Error("duplicate path must fail")
	}
	// Zero-length paths (n = 0) are legal.
	if err := g.AddPath(&Path{ID: 7, Nodes: []NodeID{1}}); err != nil {
		t.Errorf("zero-length path must be legal: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildExampleGraph(t)
	cp := g.Clone()
	n, _ := cp.Node(101)
	n.Props.Set("name", value.Str("Verdi"))
	orig, _ := g.Node(101)
	if value.Equal(orig.Props.Get("name"), n.Props.Get("name")) {
		t.Error("Clone must deep-copy properties")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	if cp.NumNodes() != g.NumNodes() || cp.NumEdges() != g.NumEdges() || cp.NumPaths() != g.NumPaths() {
		t.Error("Clone changed cardinalities")
	}
}

func TestStringAndEmpty(t *testing.T) {
	g := New("g")
	if !g.IsEmpty() {
		t.Error("new graph is empty")
	}
	if err := g.AddNode(&Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if g.IsEmpty() {
		t.Error("graph with a node is not empty")
	}
	if !strings.Contains(g.String(), "1 nodes") {
		t.Errorf("String() = %q", g.String())
	}
}

func TestIDGen(t *testing.T) {
	gen := NewIDGen(1000)
	a := gen.NextNode()
	b := gen.NextEdge()
	c := gen.NextPath()
	if uint64(a) != 1000 || uint64(b) != 1001 || uint64(c) != 1002 {
		t.Errorf("ids = %d, %d, %d", a, b, c)
	}
	gen.Reserve(5000)
	if d := gen.NextNode(); uint64(d) != 5001 {
		t.Errorf("after Reserve(5000), next = %d", d)
	}
	gen.Reserve(10) // no-op: already past
	if d := gen.NextNode(); uint64(d) != 5002 {
		t.Errorf("Reserve must never move backwards, next = %d", d)
	}
}
