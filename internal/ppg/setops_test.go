package ppg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcore/internal/value"
)

// twoOverlappingGraphs builds graphs sharing node 1 and edge 10.
func twoOverlappingGraphs(t *testing.T) (*Graph, *Graph) {
	t.Helper()
	g1 := New("g1")
	if err := g1.AddNode(&Node{ID: 1, Labels: NewLabels("A"), Props: NewProperties(map[string]value.Value{"k": value.Int(1)})}); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddNode(&Node{ID: 2, Labels: NewLabels("B")}); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddEdge(&Edge{ID: 10, Src: 1, Dst: 2, Labels: NewLabels("e")}); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddPath(&Path{ID: 20, Nodes: []NodeID{1, 2}, Edges: []EdgeID{10}, Labels: NewLabels("p")}); err != nil {
		t.Fatal(err)
	}

	g2 := New("g2")
	if err := g2.AddNode(&Node{ID: 1, Labels: NewLabels("A", "C"), Props: NewProperties(map[string]value.Value{"k": value.Set(value.Int(1), value.Int(2))})}); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddNode(&Node{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddNode(&Node{ID: 3, Labels: NewLabels("D")}); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddEdge(&Edge{ID: 10, Src: 1, Dst: 2, Labels: NewLabels("e", "f")}); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddEdge(&Edge{ID: 11, Src: 2, Dst: 3}); err != nil {
		t.Fatal(err)
	}
	return g1, g2
}

func TestUnion(t *testing.T) {
	g1, g2 := twoOverlappingGraphs(t)
	u := Union("u", g1, g2)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 3 || u.NumEdges() != 2 || u.NumPaths() != 1 {
		t.Fatalf("union cardinalities %d/%d/%d", u.NumNodes(), u.NumEdges(), u.NumPaths())
	}
	n, _ := u.Node(1)
	if !n.Labels.Has("A") || !n.Labels.Has("C") {
		t.Errorf("union labels = %v", n.Labels)
	}
	// σ union: {1} ∪ {1,2} = {1,2}.
	if n.Props.Get("k").Len() != 2 {
		t.Errorf("union property = %v", n.Props.Get("k"))
	}
	e, _ := u.Edge(10)
	if !e.Labels.Has("e") || !e.Labels.Has("f") {
		t.Errorf("union edge labels = %v", e.Labels)
	}
}

func TestIntersect(t *testing.T) {
	g1, g2 := twoOverlappingGraphs(t)
	i := Intersect("i", g1, g2)
	if err := i.Validate(); err != nil {
		t.Fatal(err)
	}
	if i.NumNodes() != 2 || i.NumEdges() != 1 || i.NumPaths() != 0 {
		t.Fatalf("intersection cardinalities %d/%d/%d", i.NumNodes(), i.NumEdges(), i.NumPaths())
	}
	n, _ := i.Node(1)
	if !n.Labels.Equal(NewLabels("A")) {
		t.Errorf("intersect labels = %v", n.Labels)
	}
	// σ intersect: {1} ∩ {1,2} = {1}.
	if !value.Equal(n.Props.Get("k"), value.Set(value.Int(1))) {
		t.Errorf("intersect property = %v", n.Props.Get("k"))
	}
	e, _ := i.Edge(10)
	if !e.Labels.Equal(NewLabels("e")) {
		t.Errorf("intersect edge labels = %v", e.Labels)
	}
}

func TestMinus(t *testing.T) {
	g1, g2 := twoOverlappingGraphs(t)
	// g2 ∖ g1 removes node 1, node 2 and edge 10; edge 11 survives
	// because both its endpoints (2 is removed!) — check precisely:
	// N = {3}; edge 11 = (2,3) loses endpoint 2, so it is pruned.
	d := Minus("d", g2, g1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 1 || d.NumEdges() != 0 {
		t.Fatalf("difference cardinalities %d/%d", d.NumNodes(), d.NumEdges())
	}
	if _, ok := d.Node(3); !ok {
		t.Error("node 3 must survive g2 ∖ g1")
	}
	// g1 ∖ g2: all of g1's identities are shared except path 20, whose
	// constituents are gone, so the result is empty.
	d2 := Minus("d2", g1, g2)
	if !d2.IsEmpty() || d2.NumPaths() != 0 {
		t.Errorf("g1 ∖ g2 should be empty, got %v", d2)
	}
}

func TestMinusKeepsValidPaths(t *testing.T) {
	g1, _ := twoOverlappingGraphs(t)
	empty := New("e")
	d := Minus("d", g1, empty)
	if d.NumPaths() != 1 {
		t.Error("difference with empty graph must keep paths")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInconsistentGraphs(t *testing.T) {
	g1 := New("g1")
	if err := g1.AddNode(&Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddNode(&Node{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddEdge(&Edge{ID: 10, Src: 1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	g2 := New("g2")
	if err := g2.AddNode(&Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddNode(&Node{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddEdge(&Edge{ID: 10, Src: 2, Dst: 1}); err != nil { // ρ disagrees
		t.Fatal(err)
	}
	if Consistent(g1, g2) {
		t.Fatal("graphs disagreeing on ρ(10) are inconsistent")
	}
	if u := Union("u", g1, g2); !u.IsEmpty() {
		t.Error("union of inconsistent graphs must be the empty PPG")
	}
	if i := Intersect("i", g1, g2); !i.IsEmpty() {
		t.Error("intersection of inconsistent graphs must be the empty PPG")
	}

	// Path inconsistency: same id, different δ.
	g3 := New("g3")
	for _, n := range []NodeID{1, 2} {
		if err := g3.AddNode(&Node{ID: n}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g3.AddEdge(&Edge{ID: 10, Src: 1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g3.AddPath(&Path{ID: 30, Nodes: []NodeID{1, 2}, Edges: []EdgeID{10}}); err != nil {
		t.Fatal(err)
	}
	g4 := g3.Clone()
	p, _ := g4.Path(30)
	p.Nodes = []NodeID{2, 1} // same edge walked backwards: different δ
	if Consistent(g3, g4) {
		t.Error("graphs disagreeing on δ(30) are inconsistent")
	}
}

// randomGraph builds a small random graph over a shared identifier
// space so that set-op laws can be property-tested.
func randomGraph(r *rand.Rand, name string) *Graph {
	g := New(name)
	labels := []string{"A", "B", "C"}
	for id := NodeID(1); id <= 8; id++ {
		if r.Intn(2) == 0 {
			n := &Node{ID: id, Labels: NewLabels(labels[r.Intn(3)])}
			n.Props = NewProperties(map[string]value.Value{"v": value.Int(int64(r.Intn(3)))})
			if err := g.AddNode(n); err != nil {
				panic(err)
			}
		}
	}
	// Edge identity determines endpoints globally: derive src/dst from
	// the edge id so any two random graphs are consistent by design.
	for id := EdgeID(100); id < 130; id++ {
		src := NodeID(uint64(id)%8 + 1)
		dst := NodeID((uint64(id)/8)%8 + 1)
		if _, ok := g.Node(src); !ok {
			continue
		}
		if _, ok := g.Node(dst); !ok {
			continue
		}
		if r.Intn(2) == 0 {
			if err := g.AddEdge(&Edge{ID: id, Src: src, Dst: dst, Labels: NewLabels(labels[r.Intn(3)])}); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func sameGraph(a, b *Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() || a.NumPaths() != b.NumPaths() {
		return false
	}
	for _, id := range a.NodeIDs() {
		na, _ := a.Node(id)
		nb, ok := b.Node(id)
		if !ok || !na.Labels.Equal(nb.Labels) || !na.Props.Equal(nb.Props) {
			return false
		}
	}
	for _, id := range a.EdgeIDs() {
		ea, _ := a.Edge(id)
		eb, ok := b.Edge(id)
		if !ok || ea.Src != eb.Src || ea.Dst != eb.Dst || !ea.Labels.Equal(eb.Labels) || !ea.Props.Equal(eb.Props) {
			return false
		}
	}
	return true
}

func TestQuickSetOpLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r, "g1")
		g2 := randomGraph(r, "g2")

		u12 := Union("u", g1, g2)
		u21 := Union("u", g2, g1)
		if !sameGraph(u12, u21) { // commutativity
			return false
		}
		if !sameGraph(Union("u", g1, g1), g1) { // idempotence
			return false
		}
		i12 := Intersect("i", g1, g2)
		if !sameGraph(i12, Intersect("i", g2, g1)) {
			return false
		}
		if !sameGraph(Intersect("i", g1, g1), g1) {
			return false
		}
		// Difference never leaves dangling edges, and G ∖ G = ∅.
		d := Minus("d", g1, g2)
		if d.Validate() != nil || u12.Validate() != nil || i12.Validate() != nil {
			return false
		}
		if dd := Minus("dd", g1, g1); !dd.IsEmpty() || dd.NumEdges() != 0 {
			return false
		}
		// Intersection is contained in union.
		for _, id := range i12.NodeIDs() {
			if _, ok := u12.Node(id); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionAssociative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1 := randomGraph(r, "g1")
		g2 := randomGraph(r, "g2")
		g3 := randomGraph(r, "g3")
		l := Union("x", Union("x", g1, g2), g3)
		rr := Union("x", g1, Union("x", g2, g3))
		return sameGraph(l, rr)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSetOpsShareElements: the set operations insert an input's element
// object as it is unless they combine two different objects under one
// identifier, and a combination never writes either input.
func TestSetOpsShareElements(t *testing.T) {
	g1, g2 := twoOverlappingGraphs(t)
	n1, _ := g1.Node(1)
	n2, _ := g1.Node(2)
	n3, _ := g2.Node(3)
	e11, _ := g2.Edge(11)
	p20, _ := g1.Path(20)
	before1, before2 := render(t, g1), render(t, g2)

	u := Union("u", g1, g2)
	if got, _ := u.Node(3); got != n3 {
		t.Error("union copied a node only g2 holds")
	}
	if got, _ := u.Edge(11); got != e11 {
		t.Error("union copied an edge only g2 holds")
	}
	if got, _ := u.Path(20); got != p20 {
		t.Error("union copied a path only g1 holds")
	}
	if got, _ := u.Node(1); got == n1 {
		t.Error("union merged node 1 into g1's object")
	}
	if got, _ := Minus("m", g1, g2).Path(20); got != nil {
		t.Error("minus kept a path whose nodes it dropped")
	}
	if got, _ := Minus("m", g2, g1).Node(3); got != n3 {
		t.Error("minus copied a surviving node")
	}
	self := Intersect("i", g1, g1)
	if got, _ := self.Node(2); got != n2 {
		t.Error("intersect copied a node both sides hold as one object")
	}
	if got, _ := Intersect("i", g1, g2).Node(1); got == n1 {
		t.Error("intersect combined node 1 into g1's object")
	}
	if render(t, g1) != before1 || render(t, g2) != before2 {
		t.Error("a set operation wrote its input")
	}
}

// TestSettersReplaceElements: every Set* mutator stores a new element
// object and leaves the old one, which another graph may share, as it
// was.
func TestSettersReplaceElements(t *testing.T) {
	g1, _ := twoOverlappingGraphs(t)
	shared := Minus("shared", g1, New("empty"))
	before := render(t, shared)
	props := NewProperties(map[string]value.Value{"k": value.Int(9)})
	for _, err := range []error{
		g1.SetNodeLabels(1, NewLabels("Z")),
		g1.SetNodeProps(2, props),
		g1.SetEdgeLabels(10, NewLabels("z")),
		g1.SetEdgeProps(10, props),
		g1.SetPathProps(20, props),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if render(t, shared) != before {
		t.Fatalf("a setter wrote a shared element:\n%s\nwant\n%s", render(t, shared), before)
	}
	if n, _ := g1.Node(1); !n.Labels.Equal(NewLabels("Z")) {
		t.Errorf("SetNodeLabels not applied: %v", n.Labels)
	}
	if p, _ := g1.Path(20); !value.Equal(p.Props.Get("k"), value.Set(value.Int(9))) {
		t.Errorf("SetPathProps not applied: %v", p.Props)
	}
}

func render(t *testing.T, g *Graph) string {
	t.Helper()
	data, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
