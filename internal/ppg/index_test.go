package ppg

import (
	"reflect"
	"testing"
)

// checkIndexes holds NodesWithLabel and EdgesWithLabel to a
// from-scratch rebuild of the label buckets, and runs Validate.
func checkIndexes(t *testing.T, g *Graph) {
	t.Helper()
	wantNodes := map[string][]NodeID{}
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		for _, l := range n.Labels {
			wantNodes[l] = append(wantNodes[l], id)
		}
	}
	for l, want := range wantNodes {
		if got := g.NodesWithLabel(l); !reflect.DeepEqual(got, want) {
			t.Errorf("NodesWithLabel(%q) = %v, want %v", l, got, want)
		}
	}
	wantEdges := map[string][]EdgeID{}
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		for _, l := range e.Labels {
			wantEdges[l] = append(wantEdges[l], id)
		}
	}
	for l, want := range wantEdges {
		if got := g.EdgesWithLabel(l); !reflect.DeepEqual(got, want) {
			t.Errorf("EdgesWithLabel(%q) = %v, want %v", l, got, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestLabelIndexMaintained(t *testing.T) {
	g := buildExampleGraph(t)
	checkIndexes(t, g)

	if got := g.NodesWithLabel("Person"); !reflect.DeepEqual(got, []NodeID{102, 103, 104, 105}) {
		t.Errorf("NodesWithLabel(Person) = %v", got)
	}
	if got := g.EdgesWithLabel("knows"); !reflect.DeepEqual(got, []EdgeID{202, 203, 205, 207}) {
		t.Errorf("EdgesWithLabel(knows) = %v", got)
	}
	if got := g.NodesWithLabel("Absent"); got != nil {
		t.Errorf("NodesWithLabel(Absent) = %v, want nil", got)
	}

	// Out-of-order inserts must keep buckets sorted.
	if err := g.AddNode(&Node{ID: 90, Labels: NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	if got := g.NodesWithLabel("Person"); !reflect.DeepEqual(got, []NodeID{90, 102, 103, 104, 105}) {
		t.Errorf("after low-ID insert: %v", got)
	}
	checkIndexes(t, g)
}

func TestLabelIndexSetLabels(t *testing.T) {
	g := buildExampleGraph(t)
	if err := g.SetNodeLabels(104, NewLabels("Person", "Manager")); err != nil {
		t.Fatal(err)
	}
	if got := g.NodesWithLabel("Manager"); !reflect.DeepEqual(got, []NodeID{102, 104}) {
		t.Errorf("NodesWithLabel(Manager) = %v", got)
	}
	// Dropping the only Tag node must delete the bucket entirely.
	if err := g.SetNodeLabels(101, NewLabels("Topic")); err != nil {
		t.Fatal(err)
	}
	if got := g.NodesWithLabel("Tag"); got != nil {
		t.Errorf("NodesWithLabel(Tag) after relabel = %v, want nil", got)
	}
	if got := g.NodesWithLabel("Topic"); !reflect.DeepEqual(got, []NodeID{101}) {
		t.Errorf("NodesWithLabel(Topic) = %v", got)
	}
	if err := g.SetEdgeLabels(203, NewLabels("follows")); err != nil {
		t.Fatal(err)
	}
	if got := g.EdgesWithLabel("knows"); !reflect.DeepEqual(got, []EdgeID{202, 205, 207}) {
		t.Errorf("EdgesWithLabel(knows) = %v", got)
	}
	checkIndexes(t, g)

	if err := g.SetNodeLabels(999, NewLabels("X")); err == nil {
		t.Error("SetNodeLabels on absent node should fail")
	}
	if err := g.SetEdgeLabels(999, NewLabels("X")); err == nil {
		t.Error("SetEdgeLabels on absent edge should fail")
	}
}

func TestLabelIndexCloneAndSetOps(t *testing.T) {
	g := buildExampleGraph(t)
	c := g.Clone()
	checkIndexes(t, c)
	// Relabelling the clone must not reach the original.
	if err := c.SetNodeLabels(104, NewLabels("Robot")); err != nil {
		t.Fatal(err)
	}
	if got := g.NodesWithLabel("Person"); !reflect.DeepEqual(got, []NodeID{102, 103, 104, 105}) {
		t.Errorf("original index changed by clone mutation: %v", got)
	}
	checkIndexes(t, g)

	h := New("other")
	if err := h.AddNode(&Node{ID: 104, Labels: NewLabels("Person", "Admin")}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddNode(&Node{ID: 500, Labels: NewLabels("City")}); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge(&Edge{ID: 600, Src: 104, Dst: 500, Labels: NewLabels("isLocatedIn")}); err != nil {
		t.Fatal(err)
	}

	u := Union("u", g, h)
	checkIndexes(t, u)
	if got := u.NodesWithLabel("Admin"); !reflect.DeepEqual(got, []NodeID{104}) {
		t.Errorf("union NodesWithLabel(Admin) = %v", got)
	}
	checkIndexes(t, Intersect("i", g, h))
	m := Minus("m", g, h)
	checkIndexes(t, m)
	if got := m.NodesWithLabel("Person"); !reflect.DeepEqual(got, []NodeID{102, 103, 105}) {
		t.Errorf("minus NodesWithLabel(Person) = %v", got)
	}
}

// adjacency returns, per node, the ascending identifiers of its out-
// and in-edges, computed from the edge set.
func adjacency(g *Graph) (out, in map[NodeID][]EdgeID) {
	out, in = map[NodeID][]EdgeID{}, map[NodeID][]EdgeID{}
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		out[e.Src] = append(out[e.Src], id)
		in[e.Dst] = append(in[e.Dst], id)
	}
	return out, in
}
