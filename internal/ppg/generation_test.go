package ppg

import (
	"reflect"
	"testing"
)

// genGraph builds a base graph for the mutator table: two labelled
// nodes, one edge, one stored path.
func genGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("gen")
	if err := g.AddNode(&Node{ID: 1, Labels: NewLabels("A")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{ID: 2, Labels: NewLabels("B")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&Edge{ID: 10, Src: 1, Dst: 2, Labels: NewLabels("e")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPath(&Path{ID: 20, Nodes: []NodeID{1, 2}, Edges: []EdgeID{10}}); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEveryMutatorBumpsGeneration walks every structural mutator and
// checks that each successful call advances the generation — the
// invariant the snapshot cache invalidation rests on.
func TestEveryMutatorBumpsGeneration(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(g *Graph) error
	}{
		{"AddNode", func(g *Graph) error { return g.AddNode(&Node{ID: 3, Labels: NewLabels("C")}) }},
		{"AddEdge", func(g *Graph) error { return g.AddEdge(&Edge{ID: 11, Src: 2, Dst: 1}) }},
		{"SetNodeLabels", func(g *Graph) error { return g.SetNodeLabels(1, NewLabels("A", "X")) }},
		{"SetEdgeLabels", func(g *Graph) error { return g.SetEdgeLabels(10, NewLabels("f")) }},
		{"AddPath", func(g *Graph) error { return g.AddPath(&Path{ID: 21, Nodes: []NodeID{2, 1}, Edges: []EdgeID{10}}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := genGraph(t)
			before := g.Generation()
			if err := tc.mutate(g); err != nil {
				t.Fatal(err)
			}
			if g.Generation() == before {
				t.Fatalf("%s did not bump the generation (still %d)", tc.name, before)
			}
		})
	}
}

// TestFailedMutationKeepsGeneration: rejected mutations change nothing
// and must not invalidate a valid snapshot.
func TestFailedMutationKeepsGeneration(t *testing.T) {
	g := genGraph(t)
	before := g.Generation()
	if err := g.AddNode(&Node{ID: 1}); err == nil {
		t.Fatal("duplicate AddNode accepted")
	}
	if err := g.AddEdge(&Edge{ID: 99, Src: 1, Dst: 404}); err == nil {
		t.Fatal("dangling AddEdge accepted")
	}
	if err := g.SetNodeLabels(404, nil); err == nil {
		t.Fatal("SetNodeLabels on a missing node accepted")
	}
	if g.Generation() != before {
		t.Fatalf("failed mutations moved the generation from %d to %d", before, g.Generation())
	}
}

// TestSnapshotCacheNeverServesStale drives the cache through the full
// mutate/rebuild cycle for every mutator.
func TestSnapshotCacheNeverServesStale(t *testing.T) {
	builds := 0
	build := func() any { builds++; return builds }

	g := genGraph(t)
	v1 := g.Snapshot(build)
	if v2 := g.Snapshot(build); v2 != v1 {
		t.Fatal("cache rebuilt without a mutation")
	}
	mutators := []func() error{
		func() error { return g.AddNode(&Node{ID: 5}) },
		func() error { return g.AddEdge(&Edge{ID: 12, Src: 5, Dst: 1}) },
		func() error { return g.SetNodeLabels(5, NewLabels("Z")) },
		func() error { return g.SetEdgeLabels(12, NewLabels("z")) },
		func() error { return g.AddPath(&Path{ID: 22, Nodes: []NodeID{5, 1}, Edges: []EdgeID{12}}) },
	}
	prev := v1
	for i, m := range mutators {
		if err := m(); err != nil {
			t.Fatalf("mutator %d: %v", i, err)
		}
		next := g.Snapshot(build)
		if next == prev {
			t.Fatalf("mutator %d: stale snapshot served after mutation", i)
		}
		if again := g.Snapshot(build); again != next {
			t.Fatalf("mutator %d: cache did not stabilise", i)
		}
		prev = next
	}
}

// TestCloneSnapshotIndependence: a clone has its own generation and
// snapshot cache; mutating either side never invalidates (or corrupts)
// the other's snapshot.
func TestCloneSnapshotIndependence(t *testing.T) {
	g := genGraph(t)
	gSnap := g.Snapshot(func() any { return "g1" })

	cp := g.Clone()
	cpSnap := cp.Snapshot(func() any { return "cp1" })
	if cpSnap == gSnap {
		t.Fatal("clone shares the snapshot cache with the original")
	}

	if err := cp.AddNode(&Node{ID: 30}); err != nil {
		t.Fatal(err)
	}
	if got := g.Snapshot(func() any { return "g2" }); got != gSnap {
		t.Fatal("mutating the clone invalidated the original's snapshot")
	}
	if got := cp.Snapshot(func() any { return "cp2" }); got != "cp2" {
		t.Fatal("mutating the clone did not invalidate the clone's snapshot")
	}

	if err := g.AddNode(&Node{ID: 31}); err != nil {
		t.Fatal(err)
	}
	if got := cp.Snapshot(func() any { return "cp3" }); got != "cp2" {
		t.Fatal("mutating the original invalidated the clone's snapshot")
	}
}

// TestIndexAccessorsReturnCopies is the slice-aliasing regression
// test: mutating a returned slice must not change what the graph
// reports next.
func TestIndexAccessorsReturnCopies(t *testing.T) {
	g := genGraph(t)

	byNodeLabel := g.NodesWithLabel("A")
	byEdgeLabel := g.EdgesWithLabel("e")
	for i := range byEdgeLabel {
		byEdgeLabel[i] = 0xDEAD
	}
	for i := range byNodeLabel {
		byNodeLabel[i] = 0xDEAD
	}

	if err := g.Validate(); err != nil {
		t.Fatalf("caller mutation corrupted the graph: %v", err)
	}
	if got := g.NodesWithLabel("A"); !reflect.DeepEqual(got, []NodeID{1}) {
		t.Fatalf("NodesWithLabel(A) = %v after caller mutation", got)
	}
	if got := g.EdgesWithLabel("e"); !reflect.DeepEqual(got, []EdgeID{10}) {
		t.Fatalf("EdgesWithLabel(e) = %v after caller mutation", got)
	}
	// Absent labels still read as nil (no empty-slice allocation).
	if got := g.NodesWithLabel("Absent"); got != nil {
		t.Fatalf("NodesWithLabel(Absent) = %v, want nil", got)
	}
}
