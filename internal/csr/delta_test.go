package csr

import (
	"fmt"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// snapKind primes or refreshes g's cached snapshot through OfCounted
// and reports how it was obtained.
func snapKind(t *testing.T, g *ppg.Graph) (*Snapshot, BuildKind) {
	t.Helper()
	s, info := OfCounted(g)
	return s, info.Kind
}

// kindNames names each BuildKind in test failures.
var kindNames = [...]string{BuildReused: "reused", BuildFull: "full", BuildDelta: "delta", BuildFallback: "fallback"}

// expectKind asserts how the next snapshot is obtained and that it is
// semantically identical to a from-scratch build of the graph.
func expectKind(t *testing.T, g *ppg.Graph, want BuildKind) *Snapshot {
	t.Helper()
	s, kind := snapKind(t, g)
	if kind != want {
		t.Fatalf("snapshot kind = %s, want %s", kindNames[kind], kindNames[want])
	}
	if err := Equivalent(s, Build(g)); err != nil {
		t.Fatalf("%s snapshot differs from full build: %v", kindNames[kind], err)
	}
	return s
}

// expectDelta asserts the next snapshot is a delta apply equal to a
// full build.
func expectDelta(t *testing.T, g *ppg.Graph) *Snapshot {
	t.Helper()
	return expectKind(t, g, BuildDelta)
}

// deltaGraph is testGraph plus properties, so every delta path (labels,
// adjacency, typed columns, interner) has material to work on.
func deltaGraph(t testing.TB) *ppg.Graph {
	t.Helper()
	g := testGraph(t)
	for i, id := range []ppg.NodeID{100, 7, 55} {
		p := ppg.Properties{}
		p.Set("name", value.Str(fmt.Sprintf("n%d", i)))
		p.Set("age", value.Int(int64(30+i)))
		p.Set("score", value.Float(float64(i)*0.5))
		if err := g.SetNodeProps(id, p); err != nil {
			t.Fatal(err)
		}
	}
	p := ppg.Properties{}
	p.Set("weight", value.Float(2.5))
	if err := g.SetEdgeProps(900, p); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSnapshotContract is the contract of snapshot maintenance, one row
// per mutation of a snapshotted graph. A delta covers appends only:
// nodes and edges above the snapshot's largest identifiers, carrying
// labels it already knows, with any property strings (new ones extend
// the interner). Any other append falls back to the full build, and a
// mutator that changes an element in place drops the recording, so the
// next read runs the full build. Every snapshot equals a full build of
// the graph, and recording restarts after each acquisition: the append
// that follows is a delta again.
func TestSnapshotContract(t *testing.T) {
	type kv = map[string]value.Value
	for _, c := range []struct {
		name    string
		mutate  func(g *ppg.Graph) error
		want    BuildKind
		extends bool // the interner grows past its sorted prefix
	}{
		{"append with known labels and strings", func(g *ppg.Graph) error {
			if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person"),
				Props: ppg.NewProperties(kv{"name": value.Str("n1"), "age": value.Int(40)})}); err != nil {
				return err
			}
			return g.AddEdge(&ppg.Edge{ID: 1000, Src: 300, Dst: 100, Labels: ppg.NewLabels("knows"),
				Props: ppg.NewProperties(kv{"weight": value.Float(1)})})
		}, BuildDelta, false},
		{"append with a new string", func(g *ppg.Graph) error {
			return g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person"),
				Props: ppg.NewProperties(kv{"name": value.Str("zz-new-string")})})
		}, BuildDelta, true},
		{"path only", func(g *ppg.Graph) error {
			return g.AddPath(&ppg.Path{ID: 1, Nodes: []ppg.NodeID{100, 7}, Edges: []ppg.EdgeID{900}})
		}, BuildDelta, false},
		{"append with a new label", func(g *ppg.Graph) error {
			return g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Alien")})
		}, BuildFallback, false},
		{"non-monotonic identifier", func(g *ppg.Graph) error {
			return g.AddNode(&ppg.Node{ID: 50, Labels: ppg.NewLabels("Person")})
		}, BuildFallback, false},
		{"SetNodeLabels", func(g *ppg.Graph) error {
			return g.SetNodeLabels(100, ppg.NewLabels("Manager", "City"))
		}, BuildFull, false},
		{"SetEdgeLabels", func(g *ppg.Graph) error {
			return g.SetEdgeLabels(20, ppg.NewLabels("likes"))
		}, BuildFull, false},
		{"SetNodeProps", func(g *ppg.Graph) error {
			return g.SetNodeProps(100, ppg.NewProperties(kv{"name": value.Str("renamed"), "age": value.Str("old")}))
		}, BuildFull, false},
		{"SetEdgeProps", func(g *ppg.Graph) error {
			return g.SetEdgeProps(900, ppg.NewProperties(kv{"weight": value.Int(3)}))
		}, BuildFull, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := deltaGraph(t)
			expectKind(t, g, BuildFull)
			if err := c.mutate(g); err != nil {
				t.Fatal(err)
			}
			s := expectKind(t, g, c.want)
			if in := s.Strings(); (in.SortedCount() < int32(in.Count())) != c.extends {
				t.Fatalf("interner sorted %d of %d strings, extension want %v", in.SortedCount(), in.Count(), c.extends)
			}
			if s.Generation() != g.Generation() {
				t.Fatalf("snapshot generation %d, graph %d", s.Generation(), g.Generation())
			}
			if err := g.AddNode(&ppg.Node{ID: 5000, Labels: ppg.NewLabels("Person")}); err != nil {
				t.Fatal(err)
			}
			expectDelta(t, g)
		})
	}
}

func TestDeltaApplyAddNodeAndEdge(t *testing.T) {
	g := deltaGraph(t)
	if _, kind := snapKind(t, g); kind != BuildFull {
		t.Fatal("first snapshot should be a full build")
	}
	props := ppg.Properties{}
	props.Set("name", value.Str("zz-new-string")) // extends the interner
	props.Set("age", value.Int(99))
	if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person"), Props: props}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 1000, Src: 300, Dst: 100, Labels: ppg.NewLabels("knows")}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)
}

// TestDeltaApplyLabelChange: relabelling rebuilds, and the appends
// after it extend the rebuilt label runs and partitions.
func TestDeltaApplyLabelChange(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// Move node 100 out of Person into Manager|City; Person keeps other
	// carriers, and node 3 gains its first label.
	if err := g.SetNodeLabels(100, ppg.NewLabels("Manager", "City")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeLabels(3, ppg.NewLabels("Person")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeLabels(20, ppg.NewLabels("likes")); err != nil {
		t.Fatal(err)
	}
	expectKind(t, g, BuildFull)
	if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Manager", "City")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 1000, Src: 300, Dst: 3, Labels: ppg.NewLabels("knows", "likes")}); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)
	u, _ := s.Ord(300)
	if mgr := s.NodesWithLabel(s.LabelID("Manager")); len(mgr) != 3 || mgr[2] != u {
		t.Fatalf("Manager partition %v, want the appended ordinal %d last of 3", mgr, u)
	}
}

// TestDeltaApplyEmptiedPartition: a relabel that empties a partition
// rebuilds, and the rebuild drops the label, so no delta after it
// carries an empty partition.
func TestDeltaApplyEmptiedPartition(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// Tag has exactly one carrier.
	if err := g.SetNodeLabels(200, ppg.NewLabels("Person")); err != nil {
		t.Fatal(err)
	}
	expectKind(t, g, BuildFull)
	if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)
	if s.LabelID("Tag") != NoLabel {
		t.Fatal("emptied label survived the rebuild")
	}
	if got := s.NodesWithLabel(s.LabelID("Tag")); len(got) != 0 {
		t.Fatalf("emptied partition still lists %v", got)
	}
}

// TestDeltaApplyPropChanges: appended values extend existing columns,
// start new ones and demote a typed column they do not fit; replacing
// an element's properties rebuilds.
func TestDeltaApplyPropChanges(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	p := ppg.Properties{}
	p.Set("name", value.Str("renamed"))
	p.Set("brand", value.Str("acme")) // new column
	p.Set("age", value.Str("old"))    // ColInt -> overflow demotion
	if err := g.AddNode(&ppg.Node{ID: 300, Props: p}); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)
	if s.NodeCol("age").Kind() != ColOverflow {
		t.Fatal("mismatched write should demote the column to overflow")
	}
	if s.NodeCol("brand").Kind() != ColString {
		t.Fatal("appended key should start a string column")
	}

	p2 := ppg.Properties{}
	p2.Set("age", value.Int(1))
	p2.Set("score", value.Float(9.5))
	if err := g.AddNode(&ppg.Node{ID: 400, Props: p2}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)

	if err := g.SetNodeProps(100, p2); err != nil {
		t.Fatal(err)
	}
	expectKind(t, g, BuildFull)
}

func TestDeltaApplyZeroOps(t *testing.T) {
	g := deltaGraph(t)
	s1, _ := snapKind(t, g)
	// Path mutations bump the generation but are not materialised in
	// the snapshot: the delta is empty and the apply is a retag.
	if err := g.AddPath(&ppg.Path{ID: 1, Nodes: []ppg.NodeID{100, 7}, Edges: []ppg.EdgeID{900}}); err != nil {
		t.Fatal(err)
	}
	s2 := expectDelta(t, g)
	if s2 == s1 {
		t.Fatal("zero-op apply must still produce a new generation tag")
	}
	if s2.Generation() != g.Generation() {
		t.Fatal("zero-op apply has a stale generation")
	}
}

func TestDeltaChain(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	id := ppg.NodeID(1000)
	eid := ppg.EdgeID(2000)
	for round := 0; round < 12; round++ {
		p := ppg.Properties{}
		p.Set("age", value.Int(int64(round)))
		p.Set("name", value.Str(fmt.Sprintf("chain-%d", round)))
		if err := g.AddNode(&ppg.Node{ID: id, Labels: ppg.NewLabels("Person"), Props: p}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(&ppg.Edge{ID: eid, Src: id, Dst: 100, Labels: ppg.NewLabels("knows")}); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			// A second node per third round, onto an earlier chain node.
			id++
			if err := g.AddNode(&ppg.Node{ID: id, Labels: ppg.NewLabels("Person", "Manager")}); err != nil {
				t.Fatal(err)
			}
			eid++
			if err := g.AddEdge(&ppg.Edge{ID: eid, Src: id, Dst: id - 1, Labels: ppg.NewLabels("likes")}); err != nil {
				t.Fatal(err)
			}
		}
		id++
		eid++
		expectDelta(t, g)
	}
}

func TestDeltaSharingLeavesOldSnapshotIntact(t *testing.T) {
	g := deltaGraph(t)
	old, _ := snapKind(t, g)
	oldState := Build(g) // independent image of the pre-mutation state

	p := ppg.Properties{}
	p.Set("name", value.Str("mutant"))
	p.Set("fresh", value.Int(1))
	p.Set("age", value.Int(77))
	if err := g.AddNode(&ppg.Node{ID: 999, Labels: ppg.NewLabels("Person"), Props: p}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 998, Src: 999, Dst: 7, Labels: ppg.NewLabels("likes")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&ppg.Node{ID: 1000, Labels: ppg.NewLabels("Tag"), Props: p}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)

	// The new snapshot shares arrays with the old one; the old one must
	// still read exactly as the pre-mutation state.
	if err := Equivalent(old, oldState); err != nil {
		t.Fatalf("previous snapshot changed under structural sharing: %v", err)
	}
}

func TestDeltaSharingAccounting(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	if err := g.AddNode(&ppg.Node{ID: 500, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	_, info := OfCounted(g)
	if info.Kind != BuildDelta {
		t.Fatalf("kind = %v, want BuildDelta", info.Kind)
	}
	if info.DeltaOps != 1 {
		t.Fatalf("DeltaOps = %d, want 1", info.DeltaOps)
	}
	if info.BytesShared == 0 {
		t.Fatal("delta apply reports zero shared bytes")
	}
}

func TestDeltaFallbackNewLabel(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// A label the snapshot has never interned cannot be appended.
	if err := g.AddNode(&ppg.Node{ID: 600, Labels: ppg.NewLabels("Alien")}); err != nil {
		t.Fatal(err)
	}
	expectKind(t, g, BuildFallback)
	// The fallback rebuilt and re-primed recording: the next delta
	// knows the new label universe and applies incrementally.
	if err := g.AddNode(&ppg.Node{ID: 601, Labels: ppg.NewLabels("Alien")}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)
}

func TestDeltaFallbackNonMonotonicID(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// 50 is below the snapshot's max node id 200: appending would break
	// the ordinal order invariant.
	if err := g.AddNode(&ppg.Node{ID: 50}); err != nil {
		t.Fatal(err)
	}
	expectKind(t, g, BuildFallback)
}

// appendNodes inserts count unlabelled nodes from first upwards.
func appendNodes(t *testing.T, g *ppg.Graph, first ppg.NodeID, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		if err := g.AddNode(&ppg.Node{ID: first + ppg.NodeID(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeltaFallbackOversizedDelta(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// More recorded appends than deltaOpsFloor on a tiny graph: the size
	// gate declines and the full build re-densifies.
	appendNodes(t, g, 1000, deltaOpsFloor+8)
	expectKind(t, g, BuildFallback)
}

func TestDeltaDroppedByTouchProps(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	g.TouchProps() // unattributable mutation: recording stops
	if _, kind := snapKind(t, g); kind != BuildFull {
		t.Fatal("TouchProps should force a full rebuild")
	}
	// Recording restarts with the rebuild.
	if err := g.AddNode(&ppg.Node{ID: 700}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)
}

func TestDeltaDroppedByOverflow(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	appendNodes(t, g, 1000, ppg.MaxDeltaOps+1)
	expectKind(t, g, BuildFull)
}

func TestDeltaDroppedByReplaceWith(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	if err := g.ReplaceWith(testGraph(t)); err != nil {
		t.Fatal(err)
	}
	expectKind(t, g, BuildFull)
}

func TestCloneStartsFreshChain(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	if err := g.AddNode(&ppg.Node{ID: 800, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)

	// A clone has its own cache and delta chain: its first snapshot is
	// a full build sharing nothing with g's, and mutating the original
	// must not disturb the clone's snapshot.
	cp := g.Clone()
	cs, kind := snapKind(t, cp)
	if kind != BuildFull {
		t.Fatalf("clone's first snapshot kind = %v, want BuildFull", kind)
	}
	if err := g.AddNode(&ppg.Node{ID: 801, Labels: ppg.NewLabels("Manager")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 1000, Src: 801, Dst: 800, Labels: ppg.NewLabels("knows")}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)
	if err := Equivalent(cs, Build(cp)); err != nil {
		t.Fatalf("clone snapshot affected by original's mutations: %v", err)
	}
	if n := s.NumNodes(); n != cp.NumNodes() {
		t.Fatalf("pre-mutation snapshot resized: %d vs %d", n, cp.NumNodes())
	}
}

// BenchmarkSnapshotDelta pits one append + snapshot against the two
// ways of bringing a snapshot up to date on a chain-heavy graph: delta
// apply versus full rebuild.
func BenchmarkSnapshotDelta(b *testing.B) {
	build := func(n int) *ppg.Graph {
		g := ppg.New("bench")
		for i := 0; i < n; i++ {
			p := ppg.Properties{}
			p.Set("age", value.Int(int64(i%80)))
			p.Set("name", value.Str(fmt.Sprintf("p%d", i%500)))
			if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i + 1), Labels: ppg.NewLabels("Person"), Props: p}); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < n-1; i++ {
			if err := g.AddEdge(&ppg.Edge{
				ID: ppg.EdgeID(1_000_000 + i), Src: ppg.NodeID(i + 1), Dst: ppg.NodeID(i + 2),
				Labels: ppg.NewLabels("knows"),
			}); err != nil {
				b.Fatal(err)
			}
		}
		return g
	}
	const n = 20_000
	for _, mode := range []string{"delta-apply", "full-rebuild"} {
		b.Run(mode, func(b *testing.B) {
			g := build(n)
			Of(g)
			p := ppg.Properties{}
			p.Set("age", value.Int(33))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ppg.NodeID(n + 10 + i)
				if err := g.AddNode(&ppg.Node{ID: id, Labels: ppg.NewLabels("Person"), Props: p}); err != nil {
					b.Fatal(err)
				}
				if err := g.AddEdge(&ppg.Edge{
					ID: ppg.EdgeID(2_000_000 + i), Src: id, Dst: 1, Labels: ppg.NewLabels("knows"),
				}); err != nil {
					b.Fatal(err)
				}
				if mode == "delta-apply" {
					Of(g)
				} else {
					Build(g)
				}
			}
		})
	}
}
