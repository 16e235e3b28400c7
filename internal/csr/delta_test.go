package csr

import (
	"fmt"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// snapKind primes or refreshes g's cached snapshot through OfCounted
// (incremental maintenance on) and reports how it was obtained.
func snapKind(t *testing.T, g *ppg.Graph) (*Snapshot, BuildKind) {
	t.Helper()
	s, info := OfCounted(g, true)
	return s, info.Kind
}

// expectDelta asserts the next snapshot is a delta apply and that it
// is semantically identical to a from-scratch build of the graph.
func expectDelta(t *testing.T, g *ppg.Graph) *Snapshot {
	t.Helper()
	s, kind := snapKind(t, g)
	if kind != BuildDelta {
		t.Fatalf("snapshot kind = %v, want BuildDelta", kind)
	}
	if err := Equivalent(s, Build(g)); err != nil {
		t.Fatalf("delta-applied snapshot differs from full build: %v", err)
	}
	return s
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
	expectDelta(t, g)
}

func TestDeltaApplyEmptiedPartition(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// Tag has exactly one carrier; after the change its partition is
	// empty in the incremental snapshot and absent from a full build —
	// Equivalent must treat those the same, and queries see no carrier
	// either way.
	if err := g.SetNodeLabels(200, ppg.NewLabels("Person")); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)
	if got := s.NodesWithLabel(s.LabelID("Tag")); len(got) != 0 {
		t.Fatalf("emptied partition still lists %v", got)
	}
}

func TestDeltaApplyPropChanges(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// One element: change a value, drop a key, add a key (new column),
	// demote a typed column with a mismatched kind.
	p := ppg.Properties{}
	p.Set("name", value.Str("renamed"))
	p.Set("brand", value.Str("acme")) // new column
	p.Set("age", value.Str("old"))    // ColInt -> overflow demotion
	if err := g.SetNodeProps(100, p); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)
	if s.NodeCol("age").Kind() != ColOverflow {
		t.Fatal("mismatched write should demote the column to overflow")
	}

	// Append-only writes on a fresh round: a new node's props extend
	// columns without touching existing ordinals.
	p2 := ppg.Properties{}
	p2.Set("age", value.Int(1))
	p2.Set("score", value.Float(9.5))
	if err := g.AddNode(&ppg.Node{ID: 400, Props: p2}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)
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
			if err := g.SetNodeLabels(7, ppg.NewLabels("Person")); err != nil {
				t.Fatal(err)
			}
			if err := g.SetNodeLabels(7, ppg.NewLabels("Person", "Manager")); err != nil {
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
	if err := g.SetNodeProps(100, p); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&ppg.Node{ID: 999, Labels: ppg.NewLabels("Person"), Props: p}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 998, Src: 999, Dst: 7, Labels: ppg.NewLabels("likes")}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeLabels(55, ppg.NewLabels("Tag")); err != nil {
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
	_, info := OfCounted(g, true)
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
	s, kind := snapKind(t, g)
	if kind != BuildFallback {
		t.Fatalf("kind = %v, want BuildFallback", kind)
	}
	if err := Equivalent(s, Build(g)); err != nil {
		t.Fatal(err)
	}
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
	s, kind := snapKind(t, g)
	if kind != BuildFallback {
		t.Fatalf("kind = %v, want BuildFallback", kind)
	}
	if err := Equivalent(s, Build(g)); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaFallbackOversizedDelta(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	// More recorded ops than deltaOpsFloor on a tiny graph: the size
	// gate declines and the full build re-densifies.
	p := ppg.Properties{}
	p.Set("age", value.Int(1))
	for i := 0; i < deltaOpsFloor+8; i++ {
		if err := g.SetNodeProps(100, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, kind := snapKind(t, g); kind != BuildFallback {
		t.Fatal("oversized delta should fall back")
	}
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
	defer func(old int) { ppg.MaxDeltaOps = old }(ppg.MaxDeltaOps)
	ppg.MaxDeltaOps = 4
	g := deltaGraph(t)
	snapKind(t, g)
	p := ppg.Properties{}
	p.Set("age", value.Int(2))
	for i := 0; i < 6; i++ {
		if err := g.SetNodeProps(7, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, kind := snapKind(t, g); kind != BuildFull {
		t.Fatal("overflowed delta buffer should force a full rebuild")
	}
}

func TestDeltaDroppedByReplaceWith(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	if err := g.ReplaceWith(testGraph(t)); err != nil {
		t.Fatal(err)
	}
	s, kind := snapKind(t, g)
	if kind != BuildFull {
		t.Fatal("ReplaceWith should force a full rebuild")
	}
	if err := Equivalent(s, Build(g)); err != nil {
		t.Fatal(err)
	}
}

func TestCloneStartsFreshChain(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	if err := g.AddNode(&ppg.Node{ID: 800, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	s := expectDelta(t, g)

	// A clone has its own cache and delta chain: its first snapshot is
	// a full build sharing nothing with g's, and mutating the clone
	// must not disturb g's snapshot.
	cp := g.Clone()
	cs, kind := snapKind(t, cp)
	if kind != BuildFull {
		t.Fatalf("clone's first snapshot kind = %v, want BuildFull", kind)
	}
	if err := g.SetNodeLabels(800, ppg.NewLabels("Manager")); err != nil {
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

// TestNonIncrementalAcquisition: a caller that asks for no
// incremental maintenance gets a full rebuild on a generation
// mismatch, and a later incremental caller deltas onto that build.
func TestNonIncrementalAcquisition(t *testing.T) {
	g := deltaGraph(t)
	snapKind(t, g)
	if err := g.AddNode(&ppg.Node{ID: 900}); err != nil {
		t.Fatal(err)
	}
	if _, info := OfCounted(g, false); info.Kind != BuildFull {
		t.Fatal("incremental off: snapshot should be a full rebuild")
	}
	if err := g.AddNode(&ppg.Node{ID: 901}); err != nil {
		t.Fatal(err)
	}
	expectDelta(t, g)
}

// BenchmarkSnapshotDelta pits one mutation + snapshot against the two
// maintenance strategies on a chain-heavy graph: delta apply versus
// full rebuild.
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
			incremental := mode == "delta-apply"
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
				OfCounted(g, incremental)
			}
		})
	}
}
