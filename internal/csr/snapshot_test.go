package csr

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Equivalent reports whether two snapshots of the same graph state
// are interchangeable: the same elements at the same ordinals, the same
// label universe, runs and partitions, and the same property columns
// with the same kinds, presence and values. It also validates each
// snapshot (Validate).
func Equivalent(a, b *Snapshot) error {
	if err := a.Validate(); err != nil {
		return fmt.Errorf("first snapshot: %w", err)
	}
	if err := b.Validate(); err != nil {
		return fmt.Errorf("second snapshot: %w", err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("size mismatch: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	if !slices.Equal(a.labelNames, b.labelNames) {
		return fmt.Errorf("label universes differ: %v vs %v", a.labelNames, b.labelNames)
	}
	n, m := a.NumNodes(), a.NumEdges()
	for u := 0; u < n; u++ {
		if a.nodeIDs[u] != b.nodeIDs[u] {
			return fmt.Errorf("node ordinal %d: id %d vs %d", u, a.nodeIDs[u], b.nodeIDs[u])
		}
		if a.nodes[u] != b.nodes[u] {
			return fmt.Errorf("node ordinal %d: different element objects", u)
		}
		if au, ok := a.Ord(a.nodeIDs[u]); !ok || au != int32(u) {
			return fmt.Errorf("first snapshot: Ord(%d) != %d", a.nodeIDs[u], u)
		}
		if bu, ok := b.Ord(a.nodeIDs[u]); !ok || bu != int32(u) {
			return fmt.Errorf("second snapshot: Ord(%d) != %d", a.nodeIDs[u], u)
		}
		if !slices.Equal(a.nodeLabelRun(int32(u)), b.nodeLabelRun(int32(u))) {
			return fmt.Errorf("node ordinal %d: label sets differ", u)
		}
		if !slices.Equal(a.Out(int32(u)), b.Out(int32(u))) {
			return fmt.Errorf("node ordinal %d: out adjacency differs", u)
		}
		if !slices.Equal(a.In(int32(u)), b.In(int32(u))) {
			return fmt.Errorf("node ordinal %d: in adjacency differs", u)
		}
	}
	for e := 0; e < m; e++ {
		if a.edgeIDs[e] != b.edgeIDs[e] {
			return fmt.Errorf("edge ordinal %d: id %d vs %d", e, a.edgeIDs[e], b.edgeIDs[e])
		}
		if a.edges[e] != b.edges[e] {
			return fmt.Errorf("edge ordinal %d: different element objects", e)
		}
		if ae, ok := a.EdgeOrd(a.edgeIDs[e]); !ok || ae != int32(e) {
			return fmt.Errorf("first snapshot: EdgeOrd(%d) != %d", a.edgeIDs[e], e)
		}
		if be, ok := b.EdgeOrd(a.edgeIDs[e]); !ok || be != int32(e) {
			return fmt.Errorf("second snapshot: EdgeOrd(%d) != %d", a.edgeIDs[e], e)
		}
		if a.Src(int32(e)) != b.Src(int32(e)) || a.Dst(int32(e)) != b.Dst(int32(e)) {
			return fmt.Errorf("edge ordinal %d: endpoints differ", e)
		}
		if !slices.Equal(a.edgeLabelRun(int32(e)), b.edgeLabelRun(int32(e))) {
			return fmt.Errorf("edge ordinal %d: label sets differ", e)
		}
	}
	for lid, l := range a.labelNames {
		if !slices.Equal(a.nodesByLabel[lid], b.nodesByLabel[lid]) {
			return fmt.Errorf("label %q: node partitions differ", l)
		}
		if !slices.Equal(a.edgesByLabel[lid], b.edgesByLabel[lid]) {
			return fmt.Errorf("label %q: edge partitions differ", l)
		}
	}
	if err := colsEquivalent(a.nodeCols, b.nodeCols, n, "node"); err != nil {
		return err
	}
	return colsEquivalent(a.edgeCols, b.edgeCols, m, "edge")
}

func colsEquivalent(a, b map[string]*PropCol, count int, what string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s columns: %d vs %d keys", what, len(a), len(b))
	}
	for key, ca := range a {
		cb := b[key]
		if cb == nil {
			return fmt.Errorf("%s column %q missing from the second snapshot", what, key)
		}
		if ca.kind != cb.kind {
			return fmt.Errorf("%s column %q: kind %v vs %v", what, key, ca.kind, cb.kind)
		}
		for o := int32(0); o < int32(count); o++ {
			if ca.Present(o) != cb.Present(o) {
				return fmt.Errorf("%s column %q ordinal %d: presence differs", what, key, o)
			}
			if ca.Present(o) && !value.Equal(ca.sets[o], cb.sets[o]) {
				return fmt.Errorf("%s column %q ordinal %d: %v vs %v", what, key, o, ca.sets[o], cb.sets[o])
			}
		}
	}
	return nil
}

// Validate verifies the snapshot's internal consistency: the interner
// ascends, typed column payloads agree with the mirrored sets, string
// identifiers resolve through the interner to the mirrored string, and
// every equality index built so far equals a from-scratch build of its
// column.
func (s *Snapshot) Validate() error {
	if !slices.IsSorted(s.strings.names) {
		return fmt.Errorf("interned strings do not ascend")
	}
	check := func(cols map[string]*PropCol, count int, what string) error {
		for key, c := range cols {
			if err := c.checkEqIndex(); err != nil {
				return fmt.Errorf("%s column %q: %w", what, key, err)
			}
			if c.kind == ColOverflow {
				continue
			}
			for o := int32(0); o < int32(count); o++ {
				if !c.Present(o) {
					continue
				}
				el, ok := c.sets[o].Singleton()
				if !ok {
					return fmt.Errorf("%s column %q (kind %v) holds non-singleton at %d", what, key, c.kind, o)
				}
				switch c.kind {
				case ColInt:
					want, _ := el.AsInt()
					if c.ints[o] != want {
						return fmt.Errorf("%s column %q: int payload mismatch at %d", what, key, o)
					}
				case ColDate:
					want, _ := el.AsDateDays()
					if c.ints[o] != want {
						return fmt.Errorf("%s column %q: date payload mismatch at %d", what, key, o)
					}
				case ColFloat:
					want, _ := el.AsFloat()
					if c.floats[o] != want && !(math.IsNaN(c.floats[o]) && math.IsNaN(want)) {
						return fmt.Errorf("%s column %q: float payload mismatch at %d", what, key, o)
					}
				case ColString:
					want, _ := el.AsString()
					if int(c.strs[o]) >= len(s.strings.names) || s.strings.names[c.strs[o]] != want {
						return fmt.Errorf("%s column %q: string payload mismatch at %d", what, key, o)
					}
				case ColBool:
					want, _ := el.AsBool()
					if c.BoolAt(o) != want {
						return fmt.Errorf("%s column %q: bool payload mismatch at %d", what, key, o)
					}
				}
			}
		}
		return nil
	}
	if err := check(s.nodeCols, s.NumNodes(), "node"); err != nil {
		return err
	}
	return check(s.edgeCols, s.NumEdges(), "edge")
}

// checkEqIndex verifies a built index against a from-scratch build of
// the same column; a column never sought has nothing to verify.
func (c *PropCol) checkEqIndex() error {
	ix := c.eq.Load()
	if ix == nil {
		return nil
	}
	if want := c.buildEqIndex(); !slices.Equal(ix.ords, want.ords) || ix.keys != want.keys {
		return fmt.Errorf("equality index holds %d ordinals that differ from a rebuild (%d)", len(ix.ords), len(want.ords))
	}
	return nil
}

// mutGraph is testGraph plus properties, so every part of a snapshot
// (labels, adjacency, typed columns, interner) has material to change.
func mutGraph(t testing.TB) *ppg.Graph {
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

// expectRebuilt asserts that the read after a mutation is a new
// snapshot, tagged with g's generation, cached for it, and equal to a
// from-scratch build of g.
func expectRebuilt(t *testing.T, g *ppg.Graph, prev *Snapshot) *Snapshot {
	t.Helper()
	s := Of(g)
	if s == prev {
		t.Fatal("Of served the previous snapshot after a mutation")
	}
	if s.Generation() != g.Generation() {
		t.Fatalf("snapshot generation %d, graph %d", s.Generation(), g.Generation())
	}
	if Of(g) != s {
		t.Fatal("Of rebuilt the snapshot without a mutation")
	}
	if err := Equivalent(s, Build(g)); err != nil {
		t.Fatalf("snapshot differs from a full build: %v", err)
	}
	return s
}

// seekAll builds the equality index of every column of s that agrees
// to seek an integer or a string.
func seekAll(s *Snapshot) {
	for _, cols := range []map[string]*PropCol{s.nodeCols, s.edgeCols} {
		for _, c := range cols {
			c.SeekEq(value.Int(30), s.Strings())
			c.SeekEq(value.Str("n1"), s.Strings())
		}
	}
}

// TestSnapshotContract is the contract of the snapshot cache, one row
// per mutator of a snapshotted graph: the next read is a new snapshot
// at a new generation, equal to a full build, whose columns start
// without an equality index; and the snapshot read before the
// mutation, indexes included, still equals a build of the graph as it
// was. Clone reads the copy: a graph of its own with its own cache.
func TestSnapshotContract(t *testing.T) {
	type kv = map[string]value.Value
	for _, c := range []struct {
		name   string
		mutate func(g *ppg.Graph) (*ppg.Graph, error)
	}{
		{"append with known labels and strings", func(g *ppg.Graph) (*ppg.Graph, error) {
			if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person"),
				Props: ppg.NewProperties(kv{"name": value.Str("n1"), "age": value.Int(40)})}); err != nil {
				return g, err
			}
			return g, g.AddEdge(&ppg.Edge{ID: 1000, Src: 300, Dst: 100, Labels: ppg.NewLabels("knows"),
				Props: ppg.NewProperties(kv{"weight": value.Float(1)})})
		}},
		{"append with a new string", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person"),
				Props: ppg.NewProperties(kv{"name": value.Str("zz-new-string")})})
		}},
		{"path only", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.AddPath(&ppg.Path{ID: 1, Nodes: []ppg.NodeID{100, 7}, Edges: []ppg.EdgeID{900}})
		}},
		{"append with a new label", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Alien")})
		}},
		{"non-monotonic identifier", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.AddNode(&ppg.Node{ID: 50, Labels: ppg.NewLabels("Person")})
		}},
		{"SetNodeLabels", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.SetNodeLabels(100, ppg.NewLabels("Manager", "City"))
		}},
		{"SetEdgeLabels", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.SetEdgeLabels(20, ppg.NewLabels("likes"))
		}},
		{"SetNodeProps", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.SetNodeProps(100, ppg.NewProperties(kv{"name": value.Str("renamed"), "age": value.Str("old")}))
		}},
		{"SetEdgeProps", func(g *ppg.Graph) (*ppg.Graph, error) {
			return g, g.SetEdgeProps(900, ppg.NewProperties(kv{"weight": value.Int(3)}))
		}},
		{"Clone", func(g *ppg.Graph) (*ppg.Graph, error) {
			cp := g.Clone()
			// Mutating the original afterwards leaves the copy alone.
			return cp, g.AddNode(&ppg.Node{ID: 801, Labels: ppg.NewLabels("Manager")})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := mutGraph(t)
			old := Of(g)
			seekAll(old)
			oldImage := Build(g)
			gen := g.Generation()
			h, err := c.mutate(g)
			if err != nil {
				t.Fatal(err)
			}
			if h == g && g.Generation() <= gen {
				t.Fatalf("generation %d after the mutation, was %d", g.Generation(), gen)
			}
			s := expectRebuilt(t, h, old)
			for _, cols := range []map[string]*PropCol{s.nodeCols, s.edgeCols} {
				for key, col := range cols {
					if col.eq.Load() != nil {
						t.Fatalf("column %q of the new snapshot inherited an equality index", key)
					}
				}
			}
			if err := Equivalent(old, oldImage); err != nil {
				t.Fatalf("snapshot read before the mutation changed: %v", err)
			}
		})
	}
}

// TestDeltaApplyAddNodeAndEdge: a node appended with a string no
// element had, and an edge from it, read back through the next
// snapshot: the node takes the last ordinal and both read as the graph
// holds them.
func TestDeltaApplyAddNodeAndEdge(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
	props := ppg.Properties{}
	props.Set("name", value.Str("zz-new-string"))
	props.Set("age", value.Int(99))
	if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Person"), Props: props}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 1000, Src: 300, Dst: 100, Labels: ppg.NewLabels("knows")}); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	u, ok := s.Ord(300)
	if !ok || u != int32(s.NumNodes()-1) {
		t.Fatalf("appended node at ordinal %d (%v), want the last of %d", u, ok, s.NumNodes())
	}
	for _, key := range []string{"name", "age"} {
		if got := s.NodeProp(u, key); !value.Equal(got, props.Get(key)) {
			t.Fatalf("appended node reads %s %v, want %v", key, got, props.Get(key))
		}
	}
	dst, _ := s.Ord(100)
	if out := s.Out(u); len(out) != 1 || s.EdgeID(out[0]) != 1000 || s.Dst(out[0]) != dst {
		t.Fatalf("appended node's out adjacency %v, want edge 1000 to node 100", out)
	}
}

// TestDeltaApplyZeroOps: a path append changes no node or edge, yet the
// read after it is a snapshot of its own, tagged with the new
// generation and holding the same elements.
func TestDeltaApplyZeroOps(t *testing.T) {
	g := mutGraph(t)
	s1 := Of(g)
	if err := g.AddPath(&ppg.Path{ID: 1, Nodes: []ppg.NodeID{100, 7}, Edges: []ppg.EdgeID{900}}); err != nil {
		t.Fatal(err)
	}
	s2 := expectRebuilt(t, g, s1)
	if s2.NumNodes() != s1.NumNodes() || s2.NumEdges() != s1.NumEdges() {
		t.Fatalf("path append changed the element counts: %d/%d nodes, %d/%d edges",
			s1.NumNodes(), s2.NumNodes(), s1.NumEdges(), s2.NumEdges())
	}
}

// TestDeltaChain: twelve rounds of appends, each followed by a read;
// every read is a new snapshot at a higher generation, equal to a full
// build of the graph as it then is.
func TestDeltaChain(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
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
		prev := s
		s = expectRebuilt(t, g, s)
		if s.Generation() <= prev.Generation() {
			t.Fatalf("round %d: generation %d after %d", round, s.Generation(), prev.Generation())
		}
	}
}

// TestDeltaSharingLeavesOldSnapshotIntact: a snapshot read and sought
// before a mix of appends, a relabel and a property replacement still
// reads exactly as the graph was when it was read.
func TestDeltaSharingLeavesOldSnapshotIntact(t *testing.T) {
	g := mutGraph(t)
	old := Of(g)
	seekAll(old)
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
	if err := g.SetNodeLabels(7, ppg.NewLabels("City")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProps(100, p); err != nil {
		t.Fatal(err)
	}
	seekAll(expectRebuilt(t, g, old))
	if err := Equivalent(old, oldState); err != nil {
		t.Fatalf("previous snapshot changed under later mutations: %v", err)
	}
}

// TestDeltaApplyLabelChange: after relabelling, and after the appends
// that follow, each read's label runs and partitions are those of a
// full build.
func TestDeltaApplyLabelChange(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
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
	s = expectRebuilt(t, g, s)
	if err := g.AddNode(&ppg.Node{ID: 300, Labels: ppg.NewLabels("Manager", "City")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(&ppg.Edge{ID: 1000, Src: 300, Dst: 3, Labels: ppg.NewLabels("knows", "likes")}); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	u, _ := s.Ord(300)
	if mgr := s.NodesWithLabel(s.LabelID("Manager")); len(mgr) != 3 || mgr[2] != u {
		t.Fatalf("Manager partition %v, want the appended ordinal %d last of 3", mgr, u)
	}
}

// TestDeltaApplyEmptiedPartition: a relabel that empties a partition
// drops the label from the next snapshot's universe.
func TestDeltaApplyEmptiedPartition(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
	// Tag has exactly one carrier.
	if err := g.SetNodeLabels(200, ppg.NewLabels("Person")); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	if s.LabelID("Tag") != NoLabel {
		t.Fatal("emptied label survived the rebuild")
	}
	if got := s.NodesWithLabel(s.LabelID("Tag")); len(got) != 0 {
		t.Fatalf("emptied partition still lists %v", got)
	}
}

// TestDeltaApplyPropChanges: appended values extend existing columns,
// start new ones and demote a typed column they do not fit; replacing
// an element's properties re-infers the kinds.
func TestDeltaApplyPropChanges(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
	p := ppg.Properties{}
	p.Set("name", value.Str("renamed"))
	p.Set("brand", value.Str("acme")) // new column
	p.Set("age", value.Str("old"))    // ColInt -> overflow demotion
	if err := g.AddNode(&ppg.Node{ID: 300, Props: p}); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	if s.NodeCol("age").Kind() != ColOverflow {
		t.Fatal("mismatched value should demote the column to overflow")
	}
	if s.NodeCol("brand").Kind() != ColString {
		t.Fatal("appended key should start a string column")
	}

	p2 := ppg.Properties{}
	p2.Set("age", value.Int(1))
	p2.Set("score", value.Float(9.5))
	if err := g.SetNodeProps(300, p2); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	if s.NodeCol("age").Kind() != ColInt || s.NodeCol("brand") != nil {
		t.Fatalf("replaced properties: age %v, brand column %v; want int and none", s.NodeCol("age").Kind(), s.NodeCol("brand"))
	}
}

// TestDeltaFallbackNewLabel: an append carrying a label no element had
// enters the label universe in name order.
func TestDeltaFallbackNewLabel(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
	if err := g.AddNode(&ppg.Node{ID: 600, Labels: ppg.NewLabels("Alien")}); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	if s.LabelID("Alien") != 0 {
		t.Fatalf("Alien has label id %d, want 0 (first by name)", s.LabelID("Alien"))
	}
}

// TestDeltaFallbackNonMonotonicID: a node appended below the largest
// identifier takes its place in identifier order, renumbering the
// ordinals after it.
func TestDeltaFallbackNonMonotonicID(t *testing.T) {
	g := mutGraph(t)
	s := Of(g)
	if err := g.AddNode(&ppg.Node{ID: 50}); err != nil {
		t.Fatal(err)
	}
	s = expectRebuilt(t, g, s)
	if !slices.IsSorted(s.nodeIDs) {
		t.Fatalf("node ordinals out of identifier order: %v", s.nodeIDs)
	}
}

// BenchmarkSnapshotDelta times one append + snapshot on a chain-heavy
// graph; every snapshot after a mutation is a full rebuild.
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
	b.Run("full-rebuild", func(b *testing.B) {
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
			Build(g)
		}
	})
}
