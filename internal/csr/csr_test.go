package csr

import (
	"math/rand"
	"sync"
	"testing"

	"gcore/internal/ppg"
)

// testGraph builds a small multi-label graph with non-contiguous,
// interleaved identifiers to exercise the ordinal remap.
func testGraph(t testing.TB) *ppg.Graph {
	t.Helper()
	g := ppg.New("t")
	nodes := []struct {
		id     ppg.NodeID
		labels []string
	}{
		{100, []string{"Person"}},
		{7, []string{"Person", "Manager"}},
		{55, []string{"City"}},
		{3, nil},
		{200, []string{"Tag"}},
	}
	for _, n := range nodes {
		if err := g.AddNode(&ppg.Node{ID: n.id, Labels: ppg.NewLabels(n.labels...)}); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct {
		id       ppg.EdgeID
		src, dst ppg.NodeID
		labels   []string
	}{
		{900, 100, 7, []string{"knows"}},
		{20, 7, 100, []string{"knows", "likes"}},
		{31, 100, 55, []string{"isLocatedIn"}},
		{32, 7, 55, []string{"isLocatedIn"}},
		{33, 3, 3, nil}, // self-loop, unlabelled
	}
	for _, e := range edges {
		if err := g.AddEdge(&ppg.Edge{ID: e.id, Src: e.src, Dst: e.dst, Labels: ppg.NewLabels(e.labels...)}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestBuildRoundTrip(t *testing.T) {
	g := testGraph(t)
	s := Build(g)

	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
			s.NumNodes(), g.NumNodes(), s.NumEdges(), g.NumEdges())
	}
	// Ordinals ascend with identifiers and round-trip.
	var prev ppg.NodeID
	for u := int32(0); u < int32(s.NumNodes()); u++ {
		id := s.NodeID(u)
		if u > 0 && id <= prev {
			t.Fatalf("node ordinals not ascending by id: ord %d has id %d after %d", u, id, prev)
		}
		prev = id
		back, ok := s.Ord(id)
		if !ok || back != u {
			t.Fatalf("ordinal round trip failed: %d → %d → %d (%v)", u, id, back, ok)
		}
		if s.Node(u).ID != id {
			t.Fatalf("node pointer mismatch at ordinal %d", u)
		}
	}
	if _, ok := s.Ord(999); ok {
		t.Fatal("Ord accepted a missing node id")
	}
}

func TestAdjacencyAgreesWithPPG(t *testing.T) {
	g := testGraph(t)
	s := Build(g)
	outs, ins := adjacency(g)
	for u := int32(0); u < int32(s.NumNodes()); u++ {
		id := s.NodeID(u)
		for dir, want := range map[string][]ppg.EdgeID{"out": outs[id], "in": ins[id]} {
			var list []int32
			if dir == "out" {
				list = s.Out(u)
			} else {
				list = s.In(u)
			}
			if len(list) != len(want) {
				t.Fatalf("%s degree of #%d: csr %d, ppg %d", dir, id, len(list), len(want))
			}
			for i, eo := range list {
				if s.EdgeID(eo) != want[i] {
					t.Fatalf("%s[%d] of #%d: csr edge #%d, ppg edge #%d", dir, i, id, s.EdgeID(eo), want[i])
				}
			}
		}
	}
	// Endpoint ordinals match the edge records.
	for e := int32(0); e < int32(s.NumEdges()); e++ {
		ed := s.Edge(e)
		if s.NodeID(s.Src(e)) != ed.Src || s.NodeID(s.Dst(e)) != ed.Dst {
			t.Fatalf("edge #%d endpoints: csr (%d,%d), ppg (%d,%d)",
				ed.ID, s.NodeID(s.Src(e)), s.NodeID(s.Dst(e)), ed.Src, ed.Dst)
		}
	}
}

func TestLabelsAndPartitions(t *testing.T) {
	g := testGraph(t)
	s := Build(g)
	if s.LabelID("Nope") != NoLabel {
		t.Fatal("unknown label must map to NoLabel")
	}
	seen := map[int32]bool{}
	for _, name := range []string{"City", "Manager", "Person", "Tag", "isLocatedIn", "knows", "likes"} {
		lid := s.LabelID(name)
		if lid == NoLabel || seen[lid] {
			t.Fatalf("label interning not injective at %q", name)
		}
		seen[lid] = true
		// Node membership test agrees with ppg.Labels.Has.
		for u := int32(0); u < int32(s.NumNodes()); u++ {
			if s.NodeHasLabel(u, lid) != s.Node(u).Labels.Has(name) {
				t.Fatalf("NodeHasLabel(%d, %q) disagrees with ppg", u, name)
			}
		}
		for e := int32(0); e < int32(s.NumEdges()); e++ {
			if s.EdgeHasLabel(e, lid) != s.Edge(e).Labels.Has(name) {
				t.Fatalf("EdgeHasLabel(%d, %q) disagrees with ppg", e, name)
			}
		}
		// Partitions agree with the ppg label index.
		wantN := g.NodesWithLabel(name)
		gotN := s.NodesWithLabel(lid)
		if len(wantN) != len(gotN) {
			t.Fatalf("node partition %q: csr %d, ppg %d", name, len(gotN), len(wantN))
		}
		for i, u := range gotN {
			if s.NodeID(u) != wantN[i] {
				t.Fatalf("node partition %q[%d]: csr #%d, ppg #%d", name, i, s.NodeID(u), wantN[i])
			}
		}
		wantE := g.EdgesWithLabel(name)
		gotE := s.EdgesWithLabel(lid)
		if len(wantE) != len(gotE) {
			t.Fatalf("edge partition %q: csr %d, ppg %d", name, len(gotE), len(wantE))
		}
		for i, e := range gotE {
			if s.EdgeID(e) != wantE[i] {
				t.Fatalf("edge partition %q[%d]: csr #%d, ppg #%d", name, i, s.EdgeID(e), wantE[i])
			}
		}
	}
}

func TestOfCachesPerGeneration(t *testing.T) {
	g := testGraph(t)
	s1 := Of(g)
	s2 := Of(g)
	if s1 != s2 {
		t.Fatal("Of rebuilt the snapshot without a mutation")
	}
	if s1.Generation() != g.Generation() {
		t.Fatalf("snapshot tagged gen %d, graph at %d", s1.Generation(), g.Generation())
	}
	if err := g.AddNode(&ppg.Node{ID: 777, Labels: ppg.NewLabels("Person")}); err != nil {
		t.Fatal(err)
	}
	s3 := Of(g)
	if s3 == s1 {
		t.Fatal("Of served a stale snapshot after AddNode")
	}
	if _, ok := s3.Ord(777); !ok {
		t.Fatal("rebuilt snapshot is missing the new node")
	}
	if _, ok := s1.Ord(777); ok {
		t.Fatal("old snapshot mutated in place")
	}
}

func TestRandomGraphAgreement(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		g := ppg.New("rand")
		n := 1 + r.Intn(40)
		var ids []ppg.NodeID
		labels := []string{"a", "b", "c"}
		for i := 0; i < n; i++ {
			id := ppg.NodeID(r.Intn(1000))
			if _, ok := g.Node(id); ok {
				continue
			}
			ls := ppg.Labels{}
			for _, l := range labels {
				if r.Intn(2) == 0 {
					ls = ls.Add(l)
				}
			}
			if err := g.AddNode(&ppg.Node{ID: id, Labels: ls}); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for e := 0; e < n*2; e++ {
			src := ids[r.Intn(len(ids))]
			dst := ids[r.Intn(len(ids))]
			eid := ppg.EdgeID(10_000 + r.Intn(10_000))
			if _, ok := g.Edge(eid); ok {
				continue
			}
			if err := g.AddEdge(&ppg.Edge{ID: eid, Src: src, Dst: dst,
				Labels: ppg.NewLabels(labels[r.Intn(len(labels))])}); err != nil {
				t.Fatal(err)
			}
		}
		s := Build(g)
		outs, ins := adjacency(g)
		for u := int32(0); u < int32(s.NumNodes()); u++ {
			id := s.NodeID(u)
			out := outs[id]
			if len(out) != len(s.Out(u)) {
				t.Fatalf("trial %d: out degree mismatch at #%d", trial, id)
			}
			for i, eo := range s.Out(u) {
				if s.EdgeID(eo) != out[i] {
					t.Fatalf("trial %d: out order mismatch at #%d", trial, id)
				}
			}
			in := ins[id]
			for i, eo := range s.In(u) {
				if s.EdgeID(eo) != in[i] {
					t.Fatalf("trial %d: in order mismatch at #%d", trial, id)
				}
			}
		}
		checkDegrees(t, g, s, append(labels, "absent"))
	}
}

// checkDegrees holds Snapshot.Degree to a count over the ppg adjacency
// for every (node label, edge label, direction), AnyLabel included,
// asked from several goroutines at once on the fresh snapshot.
func checkDegrees(t *testing.T, g *ppg.Graph, s *Snapshot, labels []string) {
	t.Helper()
	lids := []int32{AnyLabel}
	name := map[int32]string{}
	for _, l := range labels {
		lids = append(lids, s.LabelID(l))
		name[s.LabelID(l)] = l
	}
	outs, ins := adjacency(g)
	want := func(nl, el int32, in bool) int64 {
		var n int64
		for _, id := range g.NodeIDs() {
			nd, _ := g.Node(id)
			if nl != AnyLabel && (nl == NoLabel || !nd.Labels.Has(name[nl])) {
				continue
			}
			adj := outs[id]
			if in {
				adj = ins[id]
			}
			for _, eid := range adj {
				e, _ := g.Edge(eid)
				if el == AnyLabel || el != NoLabel && e.Labels.Has(name[el]) {
					n++
				}
			}
		}
		return n
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, nl := range lids {
				for _, el := range lids {
					for _, in := range []bool{false, true} {
						if got, exp := s.Degree(nl, el, in), want(nl, el, in); got != exp {
							t.Errorf("Degree(%d, %d, in=%v) = %d, want %d", nl, el, in, got, exp)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// adjacency returns, per node, the ascending identifiers of its out-
// and in-edges, computed from the ppg edge set.
func adjacency(g *ppg.Graph) (out, in map[ppg.NodeID][]ppg.EdgeID) {
	out, in = map[ppg.NodeID][]ppg.EdgeID{}, map[ppg.NodeID][]ppg.EdgeID{}
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		out[e.Src] = append(out[e.Src], id)
		in[e.Dst] = append(in[e.Dst], id)
	}
	return out, in
}
