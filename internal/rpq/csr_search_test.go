package rpq

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"gcore/internal/ast"
	"gcore/internal/gov"
	"gcore/internal/ppg"
	"gcore/internal/snb"
)

// diffGraph builds a random labelled graph for the explicit-product
// reference checks (reference_test.go).
func diffGraph(t *testing.T, r *rand.Rand) (*ppg.Graph, []ppg.NodeID) {
	t.Helper()
	g := ppg.New("diff")
	nodeLabels := [][]string{{"A"}, {"B"}, {"A", "B"}, nil}
	n := 5 + r.Intn(30)
	var ids []ppg.NodeID
	for i := 0; i < n; i++ {
		id := ppg.NodeID(r.Intn(500))
		if _, ok := g.Node(id); ok {
			continue
		}
		if err := g.AddNode(&ppg.Node{ID: id, Labels: ppg.NewLabels(nodeLabels[r.Intn(len(nodeLabels))]...)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	edgeLabels := []string{"a", "b", "c"}
	for e := 0; e < n*3; e++ {
		eid := ppg.EdgeID(1000 + r.Intn(5000))
		if _, ok := g.Edge(eid); ok {
			continue
		}
		if err := g.AddEdge(&ppg.Edge{
			ID: eid, Src: ids[r.Intn(len(ids))], Dst: ids[r.Intn(len(ids))],
			Labels: ppg.NewLabels(edgeLabels[r.Intn(len(edgeLabels))]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

// diffRegexes covers labels, inverses, node tests, wildcards, unknown
// labels, alternation, closure and concatenation.
func diffRegexes(t *testing.T) []*NFA {
	t.Helper()
	exprs := []*ast.Regex{
		rxLabel("a"),
		rxStar(rxLabel("a")),
		rxPlus(rxAlt(rxLabel("a"), rxLabel("b"))),
		rxCat(rxLabel("a"), rxNode("B"), rxLabel("b")),
		rxStar(rxInv("a")),
		rxCat(rxStar(rxLabel("a")), rxOpt(rxLabel("c"))),
		rxLabel("zzz-not-present"), // dead label
		rxCat(rxNode("A"), rxStar(rxAlt(rxLabel("a"), rxInv("b")))),
		{Op: ast.RxLabel, Label: ""}, // wildcard edge
	}
	nfas := make([]*NFA, len(exprs))
	for i, rx := range exprs {
		n, err := Compile(rx)
		if err != nil {
			t.Fatalf("compile regex %d: %v", i, err)
		}
		nfas[i] = n
	}
	return nfas
}

// TestStateTabSparseFallback forces the sparse branch and checks it
// stores what the dense branch stores.
func TestStateTabSparseFallback(t *testing.T) {
	dense := newStateTab[int32](nil, 8, 3)
	sparse := &stateTab[int32]{states: 3, sparse: map[int64]int32{}}
	for i := 0; i < 10; i++ {
		u, q := int32(i%8), int32(i%3)
		dense.set(u, q, dense.get(u, q)+1)
		sparse.set(u, q, sparse.get(u, q)+1)
	}
	for u := int32(0); u < 8; u++ {
		for q := int32(0); q < 3; q++ {
			if dense.get(u, q) != sparse.get(u, q) {
				t.Fatalf("dense/sparse disagree at (%d,%d): %d vs %d", u, q, dense.get(u, q), sparse.get(u, q))
			}
		}
	}
	// Above the dense limit the constructor must pick the sparse form.
	big := newStateTab[cfgState](nil, denseLimit, 2)
	if big.dense != nil {
		t.Fatal("stateTab over the dense limit still allocated a dense table")
	}
}

// TestShortestRetainsOnlyKeptViewSteps: a weighted result keeps the
// view steps on its kept walks' arrival chains and none of the others
// its search discovered.
func TestShortestRetainsOnlyKeptViewSteps(t *testing.T) {
	g, segs := randWeightedGraph(rand.New(rand.NewSource(5)), 8)
	views := viewResolverFunc(func(_ string, from ppg.NodeID) ([]Segment, error) { return segs[from], nil })
	nfa, err := Compile(rxStar(&ast.Regex{Op: ast.RxView, Label: "w"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		res, err := NewEngine(g, views).ShortestPaths(1, nfa, k)
		if err != nil {
			t.Fatal(err)
		}
		onWalks := map[int32]bool{}
		for i := 0; i < res.Len(); i++ {
			for _, a := range res.Arrivals(i) {
				for ; a >= 0; a = res.arrivals[a].parent {
					if isViewStep(res.arrivals[a].via) {
						onWalks[a] = true
					}
				}
			}
		}
		if len(onWalks) == 0 || len(res.views) != len(onWalks) {
			t.Errorf("k=%d: result retains %d view steps, its kept walks take %d", k, len(res.views), len(onWalks))
		}
	}
}

// describeShortest renders every destination, kept walk, cost and hop
// count of a k-shortest result.
func describeShortest(r *Shortest) string {
	var b strings.Builder
	for i := 0; i < r.Len(); i++ {
		_, dst := r.Dest(i)
		for _, a := range r.Arrivals(i) {
			fmt.Fprintf(&b, "%d %+v %g %d\n", dst, r.Walk(a), r.Cost(a), r.Hops(a))
		}
	}
	return b.String()
}

// TestRecycledScratchNeverLeaks: searches draw their dense tables,
// arena, frontier and queues from pools. Results held from SNB-2000
// searches must not change while later searches — on a smaller graph,
// and one stopped by the frontier budget — reuse that memory, and
// rerunning the first searches must reproduce the heap reference. The
// reference runs last: it allocates enough to make the collector empty
// the pools, which would let the searches before it start fresh.
func TestRecycledScratchNeverLeaks(t *testing.T) {
	ds := snb.Generate(snb.Config{Persons: 2000, Seed: 1}, ppg.NewIDGen(1))
	nfa, err := Compile(rxStar(rxLabel("knows")))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ds.Social, nil)
	src := ds.Persons[0]
	search := func(e *Engine) (*Shortest, []ppg.NodeID, error) {
		sp, err := e.ShortestPaths(src, nfa, 3)
		if err != nil {
			return nil, nil, err
		}
		reach, err := e.Reachable(src, nfa)
		return sp, reach, err
	}
	heldSP, heldReach, err := search(eng)
	if err != nil {
		t.Fatal(err)
	}
	heldSPText, heldReachCopy := describeShortest(heldSP), slices.Clone(heldReach)

	small, ids := diffGraph(t, rand.New(rand.NewSource(3)))
	smallNFA, err := Compile(rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
	if err != nil {
		t.Fatal(err)
	}
	smallEng := NewEngine(small, nil)
	if _, err := smallEng.ShortestPaths(ids[0], smallNFA, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := smallEng.Reachable(ids[0], smallNFA); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{10, 500} {
		stopped := NewEngine(ds.Social, nil)
		stopped.Attach(gov.New(context.Background(), gov.Limits{MaxPathFrontier: limit}), nil)
		if _, err := stopped.ShortestPaths(src, nfa, 3); err == nil {
			t.Fatalf("k-shortest search under a frontier budget of %d was not stopped", limit)
		}
		stopped.Attach(gov.New(context.Background(), gov.Limits{MaxPathFrontier: limit}), nil)
		if _, err := stopped.Reachable(src, nfa); err == nil {
			t.Fatalf("reachability sweep under a frontier budget of %d was not stopped", limit)
		}
	}

	// Checked before the rerun, which would write the same contents into
	// recycled memory again.
	if describeShortest(heldSP) != heldSPText || !slices.Equal(heldReach, heldReachCopy) {
		t.Fatal("held results changed while later searches ran")
	}
	againSP, againReach, err := search(eng)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := heapShortestPaths(eng, src, nfa, 3)
	if err != nil {
		t.Fatal(err)
	}
	refOne, _, err := heapShortestPaths(eng, src, nfa, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSP := describeShortest(ref)
	var wantReach []ppg.NodeID
	for i := 0; i < refOne.Len(); i++ {
		_, dst := refOne.Dest(i)
		wantReach = append(wantReach, dst)
	}
	if heldSP.Len() < 100 || heldSPText != wantSP || !slices.Equal(heldReachCopy, wantReach) {
		t.Fatalf("first search: %d destinations, %d reached; want the heap reference's %d", heldSP.Len(), len(heldReachCopy), len(wantReach))
	}
	if got := describeShortest(againSP); got != wantSP {
		t.Error("rerun k-shortest search differs from the heap reference")
	}
	if !slices.Equal(againReach, wantReach) {
		t.Error("rerun reachability sweep differs from the heap reference")
	}
	if describeShortest(heldSP) != wantSP || !slices.Equal(heldReach, heldReachCopy) {
		t.Error("held results changed during the rerun")
	}
}

// TestSearchScratchSurvivesGC checks that a k-shortest search keeps its
// scratch — the arrival arena, the levels and the dense configuration
// table — across garbage collections: after two collections the same
// search allocates no more than the result it returns.
func TestSearchScratchSurvivesGC(t *testing.T) {
	nfa, err := Compile(rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(benchGraph(800, 4), nil)
	search := func() *Shortest {
		r, err := eng.ShortestPaths(1, nfa, 3)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	first := search()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second := search()
	runtime.ReadMemStats(&after)
	if first.Len() != second.Len() || first.Len() == 0 {
		t.Fatalf("searches reached %d and %d destinations", first.Len(), second.Len())
	}
	// The result is the Shortest and its four slices (no view steps
	// here); the allocator rounds each up by less than a page.
	const objects, page = 5, 8 << 10
	held := uint64(unsafe.Sizeof(*second)) +
		uint64(cap(second.arrivals))*uint64(unsafe.Sizeof(carrival{})) +
		4*uint64(cap(second.dsts)+cap(second.off)+cap(second.kept))
	if got := after.Mallocs - before.Mallocs; got > objects {
		t.Errorf("search after GC made %d allocations; its result is %d objects", got, objects)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > held+objects*page {
		t.Errorf("search after GC allocated %d bytes; its result holds %d", got, held)
	}
}
