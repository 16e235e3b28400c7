package rpq

import (
	"math/rand"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/ppg"
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
	dense := newStateTab[int32](8, 3)
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
	big := newStateTab[cfgState](denseLimit, 2)
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
