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

// TestStateTabSparseFallback forces the sparse branch and checks the
// counting semantics match the dense branch.
func TestStateTabSparseFallback(t *testing.T) {
	dense := newStateTab(8, 3)
	sparse := &stateTab{states: 3, sparse: map[int64]int32{}}
	for i := 0; i < 10; i++ {
		u, q := int32(i%8), int32(i%3)
		dense.inc(u, q)
		sparse.inc(u, q)
	}
	for u := int32(0); u < 8; u++ {
		for q := int32(0); q < 3; q++ {
			if dense.get(u, q) != sparse.get(u, q) {
				t.Fatalf("dense/sparse disagree at (%d,%d): %d vs %d", u, q, dense.get(u, q), sparse.get(u, q))
			}
		}
	}
	// Above the dense limit the constructor must pick the sparse form.
	big := newStateTab(denseLimit, 2)
	if big.dense != nil {
		t.Fatal("stateTab over the dense limit still allocated a dense table")
	}
}
