package rpq

import (
	"math/rand"
	"slices"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/ppg"
)

// PathResult is one path found by the search, with its cost (hop
// count for plain edges, summed segment costs for views) and its
// expansion in graph terms.
type PathResult struct {
	Src, Dst ppg.NodeID
	Cost     float64
	Hops     int
	Nodes    []ppg.NodeID
	Edges    []ppg.EdgeID
}

// Walk reconstructs the graph-level walk ending in arrival a,
// translating ordinals back to identifiers.
func (r *Shortest) Walk(a int32) PathResult {
	res := PathResult{
		Src:   r.snap.NodeID(r.arrivals[0].u),
		Dst:   r.snap.NodeID(r.arrivals[a].u),
		Cost:  r.arrivals[a].cost,
		Hops:  int(r.arrivals[a].hops),
		Nodes: make([]ppg.NodeID, r.seqLen(a, false)),
		Edges: make([]ppg.EdgeID, r.seqLen(a, true)),
	}
	nodes, edges := r.cursor(a, false), r.cursor(a, true)
	for i := len(res.Nodes) - 1; i >= 0; i-- {
		v, _ := nodes.prev()
		res.Nodes[i] = ppg.NodeID(v)
	}
	for i := len(res.Edges) - 1; i >= 0; i-- {
		v, _ := edges.prev()
		res.Edges[i] = ppg.EdgeID(v)
	}
	return res
}

// TestOrdsMatchesWalk: Ords reads every kept walk — plain edge steps
// and PATH-view steps alike — as the snapshot ordinals of the node and
// edge sequences Walk reconstructs through the chain cursor.
func TestOrdsMatchesWalk(t *testing.T) {
	g, segs := randWeightedGraph(rand.New(rand.NewSource(5)), 8)
	views := viewResolverFunc(func(_ string, from ppg.NodeID) ([]Segment, error) { return segs[from], nil })
	for _, rx := range []*ast.Regex{
		rxStar(&ast.Regex{Op: ast.RxView, Label: "w"}),
		rxStar(&ast.Regex{Op: ast.RxAnyEdge}),
	} {
		nfa, err := Compile(rx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(g, views).ShortestPaths(1, nfa, 3)
		if err != nil {
			t.Fatal(err)
		}
		walks := 0
		for i := 0; i < res.Len(); i++ {
			for _, a := range res.Arrivals(i) {
				w := res.Walk(a)
				prefix := []int32{-7}
				nodes, edges, ok := res.Ords(a, prefix, prefix[:0:0])
				if !ok || nodes[0] != -7 {
					t.Fatalf("arrival %d: ok %v, prefix %v", a, ok, nodes)
				}
				var gotNodes []ppg.NodeID
				for _, u := range nodes[1:] {
					gotNodes = append(gotNodes, res.snap.NodeID(u))
				}
				var gotEdges []ppg.EdgeID
				for _, e := range edges {
					gotEdges = append(gotEdges, res.snap.EdgeID(e))
				}
				if !slices.Equal(gotNodes, w.Nodes) || !slices.Equal(gotEdges, w.Edges) {
					t.Fatalf("arrival %d: Ords %v %v, Walk %v %v", a, gotNodes, gotEdges, w.Nodes, w.Edges)
				}
				walks++
			}
		}
		if walks < 2 {
			t.Fatalf("degenerate search: %d walks", walks)
		}
	}
}
