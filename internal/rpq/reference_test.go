package rpq

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gcore/internal/ppg"
)

// Reference implementation for cross-checking: build the product of
// graph and automaton *explicitly* as a plain weighted digraph and run
// textbook Dijkstra on it. The engine must report exactly the same
// optimal cost for every destination.

type refEdge struct {
	to   int
	cost float64
	eid  ppg.EdgeID // the graph edge consumed; 0 for ε and node-test steps
}

// buildProduct expands every (node, state) configuration eagerly.
func buildProduct(g *ppg.Graph, nfa *NFA) (adj map[int][]refEdge, cfgID func(ppg.NodeID, int) int) {
	nodeIDs := g.NodeIDs()
	index := map[ppg.NodeID]int{}
	for i, n := range nodeIDs {
		index[n] = i
	}
	q := nfa.NumStates()
	cfgID = func(n ppg.NodeID, s int) int { return index[n]*q + s }
	outs, ins := adjacency(g)
	adj = map[int][]refEdge{}
	for _, n := range nodeIDs {
		node, _ := g.Node(n)
		for s := 0; s < q; s++ {
			from := cfgID(n, s)
			for _, t := range nfa.trans[s] {
				switch t.kind {
				case tEps:
					adj[from] = append(adj[from], refEdge{to: cfgID(n, t.to)})
				case tNode:
					if node.Labels.Has(t.label) {
						adj[from] = append(adj[from], refEdge{to: cfgID(n, t.to)})
					}
				case tEdge:
					if t.inverse {
						for _, eid := range ins[n] {
							e, _ := g.Edge(eid)
							if t.label == "" || e.Labels.Has(t.label) {
								adj[from] = append(adj[from], refEdge{cfgID(e.Src, t.to), 1, eid})
							}
						}
					} else {
						for _, eid := range outs[n] {
							e, _ := g.Edge(eid)
							if t.label == "" || e.Labels.Has(t.label) {
								adj[from] = append(adj[from], refEdge{cfgID(e.Dst, t.to), 1, eid})
							}
						}
					}
				}
			}
		}
	}
	return adj, cfgID
}

type refItem struct {
	cfg  int
	dist float64
}
type refPQ []refItem

func (p refPQ) Len() int           { return len(p) }
func (p refPQ) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p refPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x any)        { *p = append(*p, x.(refItem)) }
func (p *refPQ) Pop() any          { o := *p; x := o[len(o)-1]; *p = o[:len(o)-1]; return x }

func refDijkstra(adj map[int][]refEdge, start int) map[int]float64 {
	dist := map[int]float64{start: 0}
	h := &refPQ{{start, 0}}
	done := map[int]bool{}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if done[it.cfg] {
			continue
		}
		done[it.cfg] = true
		for _, e := range adj[it.cfg] {
			nd := it.dist + e.cost
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				heap.Push(h, refItem{e.to, nd})
			}
		}
	}
	return dist
}

// TestQuickEngineMatchesExplicitProduct cross-checks ShortestPaths and
// Reachable against the explicit product construction on random
// graphs and random regexes.
func TestQuickEngineMatchesExplicitProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 7)
		rx := randRegex(r, 3)
		nfa, err := Compile(rx)
		if err != nil {
			return false
		}
		eng := NewEngine(g, nil)
		got, err := walks(eng.ShortestPaths(1, nfa, 1))
		if err != nil {
			return false
		}
		reach, err := eng.Reachable(1, nfa)
		if err != nil {
			return false
		}
		reachSet := map[ppg.NodeID]bool{}
		for _, n := range reach {
			reachSet[n] = true
		}

		adj, cfgID := buildProduct(g, nfa)
		dist := refDijkstra(adj, cfgID(1, nfa.start))
		for _, n := range g.NodeIDs() {
			want, ok := dist[cfgID(n, nfa.accept)]
			gotPaths, gotOK := got[n]
			if ok != gotOK || ok != reachSet[n] {
				t.Logf("seed %d node %d: ref reachable=%v engine=%v reach=%v (regex %s)",
					seed, n, ok, gotOK, reachSet[n], rx)
				return false
			}
			if ok && gotPaths[0].Cost != want {
				t.Logf("seed %d node %d: ref cost %v engine %v (regex %s)",
					seed, n, want, gotPaths[0].Cost, rx)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randLabelledGraph builds a random graph with labels drawn from the
// randRegex alphabet {a, b} plus node labels.
func randLabelledGraph(r *rand.Rand, n int) *ppg.Graph {
	g := ppg.New("ref")
	nodeLabels := []string{"N", "M"}
	for i := 1; i <= n; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i), Labels: ppg.NewLabels(nodeLabels[r.Intn(2)])}); err != nil {
			panic(err)
		}
	}
	eid := ppg.EdgeID(100)
	labels := []string{"a", "b"}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if r.Intn(3) != 0 {
				continue
			}
			if err := g.AddEdge(&ppg.Edge{ID: eid, Src: ppg.NodeID(i), Dst: ppg.NodeID(j),
				Labels: ppg.NewLabels(labels[r.Intn(2)])}); err != nil {
				panic(err)
			}
			eid++
		}
	}
	return g
}

// TestQuickKShortestMonotone: the k results per destination are in
// non-decreasing cost order and pairwise distinct.
func TestQuickKShortestMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 6)
		nfa, err := Compile(rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
		if err != nil {
			return false
		}
		res, err := walks(NewEngine(g, nil).ShortestPaths(1, nfa, 4))
		if err != nil {
			return false
		}
		for _, paths := range res {
			seen := map[WalkSig]bool{}
			for i, p := range paths {
				if i > 0 && p.Cost < paths[i-1].Cost {
					return false
				}
				if seen[p.Signature()] {
					return false
				}
				seen[p.Signature()] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNodeTestRegexProduct cross-checks regexes containing node
// label tests against the explicit product too.
func TestQuickNodeTestRegexProduct(t *testing.T) {
	rx := rxCat(rxStar(rxLabel("a")), rxNode("M"), rxStar(rxLabel("b")))
	nfa, err := Compile(rx)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 6)
		eng := NewEngine(g, nil)
		got, err := walks(eng.ShortestPaths(1, nfa, 1))
		if err != nil {
			return false
		}
		adj, cfgID := buildProduct(g, nfa)
		dist := refDijkstra(adj, cfgID(1, nfa.start))
		for _, n := range g.NodeIDs() {
			want, ok := dist[cfgID(n, nfa.accept)]
			paths, gotOK := got[n]
			if ok != gotOK {
				return false
			}
			if ok && paths[0].Cost != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// refKBest returns, per product configuration, the costs of its k
// cheapest walks from start (with multiplicity, ascending), by
// Bellman-Ford-style rounds over the explicit product: round i holds
// the k best among walks of at most i steps, and the rounds stop at
// the fixpoint. The test regexes are unambiguous and free of ε-cycles,
// so product walks into an accepting configuration correspond one to
// one to conforming graph walks.
func refKBest(adj map[int][]refEdge, start, k int) map[int][]float64 {
	best := map[int][]float64{start: {0}}
	for {
		next := map[int][]float64{start: {0}}
		for from, costs := range best {
			for _, e := range adj[from] {
				for _, c := range costs {
					next[e.to] = append(next[e.to], c+e.cost)
				}
			}
		}
		for cfg, costs := range next {
			sort.Float64s(costs)
			if len(costs) > k {
				next[cfg] = costs[:k]
			}
		}
		if reflect.DeepEqual(next, best) {
			return best
		}
		best = next
	}
}

// refReach returns the configurations reachable from start along adj.
func refReach(adj map[int][]refEdge, start int) map[int]bool {
	seen := map[int]bool{start: true}
	stack := []int{start}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[c] {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// walks reconstructs every kept walk of a k-shortest result, keyed by
// destination, cheapest first: the map form tests compare against.
func walks(s *Shortest, err error) (map[ppg.NodeID][]PathResult, error) {
	if err != nil {
		return nil, err
	}
	out := map[ppg.NodeID][]PathResult{}
	for i := 0; i < s.Len(); i++ {
		_, dst := s.Dest(i)
		for _, a := range s.Arrivals(i) {
			out[dst] = append(out[dst], s.Walk(a))
		}
	}
	return out, nil
}

// reverseWalk is p read from its last node to its first.
func reverseWalk(p PathResult) PathResult {
	r := PathResult{Src: p.Dst, Dst: p.Src, Cost: p.Cost, Hops: p.Hops}
	for i := len(p.Nodes) - 1; i >= 0; i-- {
		r.Nodes = append(r.Nodes, p.Nodes[i])
	}
	for i := len(p.Edges) - 1; i >= 0; i-- {
		r.Edges = append(r.Edges, p.Edges[i])
	}
	return r
}

// conforms replays a returned path against the graph and the
// automaton: consecutive nodes must be joined by the listed edges,
// traversed in a direction some transition allows, and the automaton
// must accept at the last node.
func conforms(g *ppg.Graph, nfa *NFA, p PathResult) bool {
	if len(p.Nodes) != len(p.Edges)+1 || p.Nodes[0] != p.Src || p.Nodes[len(p.Nodes)-1] != p.Dst {
		return false
	}
	closure := func(states map[int]bool, n ppg.NodeID) {
		node, _ := g.Node(n)
		for grew := true; grew; {
			grew = false
			for q := range states {
				for _, t := range nfa.trans[q] {
					if (t.kind == tEps || t.kind == tNode && node.Labels.Has(t.label)) && !states[t.to] {
						states[t.to] = true
						grew = true
					}
				}
			}
		}
	}
	states := map[int]bool{nfa.start: true}
	closure(states, p.Nodes[0])
	for i, eid := range p.Edges {
		ed, ok := g.Edge(eid)
		if !ok {
			return false
		}
		from, to := p.Nodes[i], p.Nodes[i+1]
		next := map[int]bool{}
		for q := range states {
			for _, t := range nfa.trans[q] {
				if t.kind != tEdge || t.label != "" && !ed.Labels.Has(t.label) {
					continue
				}
				if !t.inverse && ed.Src == from && ed.Dst == to || t.inverse && ed.Dst == from && ed.Src == to {
					next[t.to] = true
				}
			}
		}
		closure(next, to)
		states = next
	}
	return states[nfa.accept]
}

// TestEngineMatchesExplicitProduct checks every kernel against the
// explicit product on random labelled graphs, over regexes covering
// labels, inverses, node tests, wildcards, unknown labels,
// alternation, closure and concatenation: the k cheapest walk costs
// per destination for k ∈ {1,2,3} (each kept arrival's walk replayed
// against graph and automaton, and the kernel's exact walk comparison
// checked against the WalkSig reference), the Reachable set,
// AllPaths.Destinations, and
// every Projection — the graph nodes and edges of the product edges
// lying on some walk from the start to the accepting configuration.
func TestEngineMatchesExplicitProduct(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g, ids := diffGraph(t, r)
		eng := NewEngine(g, nil)
		nodeIDs := g.NodeIDs()
		for ni, nfa := range diffRegexes(t) {
			adj, cfgID := buildProduct(g, nfa)
			q := nfa.NumStates()
			radj := map[int][]refEdge{} // adj reversed
			for from, es := range adj {
				for _, e := range es {
					radj[e.to] = append(radj[e.to], refEdge{to: from})
				}
			}
			for _, src := range ids[:3] {
				start := cfgID(src, nfa.start)
				fwd := refReach(adj, start)
				var wantDst []ppg.NodeID
				for _, n := range nodeIDs {
					if fwd[cfgID(n, nfa.accept)] {
						wantDst = append(wantDst, n)
					}
				}

				for k := 1; k <= 3; k++ {
					got, err := eng.ShortestPaths(src, nfa, k)
					if err != nil {
						t.Fatalf("trial %d regex %d: shortest: %v", trial, ni, err)
					}
					kbest := refKBest(adj, start, k)
					if got.Len() != len(wantDst) {
						t.Fatalf("trial %d regex %d src %d k=%d: %d destinations, reference has %d", trial, ni, src, k, got.Len(), len(wantDst))
					}
					for i, dst := range wantDst {
						if _, id := got.Dest(i); id != dst {
							t.Fatalf("trial %d regex %d src %d k=%d: destination %d is %d, reference %d", trial, ni, src, k, i, id, dst)
						}
						var costs []float64
						kept := got.Arrivals(i)
						for ai, a := range kept {
							p := got.Walk(a)
							if !conforms(g, nfa, p) || p.Cost != float64(p.Hops) || p.Hops != len(p.Edges) ||
								p.Cost != got.Cost(a) || p.Hops != got.Hops(a) {
								t.Fatalf("trial %d regex %d src %d k=%d: path %+v does not conform", trial, ni, src, k, p)
							}
							// The exact chain comparison must agree with the
							// signature reference, read forwards and backwards,
							// against every walk kept for the destination.
							for _, b := range kept[:ai+1] {
								q := got.Walk(b)
								if same, want := got.SameWalk(a, got, b, false), p.Signature() == q.Signature(); same != want || (a == b) != same {
									t.Fatalf("trial %d regex %d src %d k=%d: SameWalk(%v, %v) = %v, signatures say %v", trial, ni, src, k, p, q, same, want)
								}
								if same, want := got.SameWalk(a, got, b, true), p.Signature() == reverseWalk(q).Signature(); same != want {
									t.Fatalf("trial %d regex %d src %d k=%d: reversed SameWalk(%v, %v) = %v, signatures say %v", trial, ni, src, k, p, q, same, want)
								}
							}
							costs = append(costs, p.Cost)
						}
						if want := kbest[cfgID(dst, nfa.accept)]; !reflect.DeepEqual(costs, want) {
							t.Fatalf("trial %d regex %d src %d dst %d k=%d: costs %v, reference %v", trial, ni, src, dst, k, costs, want)
						}
					}
				}

				reach, err := eng.Reachable(src, nfa)
				if err != nil {
					t.Fatal(err)
				}
				if len(reach)+len(wantDst) > 0 && !reflect.DeepEqual(reach, wantDst) {
					t.Fatalf("trial %d regex %d src %d: Reachable %v, reference %v", trial, ni, src, reach, wantDst)
				}

				ap, err := eng.AllPaths(src, nfa)
				if err != nil {
					t.Fatal(err)
				}
				if dsts := ap.Destinations(); len(dsts)+len(wantDst) > 0 && !reflect.DeepEqual(dsts, wantDst) {
					t.Fatalf("trial %d regex %d src %d: Destinations %v, reference %v", trial, ni, src, dsts, wantDst)
				}
				for _, dst := range wantDst {
					// Configurations on some start→target walk: forward
					// reachable and backward reachable from the target.
					bwd := refReach(radj, cfgID(dst, nfa.accept))
					nodeSet := map[ppg.NodeID]bool{}
					edgeSet := map[ppg.EdgeID]bool{}
					for c := range fwd {
						if !bwd[c] {
							continue
						}
						nodeSet[nodeIDs[c/q]] = true
						for _, e := range adj[c] {
							if e.eid != 0 && bwd[e.to] {
								edgeSet[e.eid] = true
							}
						}
					}
					var wantNodes []ppg.NodeID
					for n := range nodeSet {
						wantNodes = append(wantNodes, n)
					}
					var wantEdges []ppg.EdgeID
					for e := range edgeSet {
						wantEdges = append(wantEdges, e)
					}
					sort.Slice(wantNodes, func(i, j int) bool { return wantNodes[i] < wantNodes[j] })
					sort.Slice(wantEdges, func(i, j int) bool { return wantEdges[i] < wantEdges[j] })
					gn, ge, ok := ap.Projection(dst)
					if !ok || !reflect.DeepEqual(gn, wantNodes) || !reflect.DeepEqual(ge, wantEdges) {
						t.Fatalf("trial %d regex %d src %d dst %d: Projection %v %v %v, reference %v %v",
							trial, ni, src, dst, gn, ge, ok, wantNodes, wantEdges)
					}
				}
				if _, _, ok := ap.Projection(ppg.NodeID(99_999)); ok {
					t.Fatal("Projection accepted a node outside the graph")
				}
			}
		}
	}
}

// TestEdgeStepsMatchAdjacency: eachEdgeStep — the adjacency the
// simple-path and trail baselines walk — visits exactly the ppg
// adjacency lists filtered by label, in ascending edge order.
func TestEdgeStepsMatchAdjacency(t *testing.T) {
	type step struct {
		eid  ppg.EdgeID
		next ppg.NodeID
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		g, ids := diffGraph(t, r)
		eng := NewEngine(g, nil)
		outs, ins := adjacency(g)
		for _, n := range ids {
			for _, inverse := range []bool{false, true} {
				for _, label := range []string{"", "a", "b", "zzz-not-present"} {
					var got []step
					if err := eng.eachEdgeStep(n, inverse, label, func(eid ppg.EdgeID, next ppg.NodeID) error {
						got = append(got, step{eid, next})
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					list := outs[n]
					if inverse {
						list = ins[n]
					}
					var want []step
					for _, eid := range list {
						ed, _ := g.Edge(eid)
						if label != "" && !ed.Labels.Has(label) {
							continue
						}
						if inverse {
							want = append(want, step{eid, ed.Src})
						} else {
							want = append(want, step{eid, ed.Dst})
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d node %d inverse=%v label %q: steps %v, adjacency %v", trial, n, inverse, label, got, want)
					}
				}
			}
		}
	}
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
