package rpq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/obs"
	"gcore/internal/ppg"
)

// The k-shortest search before its frontier became FIFO levels: a
// binary min-heap in (cost, hops, sequence) order, relaxing every
// arrival into a configuration settled fewer than k times. It survives
// as the oracle ShortestPaths must reproduce exactly.

type oracleItem struct {
	cost float64
	hops int
	seq  int
	idx  int
}

type oracleHeap []oracleItem

func oracleLess(a, b oracleItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.seq < b.seq
}

func (h *oracleHeap) push(it oracleItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !oracleLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *oracleHeap) pop() oracleItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && oracleLess(s[l], s[m]) {
			m = l
		}
		if r < n && oracleLess(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// heapShortestPaths is the heap kernel. It shares accept and finish
// with ShortestPaths and reports how many arrivals it queued.
func heapShortestPaths(e *Engine, src ppg.NodeID, nfa *NFA, k int) (*Shortest, int, error) {
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return &Shortest{}, 0, nil
	}
	snap := e.snap
	trans := e.resolve(nfa)
	st := &shortestState{
		k:        int32(k),
		acc:      int32(nfa.accept),
		cfg:      newStateTab[cfgState](nil, snap.NumNodes(), nfa.NumStates()),
		arrivals: []carrival{{u: srcOrd, q: int32(nfa.start), parent: -1, via: noStep, next: -1}},
	}
	pops := newStateTab[int32](nil, snap.NumNodes(), nfa.NumStates())
	h := oracleHeap{{idx: 0}}
	seq := 1
	relax := func(parent int, base *carrival, u, q int32, cost float64, hops, via int32) {
		if pops.get(u, q) >= st.k {
			return
		}
		c := base.cost + cost
		hp := base.hops + hops
		st.arrivals = append(st.arrivals, carrival{u: u, q: q, cost: c, hops: hp, parent: int32(parent), via: via, next: -1})
		h.push(oracleItem{cost: c, hops: int(hp), seq: seq, idx: len(st.arrivals) - 1})
		seq++
	}
	res := &Shortest{snap: snap}
	for len(h) > 0 {
		it := h.pop()
		a := st.arrivals[it.idx]
		if pops.get(a.u, a.q) >= st.k {
			continue
		}
		pops.set(a.u, a.q, pops.get(a.u, a.q)+1)
		if a.q == st.acc {
			res.arrivals, res.views = st.arrivals, st.views
			st.accept(res, a.u, int32(it.idx))
		}
		base := a
		for _, rt := range trans[a.q] {
			switch rt.kind {
			case tEps:
				relax(it.idx, &base, a.u, rt.to, 0, 0, noStep)
			case tNode:
				if rt.lid >= 0 && snap.NodeHasLabel(a.u, rt.lid) {
					relax(it.idx, &base, a.u, rt.to, 0, 0, noStep)
				}
			case tEdge:
				if rt.lid == deadLabel {
					continue
				}
				if rt.inverse {
					for _, eo := range snap.In(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							relax(it.idx, &base, snap.Src(eo), rt.to, 1, 1, eo)
						}
					}
				} else {
					for _, eo := range snap.Out(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							relax(it.idx, &base, snap.Dst(eo), rt.to, 1, 1, eo)
						}
					}
				}
			case tView:
				segs, err := e.views.Segments(rt.view, snap.NodeID(a.u))
				if err != nil {
					return nil, 0, err
				}
				for _, s := range segs {
					to, ok := snap.Ord(s.To)
					if !ok || pops.get(to, rt.to) >= st.k {
						continue
					}
					via := s.Nodes
					if len(via) > 0 && via[0] == snap.NodeID(a.u) {
						via = via[1:]
					}
					st.views = append(st.views, viewStep{nodes: via, edges: s.Edges})
					relax(it.idx, &base, to, rt.to, s.Cost, int32(len(s.Edges)), viewCode(len(st.views)-1))
				}
			}
		}
	}
	res.finish(st)
	return res, len(st.arrivals) - 1, nil
}

// oracleRegex draws a regex leaning on what stresses the frontier:
// ε-moves (optional and starred sub-expressions, ε-cycles), node tests,
// inverse atoms, wildcards and, when views is set, the weighted view v.
func oracleRegex(r *rand.Rand, depth int, views bool) *ast.Regex {
	if depth == 0 {
		atoms := []*ast.Regex{
			rxLabel("a"), rxLabel("b"), rxInv("a"), rxInv("c"),
			rxNode("A"), rxNode("B"),
			{Op: ast.RxAnyEdge}, {Op: ast.RxAnyInv}, {Op: ast.RxEps},
		}
		if views && r.Intn(2) == 0 {
			return &ast.Regex{Op: ast.RxView, Label: "v"}
		}
		return atoms[r.Intn(len(atoms))]
	}
	switch r.Intn(7) {
	case 0, 1:
		return rxCat(oracleRegex(r, depth-1, views), oracleRegex(r, depth-1, views))
	case 2:
		return rxAlt(oracleRegex(r, depth-1, views), oracleRegex(r, depth-1, views))
	case 3:
		return rxStar(oracleRegex(r, depth-1, views))
	case 4:
		return rxPlus(oracleRegex(r, depth-1, views))
	case 5:
		return rxStar(rxOpt(oracleRegex(r, depth-1, views)))
	default:
		return oracleRegex(r, 0, views)
	}
}

// oracleView is a weighted view over g's nodes whose costs are drawn
// from a few binary-exact values, so sums of different walks tie
// exactly and the tie-break decides.
func oracleView(r *rand.Rand, g *ppg.Graph) ViewResolver {
	costs := []float64{0.25, 0.5, 0.75, 1, 1.5}
	ids := g.NodeIDs()
	segs := map[ppg.NodeID][]Segment{}
	eid := ppg.EdgeID(90_000)
	for _, from := range ids {
		for n := r.Intn(4); n > 0; n-- {
			to := ids[r.Intn(len(ids))]
			segs[from] = append(segs[from], Segment{From: from, To: to, Cost: costs[r.Intn(len(costs))],
				Nodes: []ppg.NodeID{from, to}, Edges: []ppg.EdgeID{eid}})
			eid++
		}
	}
	return viewResolverFunc(func(_ string, from ppg.NodeID) ([]Segment, error) { return segs[from], nil })
}

// TestShortestMatchesHeapReference runs ShortestPaths and the heap
// kernel on random graphs × random regexes × k ∈ {1, 2, 3, 5}, with and
// without a weighted view of tying costs: destinations, kept arrivals,
// walks, costs and hops must be identical, and the FIFO search may queue
// no more arrivals than the heap.
func TestShortestMatchesHeapReference(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for trial := 0; trial < 40; trial++ {
		g, ids := diffGraph(t, r)
		weighted := trial%2 == 1
		var views ViewResolver
		if weighted {
			views = oracleView(r, g)
		}
		eng := NewEngine(g, views)
		var col obs.Collector
		eng.Attach(nil, &col)
		for ri := 0; ri < 6; ri++ {
			rx := oracleRegex(r, 3, weighted)
			nfa, err := Compile(rx)
			if err != nil {
				t.Fatalf("compile %s: %v", rx, err)
			}
			for _, src := range ids[:3] {
				for _, k := range []int{1, 2, 3, 5} {
					name := fmt.Sprintf("trial %d regex %s src %d k=%d", trial, rx, src, k)
					want, wantArr, err := heapShortestPaths(eng, src, nfa, k)
					if err != nil {
						t.Fatalf("%s: heap: %v", name, err)
					}
					col.Reset(nil, false)
					got, err := eng.ShortestPaths(src, nfa, k)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if arr := col.Stats().Ops[obs.OpShortest].Arrivals; arr > int64(wantArr) {
						t.Fatalf("%s: %d arrivals, heap queued %d", name, arr, wantArr)
					}
					if got.Len() != want.Len() {
						t.Fatalf("%s: %d destinations, heap %d", name, got.Len(), want.Len())
					}
					for i := 0; i < want.Len(); i++ {
						if gd, wd := fmt.Sprint(got.Dest(i)), fmt.Sprint(want.Dest(i)); gd != wd {
							t.Fatalf("%s: destination %d is %s, heap %s", name, i, gd, wd)
						}
						ga, wa := got.Arrivals(i), want.Arrivals(i)
						if !reflect.DeepEqual(ga, wa) {
							t.Fatalf("%s: destination %d arrivals %v, heap %v", name, i, ga, wa)
						}
						for j, a := range wa {
							gw, ww := got.Walk(ga[j]), want.Walk(a)
							if !reflect.DeepEqual(gw, ww) || got.Cost(ga[j]) != want.Cost(a) || got.Hops(ga[j]) != want.Hops(a) {
								t.Fatalf("%s: destination %d walk %d is %+v, heap %+v", name, i, j, gw, ww)
							}
						}
					}
				}
			}
		}
	}
}
