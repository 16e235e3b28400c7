package rpq

import (
	"fmt"
	"slices"
	"sort"

	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/obs"
	"gcore/internal/ppg"
)

// Product search. The kernels behind ShortestPaths, Reachable and
// AllPaths walk the graph × automaton product over the graph's CSR
// snapshot — node ordinals instead of identifiers, flat offset arrays
// instead of adjacency maps, interned integer labels instead of
// string-slice scans, and dense visit tables instead of map probes.
// Expansion follows the automaton's transition order and, within one
// edge transition, ascending edge identifiers (CSR ranges ascend
// exactly like ppg adjacency); that order plus the (cost, hops,
// sequence) heap order is the engine's fixed tie-break.

// Interned-label sentinels for resolved transitions. csr.NoLabel
// (absent from the snapshot) is remapped to deadLabel so it cannot
// collide with the wildcard.
const (
	wildcardLabel int32 = -1 // any-edge transition: matches every edge
	deadLabel     int32 = -2 // label absent from the snapshot: matches nothing
)

// rtrans is an NFA transition with its label resolved against one
// snapshot's interning.
type rtrans struct {
	kind    transKind
	to      int32
	inverse bool
	lid     int32
	view    string
}

// resolve maps an automaton's transition labels to interned ids,
// memoised per engine (one resolution per (engine, automaton) pair —
// concurrent searches share it).
func (e *Engine) resolve(nfa *NFA) [][]rtrans {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.resCache == nil {
		e.resCache = map[*NFA][][]rtrans{}
	}
	if r, ok := e.resCache[nfa]; ok {
		return r
	}
	out := make([][]rtrans, len(nfa.trans))
	for q, ts := range nfa.trans {
		rts := make([]rtrans, len(ts))
		for i, t := range ts {
			rt := rtrans{kind: t.kind, to: int32(t.to), inverse: t.inverse, view: t.label}
			switch t.kind {
			case tEdge:
				if t.label == "" {
					rt.lid = wildcardLabel
				} else if lid := e.snap.LabelID(t.label); lid != csr.NoLabel {
					rt.lid = lid
				} else {
					rt.lid = deadLabel
				}
			case tNode:
				if lid := e.snap.LabelID(t.label); lid != csr.NoLabel {
					rt.lid = lid
				} else {
					rt.lid = deadLabel
				}
			}
			rts[i] = rt
		}
		out[q] = rts
	}
	e.resCache[nfa] = out
	return out
}

// ccfg is a product configuration over ordinals.
type ccfg struct{ u, q int32 }

// stateTab holds one int32 per product configuration (visit counts,
// or with one state per node, a per-node slot): a flat dense
// array when |V|·|Q| is small enough, a map otherwise — the frontier
// loop never probes a Go map on graphs of ordinary size.
type stateTab struct {
	states int32
	dense  []int32
	sparse map[int64]int32
}

// denseLimit bounds the dense table at 4M entries (16 MB): beyond it
// the sparse fallback trades speed for memory.
const denseLimit = 1 << 22

func newStateTab(nodes, states int) *stateTab {
	t := &stateTab{states: int32(states)}
	if int64(nodes)*int64(states) <= denseLimit {
		t.dense = make([]int32, nodes*states)
	} else {
		t.sparse = make(map[int64]int32, 1024)
	}
	return t
}

func (t *stateTab) get(u, q int32) int32 {
	if t.dense != nil {
		return t.dense[int(u)*int(t.states)+int(q)]
	}
	return t.sparse[int64(u)*int64(t.states)+int64(q)]
}

func (t *stateTab) set(u, q, v int32) {
	if t.dense != nil {
		t.dense[int(u)*int(t.states)+int(q)] = v
		return
	}
	t.sparse[int64(u)*int64(t.states)+int64(q)] = v
}

func (t *stateTab) inc(u, q int32) {
	if t.dense != nil {
		t.dense[int(u)*int(t.states)+int(q)]++
		return
	}
	t.sparse[int64(u)*int64(t.states)+int64(q)]++
}

// expandOrdinal enumerates the product transitions leaving (u, q) in
// deterministic order: ε and node tests as listed (zero cost, same
// node), edge transitions along ascending edge ordinals, view
// transitions along the resolver's segment order. Regular edge
// steps emit (viaEdge ≥ 0, nil slices) — the step's node is the
// emitted ordinal itself, so nothing is allocated per step. View
// steps pass their expansion through in graph terms.
func (e *Engine) expandOrdinal(rts []rtrans, u int32,
	emit func(v, q int32, cost float64, hops int32, viaEdge int32, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID)) error {
	snap := e.snap
	for _, rt := range rts {
		switch rt.kind {
		case tEps:
			emit(u, rt.to, 0, 0, -1, nil, nil)
		case tNode:
			if rt.lid >= 0 && snap.NodeHasLabel(u, rt.lid) {
				emit(u, rt.to, 0, 0, -1, nil, nil)
			}
		case tEdge:
			if rt.lid == deadLabel {
				continue
			}
			if rt.inverse {
				for _, eo := range snap.In(u) {
					if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
						emit(snap.Src(eo), rt.to, 1, 1, eo, nil, nil)
					}
				}
			} else {
				for _, eo := range snap.Out(u) {
					if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
						emit(snap.Dst(eo), rt.to, 1, 1, eo, nil, nil)
					}
				}
			}
		case tView:
			if e.views == nil {
				return fmt.Errorf("rpq: regex references path view %q but no views are in scope", rt.view)
			}
			segs, err := e.views.Segments(rt.view, snap.NodeID(u))
			if err != nil {
				return err
			}
			for _, s := range segs {
				if s.Cost <= 0 {
					return fmt.Errorf("rpq: path view %q produced non-positive cost %g (COST must be larger than zero)", rt.view, s.Cost)
				}
				to, ok := snap.Ord(s.To)
				if !ok {
					continue
				}
				via := s.Nodes
				if len(via) > 0 && via[0] == snap.NodeID(u) {
					via = via[1:]
				}
				emit(to, rt.to, s.Cost, int32(len(s.Edges)), -1, via, s.Edges)
			}
		}
	}
	return nil
}

// carrival is one discovered way of reaching a configuration, in
// ordinal terms: 32 bytes, so the arena a Shortest retains costs less
// than the walks it stands for. A regular edge step is encoded in place
// (via ≥ 0, the step's node being u); a view step's expansion lives in
// the search's side table (via = viewCode(i)).
type carrival struct {
	u, q   int32
	hops   int32
	via    int32
	parent int32
	cost   float64
}

// cheap is a typed binary min-heap of pqItems in (cost, hops, seq)
// order. container/heap boxes every Push and Pop through an interface
// — one allocation per product arrival each way — which this avoids;
// the frontier loop does not allocate.
type cheap []pqItem

func pqLess(a, b pqItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.seq < b.seq
}

func (h *cheap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *cheap) pop() pqItem {
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
		if l < n && pqLess(s[l], s[m]) {
			m = l
		}
		if r < n && pqLess(s[r], s[m]) {
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

// shortestState carries the k-shortest frontier so relaxation is a
// method call, not a closure allocated per heap pop.
type shortestState struct {
	k        int32
	seq      int
	pops     *stateTab
	arrivals []carrival
	views    []viewStep
	h        cheap

	// Accepted walks: keep[i] is an accepted arrival and the keep index
	// of the previous walk accepted for the same destination (-1 for the
	// first); last holds, per destination ordinal, 1 + the keep index of
	// its latest walk (0: none yet). dsts lists destinations in order of
	// first acceptance.
	keep []kept
	last *stateTab
	dsts []int32
}

type kept struct{ arr, prev int32 }

// relax records one new arrival unless its configuration is already
// settled k times.
func (st *shortestState) relax(parent int, base *carrival, u, q int32, cost float64, hops, via int32) {
	if st.pops.get(u, q) >= st.k {
		return
	}
	c := base.cost + cost
	hp := base.hops + hops
	st.arrivals = append(st.arrivals, carrival{u: u, q: q, cost: c, hops: hp, parent: int32(parent), via: via})
	st.h.push(pqItem{cost: c, hops: int(hp), seq: st.seq, idx: len(st.arrivals) - 1})
	st.seq++
}

// accept keeps arrival idx as a walk to its destination u unless one
// of u's walks so far is the same graph-level walk — different product
// paths can spell one walk when the automaton is ambiguous. The
// comparison runs on the arrival chains themselves. At most k pops
// reach (u, accept), so u never collects more than k walks.
func (st *shortestState) accept(res *Shortest, u int32, idx int) {
	head := st.last.get(u, 0) - 1
	for i := head; i >= 0; i = st.keep[i].prev {
		if res.SameWalk(int32(idx), res, st.keep[i].arr, false) {
			return
		}
	}
	if head < 0 {
		st.dsts = append(st.dsts, u)
	}
	st.keep = append(st.keep, kept{arr: int32(idx), prev: head})
	st.last.set(u, 0, int32(len(st.keep)))
}

// ShortestPaths runs the deterministic k-shortest search from src and
// returns up to k cheapest conforming walks per destination, cheapest
// first, as accepted arrivals of the search's arena (see Shortest).
// k must be ≥ 1. Paths are walks (arbitrary-path semantics, §A.1):
// nodes and edges may repeat, which is what keeps the search polynomial
// per destination. The search is Dijkstra over the product with a
// dense pop table, a typed heap and allocation-free edge relaxation.
func (e *Engine) ShortestPaths(src ppg.NodeID, nfa *NFA, k int) (*Shortest, error) {
	if k < 1 {
		return nil, fmt.Errorf("rpq: k must be at least 1, got %d", k)
	}
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return &Shortest{}, nil
	}
	snap := e.snap
	trans := e.resolve(nfa)
	st := &shortestState{
		k:        int32(k),
		seq:      1,
		pops:     newStateTab(snap.NumNodes(), nfa.NumStates()),
		arrivals: []carrival{{u: srcOrd, q: int32(nfa.start), parent: -1, via: noStep}},
		h:        cheap{{idx: 0}},
		last:     newStateTab(snap.NumNodes(), 1),
	}
	res := &Shortest{snap: snap}
	accept := int32(nfa.accept)

	steps, pushed := 0, 0
	if sp := e.col.Start(obs.OpShortest); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("k-shortest product search")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(len(st.keep))).End()
			e.col.WalksFound(int64(len(st.keep)))
		}()
	}
	for len(st.h) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQShortest); err != nil {
				return nil, err
			}
		}
		steps++
		it := st.h.pop()
		a := st.arrivals[it.idx]
		if st.pops.get(a.u, a.q) >= st.k {
			continue
		}
		st.pops.inc(a.u, a.q)
		if a.q == accept {
			res.arrivals, res.views = st.arrivals, st.views // the arena as it stands, for SameWalk
			st.accept(res, a.u, it.idx)
		}
		// Expansion inlined (same transition order as expandOrdinal):
		// relaxation must not allocate, and a capture-free loop keeps
		// it that way.
		before := len(st.arrivals)
		base := a // copy: st.arrivals may grow during relaxation
		for _, rt := range trans[a.q] {
			switch rt.kind {
			case tEps:
				st.relax(it.idx, &base, a.u, rt.to, 0, 0, noStep)
			case tNode:
				if rt.lid >= 0 && snap.NodeHasLabel(a.u, rt.lid) {
					st.relax(it.idx, &base, a.u, rt.to, 0, 0, noStep)
				}
			case tEdge:
				if rt.lid == deadLabel {
					continue
				}
				if rt.inverse {
					for _, eo := range snap.In(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							st.relax(it.idx, &base, snap.Src(eo), rt.to, 1, 1, eo)
						}
					}
				} else {
					for _, eo := range snap.Out(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							st.relax(it.idx, &base, snap.Dst(eo), rt.to, 1, 1, eo)
						}
					}
				}
			case tView:
				if e.views == nil {
					return nil, fmt.Errorf("rpq: regex references path view %q but no views are in scope", rt.view)
				}
				segs, err := e.views.Segments(rt.view, snap.NodeID(a.u))
				if err != nil {
					return nil, err
				}
				for _, s := range segs {
					if s.Cost <= 0 {
						return nil, fmt.Errorf("rpq: path view %q produced non-positive cost %g (COST must be larger than zero)", rt.view, s.Cost)
					}
					to, ok := snap.Ord(s.To)
					if !ok || st.pops.get(to, rt.to) >= st.k {
						continue
					}
					via := s.Nodes
					if len(via) > 0 && via[0] == snap.NodeID(a.u) {
						via = via[1:]
					}
					st.views = append(st.views, viewStep{nodes: via, edges: s.Edges})
					st.relax(it.idx, &base, to, rt.to, s.Cost, int32(len(s.Edges)), viewCode(len(st.views)-1))
				}
			}
		}
		pushed += len(st.arrivals) - before
		if err := e.gov.GrowFrontier(len(st.arrivals) - before); err != nil {
			return nil, err
		}
	}
	res.finish(st)
	return res, nil
}

// finish keeps of the search what its accepted walks need — their
// arrival chains, renumbered in order into a compact arena, and the
// view steps on them — and lays the walks out per destination:
// destinations ascending, each destination's walks in acceptance
// order. The rest of the arena, most of it, is garbage once the search
// returns, so a result held while the query runs costs less than the
// walks it stands for.
func (r *Shortest) finish(st *shortestState) {
	// need[a] marks arrival a as on a kept chain, then holds its new
	// index + 1; parents precede children, so one ascending pass
	// renumbers.
	need := make([]int32, len(st.arrivals))
	n := 0
	for _, kp := range st.keep {
		for a := kp.arr; a >= 0 && need[a] == 0; a = st.arrivals[a].parent {
			need[a] = 1
			n++
		}
	}
	r.arrivals = make([]carrival, 0, n)
	for old := range need {
		if need[old] == 0 {
			continue
		}
		a := st.arrivals[old]
		if a.parent >= 0 {
			a.parent = need[a.parent] - 1
		}
		if isViewStep(a.via) {
			r.views = append(r.views, st.views[viewIndex(a.via)])
			a.via = viewCode(len(r.views) - 1)
		}
		r.arrivals = append(r.arrivals, a)
		need[old] = int32(len(r.arrivals))
	}
	r.dsts = st.dsts
	slices.Sort(r.dsts)
	r.off = make([]int32, len(r.dsts)+1)
	r.kept = make([]int32, len(st.keep))
	pos := 0
	for i, u := range r.dsts {
		start := pos
		for j := st.last.get(u, 0) - 1; j >= 0; j = st.keep[j].prev {
			pos++
		}
		w := pos
		for j := st.last.get(u, 0) - 1; j >= 0; j = st.keep[j].prev {
			w--
			r.kept[w] = need[st.keep[j].arr] - 1
		}
		r.off[i], r.off[i+1] = int32(start), int32(pos)
	}
}

// Reachable returns, ascending, the nodes m such that some path from
// src to m conforms to the regex — the reachability-test semantics
// that a path pattern without a variable gets (§3, line 29). It is a
// BFS over the product with a dense seen table; destinations are
// collected per ordinal, so the output order falls out without
// sorting.
func (e *Engine) Reachable(src ppg.NodeID, nfa *NFA) ([]ppg.NodeID, error) {
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return nil, nil
	}
	trans := e.resolve(nfa)
	seen := newStateTab(e.snap.NumNodes(), nfa.NumStates())
	seen.inc(srcOrd, int32(nfa.start))
	queue := []ccfg{{srcOrd, int32(nfa.start)}}
	accept := int32(nfa.accept)
	hit := make([]bool, e.snap.NumNodes())
	steps, pushed, found := 0, 0, 0
	if sp := e.col.Start(obs.OpReach); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("reachability sweep")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(found)).End()
		}()
	}
	for len(queue) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQReach); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[0]
		queue = queue[1:]
		if c.q == accept {
			hit[c.u] = true
		}
		before := len(queue)
		err := e.expandOrdinal(trans[c.q], c.u, func(v, q int32, _ float64, _ int32, _ int32, _ []ppg.NodeID, _ []ppg.EdgeID) {
			if seen.get(v, q) == 0 {
				seen.inc(v, q)
				queue = append(queue, ccfg{v, q})
			}
		})
		if err != nil {
			return nil, err
		}
		pushed += len(queue) - before
		if err := e.gov.GrowFrontier(len(queue) - before); err != nil {
			return nil, err
		}
	}
	out := make([]ppg.NodeID, 0)
	for u, h := range hit {
		if h {
			out = append(out, e.snap.NodeID(int32(u)))
		}
	}
	found = len(out)
	return out, nil
}

// prodEdge records one product transition taken during the forward
// sweep of the ALL-paths summarisation.
type prodEdge struct {
	from, to ccfg
	viaEdge  int32
	viaNodes []ppg.NodeID // view steps only
	viaEdges []ppg.EdgeID
}

// AllPaths performs the forward product sweep from src.
func (e *Engine) AllPaths(src ppg.NodeID, nfa *NFA) (*AllPaths, error) {
	ap := &AllPaths{src: src, nfa: nfa, snap: e.snap,
		reached: map[ccfg]bool{}, rev: map[ccfg][]int32{}}
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return ap, nil
	}
	trans := e.resolve(nfa)
	start := ccfg{srcOrd, int32(nfa.start)}
	ap.reached[start] = true
	queue := []ccfg{start}
	steps, pushed := 0, 0
	if sp := e.col.Start(obs.OpAllPaths); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("ALL-paths sweep")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).End()
		}()
	}
	for len(queue) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQAll); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[0]
		queue = queue[1:]
		before := len(ap.edges)
		err := e.expandOrdinal(trans[c.q], c.u, func(v, q int32, _ float64, _ int32, viaEdge int32, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID) {
			next := ccfg{v, q}
			ap.edges = append(ap.edges, prodEdge{from: c, to: next, viaEdge: viaEdge, viaNodes: viaNodes, viaEdges: viaEdges})
			ap.rev[next] = append(ap.rev[next], int32(len(ap.edges)-1))
			if !ap.reached[next] {
				ap.reached[next] = true
				queue = append(queue, next)
			}
		})
		if err != nil {
			return nil, err
		}
		pushed += len(ap.edges) - before
		if err := e.gov.GrowFrontier(len(ap.edges) - before); err != nil {
			return nil, err
		}
	}
	return ap, nil
}

// Destinations returns, ascending, the nodes for which some conforming
// path from the sweep's source exists.
func (a *AllPaths) Destinations() []ppg.NodeID {
	accept := int32(a.nfa.accept)
	var ords []int32
	for c := range a.reached {
		if c.q == accept {
			ords = append(ords, c.u)
		}
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	out := make([]ppg.NodeID, len(ords))
	for i, u := range ords {
		out[i] = a.snap.NodeID(u)
	}
	return out
}

// Projection summarises all conforming paths from the sweep's source
// to dst as the sets of nodes and edges lying on at least one such
// path. ok is false if no conforming path exists. A backward sweep
// over the recorded product edges finds the configurations that can
// reach the accepting target; every recorded edge between two of them
// lies on a conforming path.
func (a *AllPaths) Projection(dst ppg.NodeID) (nodes []ppg.NodeID, edges []ppg.EdgeID, ok bool) {
	dstOrd, ok := a.snap.Ord(dst)
	if !ok {
		return nil, nil, false
	}
	target := ccfg{dstOrd, int32(a.nfa.accept)}
	if !a.reached[target] {
		return nil, nil, false
	}
	co := map[ccfg]bool{target: true}
	queue := []ccfg{target}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, ei := range a.rev[c] {
			f := a.edges[ei].from
			if !co[f] {
				co[f] = true
				queue = append(queue, f)
			}
		}
	}
	nodeSet := map[ppg.NodeID]bool{a.src: true, dst: true}
	edgeSet := map[ppg.EdgeID]bool{}
	for _, pe := range a.edges {
		if co[pe.to] && co[pe.from] {
			nodeSet[a.snap.NodeID(pe.from.u)] = true
			switch {
			case pe.viaNodes != nil || pe.viaEdges != nil:
				for _, n := range pe.viaNodes {
					nodeSet[n] = true
				}
				for _, eid := range pe.viaEdges {
					edgeSet[eid] = true
				}
			case pe.viaEdge >= 0:
				nodeSet[a.snap.NodeID(pe.to.u)] = true
				edgeSet[a.snap.EdgeID(pe.viaEdge)] = true
			}
		}
	}
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	for eid := range edgeSet {
		edges = append(edges, eid)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return nodes, edges, true
}

// eachEdgeStep visits, in ascending edge-identifier order, the steps
// over one edge transition leaving n: every conforming edge and the
// node it leads to. The ablation baselines (simple paths, trails) walk
// the snapshot through it.
func (e *Engine) eachEdgeStep(n ppg.NodeID, inverse bool, label string, f func(eid ppg.EdgeID, next ppg.NodeID) error) error {
	u, ok := e.snap.Ord(n)
	if !ok {
		return nil
	}
	lid := wildcardLabel
	if label != "" {
		if lid = e.snap.LabelID(label); lid == csr.NoLabel {
			return nil
		}
	}
	list := e.snap.Out(u)
	if inverse {
		list = e.snap.In(u)
	}
	for _, eo := range list {
		if lid != wildcardLabel && !e.snap.EdgeHasLabel(eo, lid) {
			continue
		}
		next := e.snap.Dst(eo)
		if inverse {
			next = e.snap.Src(eo)
		}
		if err := f(e.snap.EdgeID(eo), e.snap.NodeID(next)); err != nil {
			return err
		}
	}
	return nil
}
