package rpq

import (
	"fmt"
	"reflect"
	"slices"
	"sort"

	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/freelist"
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
// discovery) pop order is the engine's fixed tie-break.

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
// memoised per engine (one resolution per (engine, automaton) pair).
func (e *Engine) resolve(nfa *NFA) [][]rtrans {
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

// stateTab holds one T per product configuration: a flat dense array
// when |V|·|Q| is small enough, a map otherwise — the frontier loops
// never probe a Go map on graphs of ordinary size.
type stateTab[T any] struct {
	states int32
	dense  []T
	sparse map[int64]T
}

// denseLimit bounds the dense table at 4M entries: beyond it the
// sparse fallback trades speed for memory.
const denseLimit = 1 << 22

// newStateTab returns a table of zero entries. The dense form takes
// over buf (cleared) when it is large enough; pass nil for a fresh one.
func newStateTab[T any](buf []T, nodes, states int) stateTab[T] {
	t := stateTab[T]{states: int32(states)}
	if int64(nodes)*int64(states) <= denseLimit {
		t.dense = zeroed(buf, nodes*states)
	} else {
		t.sparse = make(map[int64]T, 1024)
	}
	return t
}

// Search scratch — the dense tables, the arrival arena, the frontier,
// the destinations and the renumber table — is dead once a search
// returns, so it goes back to a free list for the next search instead
// of to the collector. A buffer past maxScratchBytes is dropped
// instead: one huge search must not pin its memory for the life of the
// process.
const maxScratchBytes = 16 << 20

var (
	shortestFree freelist.List[shortestState]
	reachFree    freelist.List[reachScratch]
)

// zeroed returns buf resized to n zero entries, allocating only when
// its capacity is short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// recycled empties buf for its free list, or drops it (nil) when it has
// grown past maxScratchBytes.
func recycled[T any](buf []T) []T {
	if uintptr(cap(buf))*reflect.TypeFor[T]().Size() > maxScratchBytes {
		return nil
	}
	return buf[:0]
}

func (t *stateTab[T]) get(u, q int32) T {
	if t.dense != nil {
		return t.dense[int(u)*int(t.states)+int(q)]
	}
	return t.sparse[int64(u)*int64(t.states)+int64(q)]
}

func (t *stateTab[T]) set(u, q int32, v T) {
	if t.dense != nil {
		t.dense[int(u)*int(t.states)+int(q)] = v
		return
	}
	t.sparse[int64(u)*int64(t.states)+int64(q)] = v
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
				if !(s.Cost > 0) {
					return fmt.Errorf("rpq: path view %q produced invalid cost %g (COST must be larger than zero)", rt.view, s.Cost)
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
// the search's side table (via = viewCode(i)). next links the arrivals
// queued in one level.
type carrival struct {
	u, q   int32
	hops   int32
	via    int32
	parent int32
	next   int32
	cost   float64
}

// keyLess orders arrivals by (cost, hops).
func keyLess(c1 float64, h1 int32, c2 float64, h2 int32) bool {
	return c1 < c2 || c1 == c2 && h1 < h2
}

// level is the FIFO of the queued arrivals sharing one (cost, hops)
// key, linked head to tail through carrival.next (-1: none).
type level struct {
	cost       float64
	hops       int32
	head, tail int32
}

// cfgState is the search's record of one product configuration: how
// many of its arrivals have settled and how many are queued, the one of
// those with the largest key, and, at an accepting configuration, 1 +
// the keep index of the destination's latest walk (0: none yet).
type cfgState struct {
	settled, queued int32
	max             int32
	last            int32
}

// shortestState carries the k-shortest frontier so relaxation is a
// method call, not a closure allocated per pop.
//
// The frontier is a list of FIFO levels, one per distinct (cost, hops)
// key, ascending; levels[lo] holds the key being popped. Popping the
// head of the lowest non-empty level pops in (cost, hops, discovery)
// order, because no arrival is queued below the key being popped —
// steps cost ≥ 0 — and a level's arrivals were discovered in FIFO
// order. A unit-cost search queues at the current or the last level,
// so its pops and pushes take O(1); a weighted search inserts a new
// level at its sorted position.
//
// A shortestState comes from shortestFree and goes back to it when its
// search returns; the result copies what it keeps, so every slice is
// recycled.
type shortestState struct {
	k        int32
	acc      int32
	cfg      stateTab[cfgState]
	arrivals []carrival
	views    []viewStep
	levels   []level
	lo       int

	// Accepted walks: keep[i] is an accepted arrival and the keep index
	// of the previous walk accepted for the same destination (-1 for the
	// first); cfgState.last links a destination to its latest. dsts lists
	// destinations in order of first acceptance.
	keep []kept
	dsts []int32

	need []int32 // finish's renumber table
}

// newShortestState takes a search state from the free list and resets it
// for a k-shortest search from srcOrd over a graph of nodes nodes and
// an automaton of states states.
func newShortestState(k, acc int32, nodes, states int, srcOrd, start int32) *shortestState {
	st := shortestFree.Get()
	*st = shortestState{
		k:        k,
		acc:      acc,
		cfg:      newStateTab(st.cfg.dense, nodes, states),
		arrivals: append(st.arrivals[:0], carrival{u: srcOrd, q: start, parent: -1, via: noStep, next: -1}),
		levels:   append(st.levels[:0], level{head: 0, tail: 0}),
		keep:     st.keep[:0],
		dsts:     st.dsts[:0],
		need:     st.need,
	}
	st.cfg.set(srcOrd, start, cfgState{queued: 1})
	return st
}

// release returns st's buffers to the free list. The view steps alias
// segments of the searched views, so they are not kept.
func (st *shortestState) release() {
	*st = shortestState{
		cfg:      stateTab[cfgState]{dense: recycled(st.cfg.dense)},
		arrivals: recycled(st.arrivals),
		levels:   recycled(st.levels),
		keep:     recycled(st.keep),
		dsts:     recycled(st.dsts),
		need:     recycled(st.need),
	}
	shortestFree.Put(st)
}

type kept struct{ arr, prev int32 }

// relax queues a new arrival at (u, q) unless it cannot settle: k
// arrivals of (u, q) are already settled or queued and none has a
// larger key, so all of them pop before it and it would only be popped
// and skipped. It reports whether the arrival was queued.
func (st *shortestState) relax(parent int32, base *carrival, u, q int32, cost float64, hops, via int32) bool {
	c, hp := base.cost+cost, base.hops+hops
	s := st.cfg.get(u, q)
	n := s.settled + s.queued
	if n >= st.k {
		m := &st.arrivals[s.max]
		if s.settled >= st.k || !keyLess(c, hp, m.cost, m.hops) {
			return false
		}
	}
	idx := int32(len(st.arrivals))
	st.arrivals = append(st.arrivals, carrival{u: u, q: q, cost: c, hops: hp, parent: parent, via: via, next: -1})
	if m := &st.arrivals[s.max]; n == 0 || keyLess(m.cost, m.hops, c, hp) {
		s.max = idx
	}
	s.queued++
	st.cfg.set(u, q, s)
	st.enqueue(idx)
	return true
}

// enqueue appends arrival idx to the level of its key, creating the
// level at its sorted position when the key is new.
func (st *shortestState) enqueue(idx int32) {
	a := &st.arrivals[idx]
	i := len(st.levels)
	for i > st.lo && keyLess(a.cost, a.hops, st.levels[i-1].cost, st.levels[i-1].hops) {
		i--
	}
	if i > st.lo {
		if l := &st.levels[i-1]; l.cost == a.cost && l.hops == a.hops {
			if l.tail >= 0 {
				st.arrivals[l.tail].next = idx
			} else {
				l.head = idx
			}
			l.tail = idx
			return
		}
	}
	st.levels = slices.Insert(st.levels, i, level{cost: a.cost, hops: a.hops, head: idx, tail: idx})
}

// pop dequeues the next arrival in (cost, hops, discovery) order; -1
// once the frontier is empty.
func (st *shortestState) pop() int32 {
	for ; st.lo < len(st.levels); st.lo++ {
		l := &st.levels[st.lo]
		if idx := l.head; idx >= 0 {
			if l.head = st.arrivals[idx].next; l.head < 0 {
				l.tail = -1
			}
			return idx
		}
	}
	return -1
}

// accept keeps arrival idx as a walk to its destination u unless one
// of u's walks so far is the same graph-level walk — different product
// paths can spell one walk when the automaton is ambiguous. The
// comparison runs on the arrival chains themselves. At most k pops
// settle (u, accept), so u never collects more than k walks.
func (st *shortestState) accept(res *Shortest, u int32, idx int32) {
	s := st.cfg.get(u, st.acc)
	head := s.last - 1
	for i := head; i >= 0; i = st.keep[i].prev {
		if res.SameWalk(idx, res, st.keep[i].arr, false) {
			return
		}
	}
	if head < 0 {
		st.dsts = append(st.dsts, u)
	}
	st.keep = append(st.keep, kept{arr: idx, prev: head})
	s.last = int32(len(st.keep))
	st.cfg.set(u, st.acc, s)
}

// ShortestPaths runs the deterministic k-shortest search from src and
// returns up to k cheapest conforming walks per destination, cheapest
// first, as accepted arrivals of the search's arena (see Shortest).
// k must be ≥ 1. Paths are walks (arbitrary-path semantics, §A.1):
// nodes and edges may repeat, which is what keeps the search polynomial
// per destination. The search is Dijkstra over the product with FIFO
// levels for a queue, one dense table of per-configuration counts, and
// allocation-free edge relaxation that queues only arrivals able to
// settle.
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
	st := newShortestState(int32(k), int32(nfa.accept), snap.NumNodes(), nfa.NumStates(), srcOrd, int32(nfa.start))
	defer st.release()
	res := &Shortest{snap: snap}

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
	for idx := st.pop(); idx >= 0; idx = st.pop() {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQShortest); err != nil {
				return nil, err
			}
		}
		steps++
		a := st.arrivals[idx]
		s := st.cfg.get(a.u, a.q)
		s.queued--
		if s.settled >= st.k {
			st.cfg.set(a.u, a.q, s)
			continue
		}
		s.settled++
		st.cfg.set(a.u, a.q, s)
		if a.q == st.acc {
			res.arrivals, res.views = st.arrivals, st.views // the arena as it stands, for SameWalk
			st.accept(res, a.u, idx)
		}
		// Expansion inlined (same transition order as expandOrdinal):
		// relaxation must not allocate, and a capture-free loop keeps
		// it that way.
		before := len(st.arrivals)
		base := a // copy: st.arrivals may grow during relaxation
		for _, rt := range trans[a.q] {
			switch rt.kind {
			case tEps:
				st.relax(idx, &base, a.u, rt.to, 0, 0, noStep)
			case tNode:
				if rt.lid >= 0 && snap.NodeHasLabel(a.u, rt.lid) {
					st.relax(idx, &base, a.u, rt.to, 0, 0, noStep)
				}
			case tEdge:
				if rt.lid == deadLabel {
					continue
				}
				if rt.inverse {
					for _, eo := range snap.In(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							st.relax(idx, &base, snap.Src(eo), rt.to, 1, 1, eo)
						}
					}
				} else {
					for _, eo := range snap.Out(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							st.relax(idx, &base, snap.Dst(eo), rt.to, 1, 1, eo)
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
					if !(s.Cost > 0) {
						return nil, fmt.Errorf("rpq: path view %q produced invalid cost %g (COST must be larger than zero)", rt.view, s.Cost)
					}
					to, ok := snap.Ord(s.To)
					if !ok {
						continue
					}
					via := s.Nodes
					if len(via) > 0 && via[0] == snap.NodeID(a.u) {
						via = via[1:]
					}
					st.views = append(st.views, viewStep{nodes: via, edges: s.Edges})
					if !st.relax(idx, &base, to, rt.to, s.Cost, int32(len(s.Edges)), viewCode(len(st.views)-1)) {
						st.views = st.views[:len(st.views)-1]
					}
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
	st.need = zeroed(st.need, len(st.arrivals))
	need := st.need
	n, nv := 0, 0
	for _, kp := range st.keep {
		for a := kp.arr; a >= 0 && need[a] == 0; a = st.arrivals[a].parent {
			need[a] = 1
			n++
			if isViewStep(st.arrivals[a].via) {
				nv++
			}
		}
	}
	r.arrivals = make([]carrival, 0, n)
	r.views = nil
	if nv > 0 {
		r.views = make([]viewStep, 0, nv)
	}
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
	r.dsts = slices.Clone(st.dsts)
	slices.Sort(r.dsts)
	r.off = make([]int32, len(r.dsts)+1)
	r.kept = make([]int32, len(st.keep))
	pos := 0
	for i, u := range r.dsts {
		start := pos
		last := st.cfg.get(u, st.acc).last
		for j := last - 1; j >= 0; j = st.keep[j].prev {
			pos++
		}
		w := pos
		for j := last - 1; j >= 0; j = st.keep[j].prev {
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
	sc := reachFree.Get()
	seen := newStateTab(sc.seen, e.snap.NumNodes(), nfa.NumStates())
	seen.set(srcOrd, int32(nfa.start), true)
	queue := append(sc.queue[:0], ccfg{srcOrd, int32(nfa.start)})
	accept := int32(nfa.accept)
	hit := zeroed(sc.hit, e.snap.NumNodes())
	defer func() {
		sc.seen, sc.hit, sc.queue = recycled(seen.dense), recycled(hit), recycled(queue)
		reachFree.Put(sc)
	}()
	steps, pushed, found := 0, 0, 0
	if sp := e.col.Start(obs.OpReach); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("reachability sweep")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(found)).End()
		}()
	}
	for head := 0; head < len(queue); head++ {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQReach); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[head]
		if c.q == accept {
			hit[c.u] = true
		}
		before := len(queue)
		err := e.expandOrdinal(trans[c.q], c.u, func(v, q int32, _ float64, _ int32, _ int32, _ []ppg.NodeID, _ []ppg.EdgeID) {
			if !seen.get(v, q) {
				seen.set(v, q, true)
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

// reachScratch is Reachable's recycled memory: the dense seen table, the
// per-node hit flags and the BFS queue, which pops by index so its
// storage survives the sweep.
type reachScratch struct {
	seen  []bool
	hit   []bool
	queue []ccfg
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
