package rpq

import (
	"slices"

	"gcore/internal/csr"
	"gcore/internal/ppg"
)

// Shortest is the answer of one k-shortest search, kept in the form the
// search built it: the part of its arrival arena the kept walks pass
// through (one entry per product arrival, linked to its parent) and,
// per destination, the arrivals accepted as its k cheapest distinct
// walks. A walk is represented by its accepted arrival and
// reconstructed only when a caller asks for it (Ords), so
// a query that filters destinations, or reads only cost and length,
// never builds the walks it does not output — the §A.1 line between
// the product search representing every shortest walk and a query
// enumerating the ones it stores or projects.
//
// A Shortest is immutable once returned and safe for concurrent use.
type Shortest struct {
	snap     *csr.Snapshot
	arrivals []carrival
	views    []viewStep
	dsts     []int32 // destination ordinals, ascending (= ascending node identifier)
	off      []int32 // kept[off[i]:off[i+1]] are dsts[i]'s accepted arrivals
	kept     []int32 // cheapest first, in acceptance order
}

// viewStep is the graph-level expansion of one PATH-view step. Regular
// edge steps are encoded in the arrival itself; only view steps, which
// carry slices, live in this side table.
type viewStep struct {
	nodes []ppg.NodeID
	edges []ppg.EdgeID
}

// Arrival step encoding (carrival.via): an edge ordinal ≥ 0 for an edge
// step, noStep for ε and node-test steps, and viewCode(i) < noStep for
// the view step views[i].
const noStep int32 = -1

func viewCode(i int) int32      { return -int32(i) - 2 }
func viewIndex(via int32) int   { return int(-via - 2) }
func isViewStep(via int32) bool { return via < noStep }

// Len returns the number of destinations reached.
func (r *Shortest) Len() int { return len(r.dsts) }

// Hops returns the number of edges of the walk ending in arrival a.
func (r *Shortest) Hops(a int32) int { return int(r.arrivals[a].hops) }

// Dest returns the ordinal (in the searched snapshot) and identifier of
// the i-th destination; destinations ascend.
func (r *Shortest) Dest(i int) (int32, ppg.NodeID) {
	return r.dsts[i], r.snap.NodeID(r.dsts[i])
}

// Arrivals returns the accepted arrivals of the i-th destination — its
// distinct walks, cheapest first (cost, then hops, then discovery
// order). The slice aliases the result and must not be modified.
func (r *Shortest) Arrivals(i int) []int32 { return r.kept[r.off[i]:r.off[i+1]] }

// Cost returns the cost of the walk ending in arrival a: the hop count
// for plain edges, summed segment costs for PATH views.
func (r *Shortest) Cost(a int32) float64 { return r.arrivals[a].cost }

// Ords appends to nodes and edges the snapshot ordinals of the walk
// ending in arrival a, from the search's source on. Edge steps are
// read straight off the arrival chain; a PATH-view step holds graph
// identifiers, so each of its items costs one ordinal probe, and ok is
// false when one of them is not in the snapshot.
func (r *Shortest) Ords(a int32, nodes, edges []int32) (_, _ []int32, ok bool) {
	n0, e0 := len(nodes), len(edges)
	for i := a; i >= 0; i = r.arrivals[i].parent {
		ar := &r.arrivals[i]
		switch {
		case ar.parent < 0:
			nodes = append(nodes, ar.u)
		case isViewStep(ar.via):
			vs := &r.views[viewIndex(ar.via)]
			for j := len(vs.nodes) - 1; j >= 0; j-- {
				u, ok := r.snap.Ord(vs.nodes[j])
				if !ok {
					return nodes, edges, false
				}
				nodes = append(nodes, u)
			}
			for j := len(vs.edges) - 1; j >= 0; j-- {
				e, ok := r.snap.EdgeOrd(vs.edges[j])
				if !ok {
					return nodes, edges, false
				}
				edges = append(edges, e)
			}
		case ar.via >= 0:
			nodes = append(nodes, ar.u)
			edges = append(edges, ar.via)
		}
	}
	slices.Reverse(nodes[n0:])
	slices.Reverse(edges[e0:])
	return nodes, edges, true
}

// SameWalk reports whether the walk ending in arrival a of r equals
// the walk ending in arrival b of o — read backwards when reversed —
// as graph-level node and edge sequences. It compares the arrival
// chains in place and allocates nothing.
func (r *Shortest) SameWalk(a int32, o *Shortest, b int32, reversed bool) bool {
	if r.arrivals[a].hops != o.arrivals[b].hops {
		return false
	}
	for _, edges := range [2]bool{false, true} {
		x := r.cursor(a, edges)
		if !reversed {
			y := o.cursor(b, edges)
			for {
				xv, xok := x.prev()
				yv, yok := y.prev()
				if xok != yok || xv != yv {
					return false
				}
				if !xok {
					break
				}
			}
			continue
		}
		// Reversed: x read backwards must equal o's sequence read
		// forwards; the chain links only backwards, so o's j-th item is
		// fetched as its (n-1-j)-th from the end.
		n := o.seqLen(b, edges)
		if r.seqLen(a, edges) != n {
			return false
		}
		for j := 0; j < n; j++ {
			xv, _ := x.prev()
			y := o.cursor(b, edges)
			var yv uint64
			for t := 0; t < n-j; t++ {
				yv, _ = y.prev()
			}
			if xv != yv {
				return false
			}
		}
	}
	return true
}

// stepLen is the number of node (edges=false) or edge items the step
// into arrival i contributes to its walk. The root arrival contributes
// the source node.
func (r *Shortest) stepLen(i int32, edges bool) int {
	ar := &r.arrivals[i]
	switch {
	case ar.parent < 0:
		if edges {
			return 0
		}
		return 1
	case isViewStep(ar.via):
		vs := &r.views[viewIndex(ar.via)]
		if edges {
			return len(vs.edges)
		}
		return len(vs.nodes)
	case ar.via >= 0:
		return 1
	}
	return 0
}

// stepItem is the j-th node or edge identifier of arrival i's step.
func (r *Shortest) stepItem(i int32, edges bool, j int) uint64 {
	ar := &r.arrivals[i]
	if isViewStep(ar.via) {
		vs := &r.views[viewIndex(ar.via)]
		if edges {
			return uint64(vs.edges[j])
		}
		return uint64(vs.nodes[j])
	}
	if edges {
		return uint64(r.snap.EdgeID(ar.via))
	}
	return uint64(r.snap.NodeID(ar.u))
}

// seqLen is the length of the node or edge sequence of arrival a's walk.
func (r *Shortest) seqLen(a int32, edges bool) int {
	n := 0
	for i := a; i >= 0; i = r.arrivals[i].parent {
		n += r.stepLen(i, edges)
	}
	return n
}

// seqCursor reads the node or edge sequence of one walk backwards off
// its arrival chain.
type seqCursor struct {
	r     *Shortest
	a     int32 // arrival whose step is being read; -1 past the source
	rest  int   // unread items of a's step
	edges bool
}

func (r *Shortest) cursor(a int32, edges bool) seqCursor {
	return seqCursor{r: r, a: a, rest: r.stepLen(a, edges), edges: edges}
}

// prev returns the previous item of the sequence, or false once the
// start of the walk has been passed.
func (c *seqCursor) prev() (uint64, bool) {
	for c.rest == 0 {
		if c.a < 0 {
			return 0, false
		}
		if c.a = c.r.arrivals[c.a].parent; c.a < 0 {
			return 0, false
		}
		c.rest = c.r.stepLen(c.a, c.edges)
	}
	c.rest--
	return c.r.stepItem(c.a, c.edges, c.rest), true
}
