package core

import (
	"sort"

	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Snapshot helpers of the pattern operators (match.go, pushdown.go):
// dense node/edge ordinals, flat adjacency arrays and interned integer
// labels replace map probes and string comparisons of the ppg layout.

// snapOf returns the graph's CSR snapshot at its current generation —
// cached per generation inside the graph, so repeated calls during one
// evaluation are cheap — and records in the statement's cache counters
// whether it was reused or built.
func (c *evalCtx) snapOf(g *ppg.Graph) *csr.Snapshot {
	built := false
	snap := g.Snapshot(func() any {
		built = true
		return csr.Build(g)
	}).(*csr.Snapshot)
	c.col.CSREvent(!built)
	return snap
}

// resolvedSpec is a label spec with every name interned against one
// snapshot. Labels absent from the snapshot resolve to csr.NoLabel,
// which no element can carry.
type resolvedSpec [][]int32

func resolveSpec(snap *csr.Snapshot, spec ast.LabelSpec) resolvedSpec {
	rs := make(resolvedSpec, len(spec))
	for i, disj := range spec {
		lids := make([]int32, len(disj))
		for j, l := range disj {
			lids[j] = snap.LabelID(l)
		}
		rs[i] = lids
	}
	return rs
}

func (rs resolvedSpec) matchesNode(snap *csr.Snapshot, u int32) bool {
	for _, disj := range rs {
		found := false
		for _, lid := range disj {
			if snap.NodeHasLabel(u, lid) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (rs resolvedSpec) matchesEdge(snap *csr.Snapshot, e int32) bool {
	for _, disj := range rs {
		found := false
		for _, lid := range disj {
			if snap.EdgeHasLabel(e, lid) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// indexedNodeOrdinals consults the snapshot's per-label partitions for
// a node pattern: the most selective conjunct of the label spec yields
// the candidate set (the sorted union of its disjuncts' partitions),
// which is exactly the set of nodes satisfying that conjunct. The
// remaining conjuncts and property filters are checked per candidate.
// by is the index of the conjunct taken, -1 when the spec has none.
func indexedNodeOrdinals(snap *csr.Snapshot, rs resolvedSpec) (ords []int32, by int) {
	if len(rs) == 0 {
		return nil, -1
	}
	best := -1
	bestSize := 0
	for i, disj := range rs {
		size := 0
		for _, lid := range disj {
			size += len(snap.NodesWithLabel(lid))
		}
		if best == -1 || size < bestSize {
			best, bestSize = i, size
		}
	}
	disj := rs[best]
	if len(disj) == 1 {
		return snap.NodesWithLabel(disj[0]), best
	}
	set := map[int32]bool{}
	for _, lid := range disj {
		for _, u := range snap.NodesWithLabel(lid) {
			set[u] = true
		}
	}
	out := make([]int32, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, best
}

// scanStat is what a node scan reports about its candidates: where
// they came from, how many were examined, and how many value indexes
// had to be built to decide.
type scanStat struct {
	indexed  bool   // candidates from a label partition
	seekKey  string // candidates from this property's equality index
	examined int64  // candidate ordinals tested
	builds   int64  // equality indexes built (first seek of a column)
}

// scanCandidates picks a node scan's candidate ordinals — the shortest
// of: every node, the label partition of the spec's most selective
// conjunct, the posting list of a prefilter `=` predicate — and the
// label conjuncts each candidate still has to pass. A partition holds
// exactly the nodes satisfying the conjunct it was taken from, so its
// candidates skip that conjunct's test; seek postings know nothing
// about labels and test them all.
func scanCandidates(snap *csr.Snapshot, rs resolvedSpec, preds []*colBind) (ords []int32, labelTests resolvedSpec, stat scanStat) {
	part, by := indexedNodeOrdinals(snap, rs)
	partSize := snap.NumNodes()
	if by >= 0 {
		partSize = len(part)
	}
	post, key, builds, ok := seekCandidates(snap, preds)
	stat.builds = builds
	switch {
	case ok && len(post) < partSize:
		ords, labelTests, stat.seekKey = post, rs, key
	case by >= 0:
		ords, labelTests, stat.indexed = part, append(rs[:by:by], rs[by+1:]...), true
	default:
		ords, labelTests = make([]int32, partSize), rs
		for i := range ords {
			ords[i] = int32(i)
		}
	}
	stat.examined = int64(len(ords))
	return ords, labelTests, stat
}

// labelTestFast answers a label test (x:A|B) on a bound ref through the
// snapshot: an interned-label membership probe. handled is false when
// the ref is not the snapshot's (another graph's element, a path) —
// the caller then searches all graphs in scope.
func labelTestFast(snap *csr.Snapshot, lids []int32, v value.Value) (pass, handled bool) {
	id, _ := v.RefID()
	switch v.Kind() {
	case value.KindNode:
		if u, ok := snap.Ord(ppg.NodeID(id)); ok {
			for _, lid := range lids {
				if snap.NodeHasLabel(u, lid) {
					return true, true
				}
			}
			return false, true
		}
	case value.KindEdge:
		if e, ok := snap.EdgeOrd(ppg.EdgeID(id)); ok {
			for _, lid := range lids {
				if snap.EdgeHasLabel(e, lid) {
					return true, true
				}
			}
			return false, true
		}
	}
	return false, false
}
