package csr

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Incremental snapshot maintenance. A mutation no longer costs the
// next reader a full O(V+E) rebuild: ppg.Graph records the identifiers
// touched since the last build (ppg/delta.go), and applyDelta extends
// the previous snapshot by exactly those elements, structurally
// sharing every untouched array between the two versions:
//
//   - node/edge columns, label runs and the interner grow append-only
//     (new elements always take ordinals past the old range),
//   - per-node adjacency runs and per-label partitions are recopied
//     only where the delta touches them (copy-on-write),
//   - property columns are shared wholesale when their key is
//     untouched, extended when only new ordinals were written, and
//     recopied only when an existing ordinal changed,
//   - state that cannot grow in place — ordinal maps, label sets of
//     existing elements, new interned strings — goes to small overlay
//     maps consulted after the base structures.
//
// Sharing is safe because the snapshot cache is a linear chain: each
// cached snapshot is the base of at most one delta apply (under the
// cache lock), so an append that lands in spare capacity writes only
// beyond the previous version's length — indices its readers never
// touch. Anything requiring a write inside the shared region (bitmap
// words, changed ordinals) is copied first.
//
// Deltas that cannot or should not be applied — dropped recordings
// (TouchProps, ReplaceWith, overflow), non-monotonic identifiers,
// label names the snapshot has never seen, deltas or accumulated
// overlays too large relative to the graph — fall back to Build; the
// full rebuild also re-densifies every overlay, so fallbacks act as
// compaction.

// BuildKind says how OfCounted obtained its snapshot.
type BuildKind uint8

// The snapshot acquisition kinds.
const (
	// BuildReused served the cached snapshot (generation match).
	BuildReused BuildKind = iota
	// BuildFull ran the full Build (no previous snapshot, recording
	// dropped, or incremental maintenance disabled).
	BuildFull
	// BuildDelta applied the recorded delta to the previous snapshot.
	BuildDelta
	// BuildFallback had a recorded delta but declined it (too large,
	// non-monotonic, new labels) and ran the full Build instead.
	BuildFallback
)

// BuildInfo reports one OfCounted acquisition for the observability
// counters: what happened, the delta size, and approximately how many
// bytes of the resulting snapshot are shared with the previous
// version versus freshly allocated (delta applies only; map overlays
// and inner adjacency runs are estimated).
type BuildInfo struct {
	Kind        BuildKind
	DeltaOps    int
	BytesShared int64
	BytesCopied int64
}

// Incremental-apply size gates: below the floor a delta always
// applies; above it, the delta plus every accumulated overlay must
// stay under 1/deltaMaxFraction of the element count, or the full
// rebuild (which re-densifies the overlays) is the better snapshot.
const (
	deltaOpsFloor    = 64
	deltaMaxFraction = 8
)

// colWrite is one property-map replacement projected onto a column:
// set the value at ord, or clear it (key removed by the new map).
type colWrite struct {
	ord   int32
	val   value.Value
	clear bool
}

// applyDelta extends prev — the snapshot of g before the mutations
// recorded in d — to g's current state. It returns false to decline
// (caller falls back to Build); it never mutates prev's visible state
// either way. Called under the graph's snapshot cache lock.
func applyDelta(prev *Snapshot, g *ppg.Graph, d *ppg.Delta, info *BuildInfo) (*Snapshot, bool) {
	n := len(prev.nodeIDs)
	m := len(prev.edgeIDs)

	if d.Ops == 0 {
		// Only path mutations bumped the generation; nothing the
		// snapshot materialises changed. Re-tag a shallow copy.
		ns := *prev
		ns.gen = g.Generation()
		accountShare(prev, &ns, info)
		return &ns, true
	}

	overlay := len(prev.ordPatch) + len(prev.edgeOrdPatch) +
		len(prev.nodeLabelPatch) + len(prev.edgeLabelPatch)
	if prev.strings != nil {
		overlay += len(prev.strings.extIds)
	}
	if d.Ops+overlay > deltaOpsFloor && (d.Ops+overlay)*deltaMaxFraction > n+m {
		return nil, false
	}

	// Ordinals ascend with identifiers; appending keeps that true only
	// when every new identifier exceeds the previous maximum.
	addN := dedupIDs(d.AddedNodes)
	addE := dedupIDs(d.AddedEdges)
	if len(addN) > 0 && n > 0 && addN[0] <= prev.nodeIDs[n-1] {
		return nil, false
	}
	if len(addE) > 0 && m > 0 && addE[0] <= prev.edgeIDs[m-1] {
		return nil, false
	}
	addNSet := idSet(addN)
	addESet := idSet(addE)
	chNodeLabels := dedupIDsExcl(d.NodeLabels, addNSet)
	chEdgeLabels := dedupIDsExcl(d.EdgeLabels, addESet)
	chNodeProps := dedupIDsExcl(d.NodeProps, addNSet)
	chEdgeProps := dedupIDsExcl(d.EdgeProps, addESet)

	// The interned label universe is frozen at build time (ids are
	// indexes into sorted labelNames); a label name the snapshot has
	// never seen cannot be appended without renumbering. Fall back.
	for _, id := range addN {
		nd, ok := g.Node(id)
		if !ok || !labelsKnown(nd.Labels, prev.labelOf) {
			return nil, false
		}
	}
	for _, id := range chNodeLabels {
		nd, ok := g.Node(id)
		if !ok || !labelsKnown(nd.Labels, prev.labelOf) {
			return nil, false
		}
	}
	for _, id := range addE {
		ed, ok := g.Edge(id)
		if !ok || !labelsKnown(ed.Labels, prev.labelOf) {
			return nil, false
		}
	}
	for _, id := range chEdgeLabels {
		ed, ok := g.Edge(id)
		if !ok || !labelsKnown(ed.Labels, prev.labelOf) {
			return nil, false
		}
	}

	newN := n + len(addN)
	newM := m + len(addE)
	ns := &Snapshot{
		gen: g.Generation(),

		nodeIDs:  prev.nodeIDs,
		nodes:    prev.nodes,
		ord:      prev.ord,
		ordPatch: prev.ordPatch,

		edgeIDs:      prev.edgeIDs,
		edges:        prev.edges,
		edgeOrd:      prev.edgeOrd,
		edgeOrdPatch: prev.edgeOrdPatch,
		edgeSrc:      prev.edgeSrc,
		edgeDst:      prev.edgeDst,

		labelNames: prev.labelNames,
		labelOf:    prev.labelOf,

		nodeLabelOff:   prev.nodeLabelOff,
		nodeLabelIDs:   prev.nodeLabelIDs,
		edgeLabelOff:   prev.edgeLabelOff,
		edgeLabelIDs:   prev.edgeLabelIDs,
		nodeLabelPatch: prev.nodeLabelPatch,
		edgeLabelPatch: prev.edgeLabelPatch,

		strings:  prev.strings,
		nodeCols: prev.nodeCols,
		edgeCols: prev.edgeCols,
	}

	// Node extension: ids, pointers, ordinal overlay, label runs.
	if len(addN) > 0 {
		ns.ordPatch = copyOrdMap(prev.ordPatch, len(addN))
		for i, id := range addN {
			nd, _ := g.Node(id)
			ns.nodeIDs = append(ns.nodeIDs, id)
			ns.nodes = append(ns.nodes, nd)
			ns.ordPatch[id] = int32(n + i)
			for _, l := range nd.Labels {
				ns.nodeLabelIDs = append(ns.nodeLabelIDs, prev.labelOf[l])
			}
			ns.nodeLabelOff = append(ns.nodeLabelOff, int32(len(ns.nodeLabelIDs)))
		}
	}

	// Edge extension, endpoints resolved through the extended ordinals.
	if len(addE) > 0 {
		ns.edgeOrdPatch = copyEdgeOrdMap(prev.edgeOrdPatch, len(addE))
		for i, id := range addE {
			ed, _ := g.Edge(id)
			su, ok1 := ns.Ord(ed.Src)
			du, ok2 := ns.Ord(ed.Dst)
			if !ok1 || !ok2 {
				return nil, false
			}
			ns.edgeIDs = append(ns.edgeIDs, id)
			ns.edges = append(ns.edges, ed)
			ns.edgeOrdPatch[id] = int32(m + i)
			ns.edgeSrc = append(ns.edgeSrc, su)
			ns.edgeDst = append(ns.edgeDst, du)
			for _, l := range ed.Labels {
				ns.edgeLabelIDs = append(ns.edgeLabelIDs, prev.labelOf[l])
			}
			ns.edgeLabelOff = append(ns.edgeLabelOff, int32(len(ns.edgeLabelIDs)))
		}
	}

	// Adjacency: the outer arrays are recopied (O(V) pointer copies),
	// the per-node runs stay shared except where a new edge lands —
	// appending through a capacity-clipped run reallocates just that
	// run.
	ns.outAdj = make([][]int32, newN)
	copy(ns.outAdj, prev.outAdj)
	ns.inAdj = make([][]int32, newN)
	copy(ns.inAdj, prev.inAdj)
	touchedOut := map[int32]bool{}
	touchedIn := map[int32]bool{}
	for i := range addE {
		e := int32(m + i)
		u, v := ns.edgeSrc[e], ns.edgeDst[e]
		ns.outAdj[u] = append(ns.outAdj[u], e)
		ns.inAdj[v] = append(ns.inAdj[v], e)
		touchedOut[u] = true
		touchedIn[v] = true
	}

	// Partitions: outer array recopied, a partition recopied only when
	// label-change surgery edits it; appended ordinals extend in place
	// (they exceed every existing ordinal, so order is preserved).
	ns.nodesByLabel = make([][]int32, len(prev.nodesByLabel))
	copy(ns.nodesByLabel, prev.nodesByLabel)
	ns.edgesByLabel = make([][]int32, len(prev.edgesByLabel))
	copy(ns.edgesByLabel, prev.edgesByLabel)

	if len(chNodeLabels) > 0 {
		ns.nodeLabelPatch = copyRunPatch(prev.nodeLabelPatch, len(chNodeLabels))
		edited := map[int32]bool{}
		for _, id := range chNodeLabels {
			u, ok := prev.Ord(id)
			if !ok {
				return nil, false
			}
			nd, _ := g.Node(id)
			oldRun := prev.nodeLabelRun(u)
			newRun := encodeRun(nd.Labels, prev.labelOf)
			partitionSurgery(ns.nodesByLabel, edited, oldRun, newRun, u)
			ns.nodeLabelPatch[u] = newRun
		}
	}
	if len(chEdgeLabels) > 0 {
		ns.edgeLabelPatch = copyRunPatch(prev.edgeLabelPatch, len(chEdgeLabels))
		edited := map[int32]bool{}
		for _, id := range chEdgeLabels {
			e, ok := prev.EdgeOrd(id)
			if !ok {
				return nil, false
			}
			ed, _ := g.Edge(id)
			oldRun := prev.edgeLabelRun(e)
			newRun := encodeRun(ed.Labels, prev.labelOf)
			partitionSurgery(ns.edgesByLabel, edited, oldRun, newRun, e)
			ns.edgeLabelPatch[e] = newRun
		}
	}
	for i, id := range addN {
		u := int32(n + i)
		nd, _ := g.Node(id)
		for _, l := range nd.Labels {
			lid := prev.labelOf[l]
			ns.nodesByLabel[lid] = append(ns.nodesByLabel[lid], u)
		}
	}
	for i, id := range addE {
		e := int32(m + i)
		ed, _ := g.Edge(id)
		for _, l := range ed.Labels {
			lid := prev.labelOf[l]
			ns.edgesByLabel[lid] = append(ns.edgesByLabel[lid], e)
		}
	}

	// Property columns. Project the delta onto per-key write lists —
	// changed elements first (ordinals below n, ascending), then added
	// ones, so each list ascends by ordinal.
	nodeWrites := map[string][]colWrite{}
	for _, id := range chNodeProps {
		u, ok := prev.Ord(id)
		if !ok {
			return nil, false
		}
		nd, _ := g.Node(id)
		projectWrites(nodeWrites, u, nd.Props, prev.nodeCols)
	}
	for i, id := range addN {
		nd, _ := g.Node(id)
		projectWrites(nodeWrites, int32(n+i), nd.Props, nil)
	}
	edgeWrites := map[string][]colWrite{}
	for _, id := range chEdgeProps {
		e, ok := prev.EdgeOrd(id)
		if !ok {
			return nil, false
		}
		ed, _ := g.Edge(id)
		projectWrites(edgeWrites, e, ed.Props, prev.edgeCols)
	}
	for i, id := range addE {
		ed, _ := g.Edge(id)
		projectWrites(edgeWrites, int32(m+i), ed.Props, nil)
	}

	// New string values extend the interner past its sorted prefix
	// (Bound's order invariant holds below SortedCount; stringEval
	// compares the extension region by string).
	ns.strings = extendInterner(prev.strings, collectNewStrings(prev, nodeWrites, edgeWrites))

	ns.nodeCols = applyCols(prev.nodeCols, nodeWrites, newN, ns.strings)
	ns.edgeCols = applyCols(prev.edgeCols, edgeWrites, newM, ns.strings)

	accountShare(prev, ns, info)
	return ns, true
}

func labelsKnown(ls ppg.Labels, labelOf map[string]int32) bool {
	for _, l := range ls {
		if _, ok := labelOf[l]; !ok {
			return false
		}
	}
	return true
}

// encodeRun interns a (sorted-by-name) label set; interned ids ascend
// with names, so the run is sorted by construction.
func encodeRun(ls ppg.Labels, labelOf map[string]int32) []int32 {
	run := make([]int32, len(ls))
	for i, l := range ls {
		run[i] = labelOf[l]
	}
	return run
}

// partitionSurgery moves ordinal x between the partitions its old and
// new label runs name, copying each edited partition once per apply.
func partitionSurgery(parts [][]int32, edited map[int32]bool, oldRun, newRun []int32, x int32) {
	edit := func(lid int32) {
		if !edited[lid] {
			parts[lid] = append([]int32(nil), parts[lid]...)
			edited[lid] = true
		}
	}
	for _, lid := range oldRun {
		if !containsInt32(newRun, lid) {
			edit(lid)
			parts[lid] = removeOrd(parts[lid], x)
		}
	}
	for _, lid := range newRun {
		if !containsInt32(oldRun, lid) {
			edit(lid)
			parts[lid] = insertOrd(parts[lid], x)
		}
	}
}

func containsInt32(run []int32, v int32) bool {
	for _, r := range run {
		if r == v {
			return true
		}
		if r > v {
			return false
		}
	}
	return false
}

func insertOrd(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

func removeOrd(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i < len(s) && s[i] == x {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

// projectWrites turns one element's replacement property map into
// per-key writes: a set for every key in the new map and, for
// pre-existing elements (prevCols non-nil), a clear for every column
// the element was present in but whose key the new map lost.
func projectWrites(writes map[string][]colWrite, ord int32, props ppg.Properties, prevCols map[string]*PropCol) {
	for k, v := range props {
		writes[k] = append(writes[k], colWrite{ord: ord, val: v})
	}
	if prevCols == nil {
		return
	}
	for k, c := range prevCols {
		if _, still := props[k]; still {
			continue
		}
		if int(ord)>>6 < len(c.present) && c.Present(ord) {
			writes[k] = append(writes[k], colWrite{ord: ord, clear: true})
		}
	}
}

// finalKind evolves a column's kind under a write list: writes that
// are not singletons of the column's scalar kind demote it to
// overflow. Columns never re-promote incrementally — the next full
// build may.
func finalKind(k ColKind, ws []colWrite) ColKind {
	for _, w := range ws {
		if w.clear || k == ColOverflow {
			continue
		}
		if el, ok := w.val.Singleton(); !ok || scalarColKind(el) != k {
			return ColOverflow
		}
	}
	return k
}

// newColKind mirrors Build's inference for a column that did not
// exist: the first value decides the candidate kind, any later
// mismatch demotes to overflow.
func newColKind(ws []colWrite) ColKind {
	k := ColOverflow
	first := true
	for _, w := range ws {
		if w.clear {
			continue
		}
		sk := ColOverflow
		if el, ok := w.val.Singleton(); ok {
			sk = scalarColKind(el)
		}
		if first {
			k = sk
			first = false
		} else if sk != k {
			return ColOverflow
		}
		if k == ColOverflow {
			return ColOverflow
		}
	}
	return k
}

// collectNewStrings gathers the string payloads the delta introduces
// into columns that will carry a typed string array, minus those the
// interner already knows.
func collectNewStrings(prev *Snapshot, nodeWrites, edgeWrites map[string][]colWrite) []string {
	var out []string
	seen := map[string]bool{}
	gather := func(prevCols map[string]*PropCol, writes map[string][]colWrite) {
		for key, ws := range writes {
			k := ColKind(ColOverflow)
			if c := prevCols[key]; c != nil {
				k = finalKind(c.kind, ws)
			} else {
				k = newColKind(ws)
			}
			if k != ColString {
				continue
			}
			for _, w := range ws {
				if w.clear {
					continue
				}
				el, _ := w.val.Singleton()
				str, _ := el.AsString()
				if seen[str] {
					continue
				}
				if _, ok := prev.strings.Lookup(str); ok {
					continue
				}
				seen[str] = true
				out = append(out, str)
			}
		}
	}
	gather(prev.nodeCols, nodeWrites)
	gather(prev.edgeCols, edgeWrites)
	sort.Strings(out)
	return out
}

// extendInterner appends new strings past the sorted prefix. The base
// names array and ids map are shared with every previous version; only
// the extension overlay is copied.
func extendInterner(base *Interner, newStrings []string) *Interner {
	if len(newStrings) == 0 {
		return base
	}
	in := &Interner{
		names:  base.names,
		ids:    base.ids,
		sorted: base.sorted,
		extIds: make(map[string]int32, len(base.extIds)+len(newStrings)),
	}
	for s, id := range base.extIds {
		in.extIds[s] = id
	}
	for _, s := range newStrings {
		in.extIds[s] = int32(len(in.names))
		in.names = append(in.names, s)
	}
	return in
}

// applyCols rebuilds one column family under a write map: untouched
// columns are shared as-is (their arrays keep the old length; Present
// bounds-checks), append-only columns extend their arrays, and
// columns with writes below their length are recopied.
func applyCols(prevCols map[string]*PropCol, writes map[string][]colWrite, count int, in *Interner) map[string]*PropCol {
	if len(writes) == 0 {
		return prevCols
	}
	cols := make(map[string]*PropCol, len(prevCols)+len(writes))
	for k, c := range prevCols {
		if ws := writes[k]; len(ws) > 0 {
			cols[k] = rebuildCol(c, ws, count, in)
		} else {
			cols[k] = c
		}
	}
	for k, ws := range writes {
		if _, ok := prevCols[k]; !ok {
			cols[k] = newCol(ws, count, in)
		}
	}
	return cols
}

func rebuildCol(c *PropCol, ws []colWrite, count int, in *Interner) *PropCol {
	k := finalKind(c.kind, ws)
	words := (count + 63) / 64
	nc := &PropCol{kind: k}
	// The presence bitmap is always copied: setting a bit in a shared
	// word would race the previous version's readers.
	nc.present = make([]uint64, words)
	copy(nc.present, c.present)
	// Write lists ascend by ordinal, so appendOnly holds exactly when
	// every write lands past the column's current arrays.
	appendOnly := !ws[0].clear && ws[0].ord >= int32(len(c.sets))
	if appendOnly {
		nc.sets = grow(c.sets, count)
	} else {
		nc.sets = make([]value.Value, count)
		copy(nc.sets, c.sets)
	}
	if k == c.kind && k != ColOverflow {
		switch k {
		case ColInt, ColDate:
			if appendOnly {
				nc.ints = grow(c.ints, count)
			} else {
				nc.ints = make([]int64, count)
				copy(nc.ints, c.ints)
			}
		case ColFloat:
			if appendOnly {
				nc.floats = grow(c.floats, count)
			} else {
				nc.floats = make([]float64, count)
				copy(nc.floats, c.floats)
			}
		case ColString:
			if appendOnly {
				nc.strs = grow(c.strs, count)
			} else {
				nc.strs = make([]int32, count)
				copy(nc.strs, c.strs)
			}
		case ColBool:
			// Payload bitmap: same shared-word hazard, always copied.
			nc.bools = make([]uint64, words)
			copy(nc.bools, c.bools)
		}
	}
	for _, w := range ws {
		applyWrite(nc, w, in)
	}
	return nc
}

func newCol(ws []colWrite, count int, in *Interner) *PropCol {
	words := (count + 63) / 64
	nc := &PropCol{
		kind:    newColKind(ws),
		present: make([]uint64, words),
		sets:    make([]value.Value, count),
	}
	switch nc.kind {
	case ColInt, ColDate:
		nc.ints = make([]int64, count)
	case ColFloat:
		nc.floats = make([]float64, count)
	case ColString:
		nc.strs = make([]int32, count)
	case ColBool:
		nc.bools = make([]uint64, words)
	}
	for _, w := range ws {
		applyWrite(nc, w, in)
	}
	return nc
}

func applyWrite(c *PropCol, w colWrite, in *Interner) {
	if w.clear {
		bitClear(c.present, w.ord)
		c.sets[w.ord] = value.Value{}
		if c.bools != nil {
			bitClear(c.bools, w.ord)
		}
		return
	}
	bitSet(c.present, w.ord)
	c.sets[w.ord] = w.val
	if c.kind == ColOverflow {
		return
	}
	el, _ := w.val.Singleton()
	switch c.kind {
	case ColInt:
		c.ints[w.ord], _ = el.AsInt()
	case ColDate:
		c.ints[w.ord], _ = el.AsDateDays()
	case ColFloat:
		c.floats[w.ord], _ = el.AsFloat()
	case ColString:
		str, _ := el.AsString()
		id, _ := in.Lookup(str)
		c.strs[w.ord] = id
	case ColBool:
		if b, _ := el.AsBool(); b {
			bitSet(c.bools, w.ord)
		} else {
			bitClear(c.bools, w.ord)
		}
	}
}

func bitClear(bm []uint64, i int32) { bm[i>>6] &^= 1 << (uint(i) & 63) }

// grow pads s with zero values to length n; when spare capacity is
// available the padding lands past the previous version's length,
// which its readers never index (linear-chain sharing).
func grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

func dedupIDs[T ~uint64](ids []T) []T {
	if len(ids) == 0 {
		return nil
	}
	out := append([]T(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func dedupIDsExcl[T ~uint64](ids []T, excl map[T]bool) []T {
	d := dedupIDs(ids)
	out := d[:0]
	for _, id := range d {
		if !excl[id] {
			out = append(out, id)
		}
	}
	return out
}

func idSet[T ~uint64](ids []T) map[T]bool {
	s := make(map[T]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

func copyOrdMap(m map[ppg.NodeID]int32, extra int) map[ppg.NodeID]int32 {
	out := make(map[ppg.NodeID]int32, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyEdgeOrdMap(m map[ppg.EdgeID]int32, extra int) map[ppg.EdgeID]int32 {
	out := make(map[ppg.EdgeID]int32, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyRunPatch(m map[int32][]int32, extra int) map[int32][]int32 {
	out := make(map[int32][]int32, len(m)+extra)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// accountShare estimates the shared/copied byte split between two
// snapshot versions by comparing array backings: an array whose
// backing survived counts its common prefix as shared and its growth
// as copied; a reallocated or fresh array counts wholly as copied.
// Map overlays are not counted (they are bounded by the fallback
// gate); inner adjacency and partition runs are.
func accountShare(prev, ns *Snapshot, info *BuildInfo) {
	acctSlice(prev.nodeIDs, ns.nodeIDs, info)
	acctSlice(prev.nodes, ns.nodes, info)
	acctSlice(prev.edgeIDs, ns.edgeIDs, info)
	acctSlice(prev.edges, ns.edges, info)
	acctSlice(prev.edgeSrc, ns.edgeSrc, info)
	acctSlice(prev.edgeDst, ns.edgeDst, info)
	acctSlice(prev.nodeLabelOff, ns.nodeLabelOff, info)
	acctSlice(prev.nodeLabelIDs, ns.nodeLabelIDs, info)
	acctSlice(prev.edgeLabelOff, ns.edgeLabelOff, info)
	acctSlice(prev.edgeLabelIDs, ns.edgeLabelIDs, info)
	acctAdj(prev.outAdj, ns.outAdj, info)
	acctAdj(prev.inAdj, ns.inAdj, info)
	acctAdj(prev.nodesByLabel, ns.nodesByLabel, info)
	acctAdj(prev.edgesByLabel, ns.edgesByLabel, info)
	if prev.strings != nil && ns.strings != nil {
		acctSlice(prev.strings.names, ns.strings.names, info)
	}
	acctCols(prev.nodeCols, ns.nodeCols, info)
	acctCols(prev.edgeCols, ns.edgeCols, info)
}

func acctCols(prev, ns map[string]*PropCol, info *BuildInfo) {
	for k, nc := range ns {
		var pc *PropCol
		if prev != nil {
			pc = prev[k]
		}
		if pc == nil {
			pc = &PropCol{}
		}
		acctSlice(pc.present, nc.present, info)
		acctSlice(pc.sets, nc.sets, info)
		acctSlice(pc.ints, nc.ints, info)
		acctSlice(pc.floats, nc.floats, info)
		acctSlice(pc.strs, nc.strs, info)
		acctSlice(pc.bools, nc.bools, info)
	}
}

func acctAdj(prev, ns [][]int32, info *BuildInfo) {
	acctSlice(prev, ns, info)
	for i := range ns {
		var p []int32
		if i < len(prev) {
			p = prev[i]
		}
		acctSlice(p, ns[i], info)
	}
}

func acctSlice[T any](prev, ns []T, info *BuildInfo) {
	if len(ns) == 0 {
		return
	}
	var z T
	el := int64(unsafe.Sizeof(z))
	if len(prev) > 0 && &prev[0] == &ns[0] {
		info.BytesShared += el * int64(len(prev))
		info.BytesCopied += el * int64(len(ns)-len(prev))
		return
	}
	info.BytesCopied += el * int64(len(ns))
}

// Equivalent reports whether two snapshots of the same graph state
// are semantically interchangeable, tolerating the layout differences
// a delta apply legitimately introduces (retained-but-empty labels,
// columns demoted to overflow, all-absent columns, unsorted interner
// extensions). It also validates each snapshot (Validate). Test oracle
// for the incremental path.
func Equivalent(a, b *Snapshot) error {
	if err := selfCheck(a); err != nil {
		return fmt.Errorf("first snapshot: %w", err)
	}
	if err := selfCheck(b); err != nil {
		return fmt.Errorf("second snapshot: %w", err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("size mismatch: %d/%d nodes, %d/%d edges",
			a.NumNodes(), b.NumNodes(), a.NumEdges(), b.NumEdges())
	}
	n, m := a.NumNodes(), a.NumEdges()
	for u := 0; u < n; u++ {
		if a.nodeIDs[u] != b.nodeIDs[u] {
			return fmt.Errorf("node ordinal %d: id %d vs %d", u, a.nodeIDs[u], b.nodeIDs[u])
		}
		if au, ok := a.Ord(a.nodeIDs[u]); !ok || au != int32(u) {
			return fmt.Errorf("first snapshot: Ord(%d) != %d", a.nodeIDs[u], u)
		}
		if bu, ok := b.Ord(a.nodeIDs[u]); !ok || bu != int32(u) {
			return fmt.Errorf("second snapshot: Ord(%d) != %d", a.nodeIDs[u], u)
		}
		if !labelNamesEqual(a, b, a.nodeLabelRun(int32(u)), b.nodeLabelRun(int32(u))) {
			return fmt.Errorf("node ordinal %d: label sets differ", u)
		}
		if !int32sEqual(a.Out(int32(u)), b.Out(int32(u))) {
			return fmt.Errorf("node ordinal %d: out adjacency differs", u)
		}
		if !int32sEqual(a.In(int32(u)), b.In(int32(u))) {
			return fmt.Errorf("node ordinal %d: in adjacency differs", u)
		}
	}
	for e := 0; e < m; e++ {
		if a.edgeIDs[e] != b.edgeIDs[e] {
			return fmt.Errorf("edge ordinal %d: id %d vs %d", e, a.edgeIDs[e], b.edgeIDs[e])
		}
		if ae, ok := a.EdgeOrd(a.edgeIDs[e]); !ok || ae != int32(e) {
			return fmt.Errorf("first snapshot: EdgeOrd(%d) != %d", a.edgeIDs[e], e)
		}
		if be, ok := b.EdgeOrd(a.edgeIDs[e]); !ok || be != int32(e) {
			return fmt.Errorf("second snapshot: EdgeOrd(%d) != %d", a.edgeIDs[e], e)
		}
		if a.Src(int32(e)) != b.Src(int32(e)) || a.Dst(int32(e)) != b.Dst(int32(e)) {
			return fmt.Errorf("edge ordinal %d: endpoints differ", e)
		}
		if !labelNamesEqual(a, b, a.edgeLabelRun(int32(e)), b.edgeLabelRun(int32(e))) {
			return fmt.Errorf("edge ordinal %d: label sets differ", e)
		}
	}
	// Partitions compared by label NAME: a delta apply may keep a name
	// whose last carrier was relabelled (empty partition), which Build
	// would drop entirely — both mean "no element matches".
	names := map[string]bool{}
	for _, l := range a.labelNames {
		names[l] = true
	}
	for _, l := range b.labelNames {
		names[l] = true
	}
	for l := range names {
		if !int32sEqual(a.NodesWithLabel(a.LabelID(l)), b.NodesWithLabel(b.LabelID(l))) {
			return fmt.Errorf("label %q: node partitions differ", l)
		}
		if !int32sEqual(a.EdgesWithLabel(a.LabelID(l)), b.EdgesWithLabel(b.LabelID(l))) {
			return fmt.Errorf("label %q: edge partitions differ", l)
		}
	}
	// Property columns compared per ordinal through the read API: a
	// missing column and an all-absent column are both "no element
	// carries the key".
	if err := colsEquivalent(a, b, n, true); err != nil {
		return err
	}
	if err := colsEquivalent(a, b, m, false); err != nil {
		return err
	}
	return nil
}

func colsEquivalent(a, b *Snapshot, count int, node bool) error {
	keys := map[string]bool{}
	fam := func(s *Snapshot) map[string]*PropCol {
		if node {
			return s.nodeCols
		}
		return s.edgeCols
	}
	for k := range fam(a) {
		keys[k] = true
	}
	for k := range fam(b) {
		keys[k] = true
	}
	read := func(s *Snapshot, ord int32, key string) value.Value {
		if node {
			return s.NodeProp(ord, key)
		}
		return s.EdgeProp(ord, key)
	}
	for key := range keys {
		for o := int32(0); o < int32(count); o++ {
			av, bv := read(a, o, key), read(b, o, key)
			if !value.Equal(av, bv) {
				return fmt.Errorf("key %q ordinal %d: %v vs %v", key, o, av, bv)
			}
		}
	}
	return nil
}

// Validate verifies the snapshot's internal consistency: typed column
// payloads must agree with the mirrored sets, string identifiers must
// resolve through the interner to the mirrored string, and every
// equality index built so far must equal a from-scratch build of its
// column.
func (s *Snapshot) Validate() error { return selfCheck(s) }

func selfCheck(s *Snapshot) error {
	check := func(cols map[string]*PropCol, count int, what string) error {
		for key, c := range cols {
			if err := c.checkEqIndex(); err != nil {
				return fmt.Errorf("%s column %q: %w", what, key, err)
			}
			if c.kind == ColOverflow {
				continue
			}
			for o := int32(0); o < int32(count); o++ {
				if int(o)>>6 >= len(c.present) || !c.Present(o) {
					continue
				}
				el, ok := c.sets[o].Singleton()
				if !ok {
					return fmt.Errorf("%s column %q (kind %v) holds non-singleton at %d", what, key, c.kind, o)
				}
				switch c.kind {
				case ColInt:
					want, _ := el.AsInt()
					if c.ints[o] != want {
						return fmt.Errorf("%s column %q: int payload mismatch at %d", what, key, o)
					}
				case ColDate:
					want, _ := el.AsDateDays()
					if c.ints[o] != want {
						return fmt.Errorf("%s column %q: date payload mismatch at %d", what, key, o)
					}
				case ColFloat:
					want, _ := el.AsFloat()
					if c.floats[o] != want && !(math.IsNaN(c.floats[o]) && math.IsNaN(want)) {
						return fmt.Errorf("%s column %q: float payload mismatch at %d", what, key, o)
					}
				case ColString:
					want, _ := el.AsString()
					if int(c.strs[o]) >= s.strings.Count() || s.strings.Name(c.strs[o]) != want {
						return fmt.Errorf("%s column %q: string payload mismatch at %d", what, key, o)
					}
				case ColBool:
					want, _ := el.AsBool()
					if c.BoolAt(o) != want {
						return fmt.Errorf("%s column %q: bool payload mismatch at %d", what, key, o)
					}
				}
			}
		}
		return nil
	}
	if err := check(s.nodeCols, s.NumNodes(), "node"); err != nil {
		return err
	}
	return check(s.edgeCols, s.NumEdges(), "edge")
}

func labelNamesEqual(a, b *Snapshot, ra, rb []int32) bool {
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if a.labelNames[ra[i]] != b.labelNames[rb[i]] {
			return false
		}
	}
	return true
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
