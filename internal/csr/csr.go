// Package csr provides an immutable, cache-friendly snapshot of a
// Path Property Graph in compressed-sparse-row form. The ppg.Graph of
// the data model is optimised for mutation: nodes and edges live in
// maps, adjacency in per-node slices, labels as sorted string sets.
// That layout makes every hot-loop step of pattern matching and path
// search a pointer chase — a map probe per node, a string comparison
// per label test. The snapshot re-materialises the same graph as flat
// arrays over dense ordinals:
//
//	ordinal u ∈ [0, NumNodes)   nodes, ascending by ppg.NodeID
//	ordinal e ∈ [0, NumEdges)   edges, ascending by ppg.EdgeID
//
// with out/in adjacency as per-node runs over one flat array (CSR,
// both directions), label sets interned to small integer identifiers, and
// per-label node/edge partitions for indexed scans. Because ordinals
// ascend with identifiers, iterating a CSR range visits elements in
// exactly the order the ppg iteration does — the deterministic
// evaluation order is preserved by construction.
//
// Snapshots are immutable and generation-tagged: ppg.Graph counts its
// mutations — structural ones and in-place property writes alike (see
// ppg.Graph.TouchProps) — and Of serves the cached snapshot only
// while the generation matches; the first read after a mutation runs
// Build. Properties are
// frozen at build time into typed columns (props.go): one dense
// column per key with a presence bitmap, scalar payload arrays for
// uniformly-typed singleton values, interned strings, and the stored
// FSET(V) sets mirrored exactly for the multi-valued and mixed-type
// overflow cases.
package csr

import (
	"sort"
	"sync"

	"gcore/internal/ppg"
)

// NoLabel is returned by LabelID for a label no element carries: no
// node or edge can match it in this snapshot.
const NoLabel int32 = -1

// AnyLabel stands for "no label test" where Degree takes a label.
const AnyLabel int32 = -2

// Snapshot is the CSR image of one graph at one generation.
type Snapshot struct {
	gen uint64

	// Node columns, indexed by node ordinal.
	nodeIDs []ppg.NodeID
	nodes   []*ppg.Node
	ord     map[ppg.NodeID]int32

	// Edge columns, indexed by edge ordinal.
	edgeIDs []ppg.EdgeID
	edges   []*ppg.Edge
	edgeOrd map[ppg.EdgeID]int32
	edgeSrc []int32
	edgeDst []int32

	// Adjacency: per node ordinal the out/in edge ordinals, ascending
	// — i.e. ascending ppg.EdgeID — as runs over one flat array per
	// direction.
	outAdj [][]int32
	inAdj  [][]int32

	// Label interning: names sorted ascending, so label identifiers
	// are deterministic for a given graph.
	labelNames []string
	labelOf    map[string]int32

	// Per-element label sets as CSR over interned identifiers, sorted
	// within each element.
	nodeLabelOff []int32
	nodeLabelIDs []int32
	edgeLabelOff []int32
	edgeLabelIDs []int32

	// Per-label partitions: sorted ordinals of the elements carrying
	// the label.
	nodesByLabel [][]int32
	edgesByLabel [][]int32

	// Columnar property storage (props.go): one column per key over
	// the ordinal range, plus the snapshot-wide string table.
	strings  *Interner
	nodeCols map[string]*PropCol
	edgeCols map[string]*PropCol

	// Degree sums per (node label, edge label, direction), counted on
	// first use.
	degreeMu sync.Mutex
	degrees  map[degreeKey]int64
}

type degreeKey struct {
	node, edge int32
	in         bool
}

// Of returns the snapshot of g at its current generation: the cached
// build while the generation matches, a fresh Build otherwise. Safe
// for concurrent readers.
func Of(g *ppg.Graph) *Snapshot {
	return g.Snapshot(func() any { return Build(g) }).(*Snapshot)
}

// Build constructs a fresh snapshot of g, bypassing the cache.
func Build(g *ppg.Graph) *Snapshot {
	s := &Snapshot{gen: g.Generation()}

	// An assembled or decoded graph hands over its element order as
	// it stands; other graphs sort once here.
	s.nodes = g.Nodes()
	n := len(s.nodes)
	s.nodeIDs = make([]ppg.NodeID, n)
	s.ord = make(map[ppg.NodeID]int32, n)
	for i, nd := range s.nodes {
		s.nodeIDs[i] = nd.ID
		s.ord[nd.ID] = int32(i)
	}

	s.edges = g.Edges()
	m := len(s.edges)
	s.edgeIDs = make([]ppg.EdgeID, m)
	s.edgeOrd = make(map[ppg.EdgeID]int32, m)
	s.edgeSrc = make([]int32, m)
	s.edgeDst = make([]int32, m)
	for i, ed := range s.edges {
		s.edgeIDs[i] = ed.ID
		s.edgeOrd[ed.ID] = int32(i)
		s.edgeSrc[i] = s.ord[ed.Src]
		s.edgeDst[i] = s.ord[ed.Dst]
	}

	s.internLabels()
	s.buildAdjacency(n, m)
	s.buildPartitions()
	s.buildPropColumns()
	return s
}

// internLabels assigns dense identifiers to every label in use,
// ascending by name, and encodes each element's label set as sorted
// interned identifiers.
func (s *Snapshot) internLabels() {
	seen := map[string]bool{}
	for _, nd := range s.nodes {
		for _, l := range nd.Labels {
			seen[l] = true
		}
	}
	for _, ed := range s.edges {
		for _, l := range ed.Labels {
			seen[l] = true
		}
	}
	s.labelNames = make([]string, 0, len(seen))
	for l := range seen {
		s.labelNames = append(s.labelNames, l)
	}
	sort.Strings(s.labelNames)
	s.labelOf = make(map[string]int32, len(s.labelNames))
	for i, l := range s.labelNames {
		s.labelOf[l] = int32(i)
	}

	encode := func(count int, labels func(int) ppg.Labels) ([]int32, []int32) {
		off := make([]int32, count+1)
		total := 0
		for i := 0; i < count; i++ {
			total += len(labels(i))
		}
		ids := make([]int32, 0, total)
		for i := 0; i < count; i++ {
			off[i] = int32(len(ids))
			ls := labels(i)
			// ppg.Labels is sorted by name and interned identifiers
			// ascend with names, so the encoded run is already sorted.
			for _, l := range ls {
				ids = append(ids, s.labelOf[l])
			}
		}
		off[count] = int32(len(ids))
		return off, ids
	}
	s.nodeLabelOff, s.nodeLabelIDs = encode(len(s.nodes), func(i int) ppg.Labels { return s.nodes[i].Labels })
	s.edgeLabelOff, s.edgeLabelIDs = encode(len(s.edges), func(i int) ppg.Labels { return s.edges[i].Labels })
}

// buildAdjacency fills both adjacency directions by counting degrees
// into one flat array per direction and then appending edge ordinals
// in ascending order — each per-node run therefore ascends by
// ppg.EdgeID, reproducing ppg adjacency order.
func (s *Snapshot) buildAdjacency(n, m int) {
	outOff := make([]int32, n+1)
	inOff := make([]int32, n+1)
	for e := 0; e < m; e++ {
		outOff[s.edgeSrc[e]+1]++
		inOff[s.edgeDst[e]+1]++
	}
	for u := 0; u < n; u++ {
		outOff[u+1] += outOff[u]
		inOff[u+1] += inOff[u]
	}
	outList := make([]int32, m)
	inList := make([]int32, m)
	outNext := make([]int32, n)
	inNext := make([]int32, n)
	copy(outNext, outOff[:n])
	copy(inNext, inOff[:n])
	for e := 0; e < m; e++ {
		u, v := s.edgeSrc[e], s.edgeDst[e]
		outList[outNext[u]] = int32(e)
		outNext[u]++
		inList[inNext[v]] = int32(e)
		inNext[v]++
	}
	s.outAdj = make([][]int32, n)
	s.inAdj = make([][]int32, n)
	for u := 0; u < n; u++ {
		s.outAdj[u] = outList[outOff[u]:outOff[u+1]]
		s.inAdj[u] = inList[inOff[u]:inOff[u+1]]
	}
}

// buildPartitions groups node and edge ordinals per interned label.
// Iterating ordinals ascending keeps each partition sorted.
func (s *Snapshot) buildPartitions() {
	s.nodesByLabel = make([][]int32, len(s.labelNames))
	s.edgesByLabel = make([][]int32, len(s.labelNames))
	for u := range s.nodes {
		for _, lid := range s.nodeLabelIDs[s.nodeLabelOff[u]:s.nodeLabelOff[u+1]] {
			s.nodesByLabel[lid] = append(s.nodesByLabel[lid], int32(u))
		}
	}
	for e := range s.edges {
		for _, lid := range s.edgeLabelIDs[s.edgeLabelOff[e]:s.edgeLabelOff[e+1]] {
			s.edgesByLabel[lid] = append(s.edgesByLabel[lid], int32(e))
		}
	}
}

// Generation returns the graph generation the snapshot was built at.
func (s *Snapshot) Generation() uint64 { return s.gen }

// NumNodes returns the number of nodes (the ordinal range).
func (s *Snapshot) NumNodes() int { return len(s.nodeIDs) }

// NumEdges returns the number of edges.
func (s *Snapshot) NumEdges() int { return len(s.edgeIDs) }

// Ord maps a node identifier to its dense ordinal.
func (s *Snapshot) Ord(id ppg.NodeID) (int32, bool) {
	u, ok := s.ord[id]
	return u, ok
}

// NodeID maps a node ordinal back to its identifier.
func (s *Snapshot) NodeID(u int32) ppg.NodeID { return s.nodeIDs[u] }

// Node returns the node at an ordinal: the graph's element object as
// of the snapshot's generation. ppg elements are immutable once
// inserted — a mutator stores a new object, and the next snapshot
// points at it — so the node's labels and properties always agree with
// the snapshot's label arrays and property columns.
func (s *Snapshot) Node(u int32) *ppg.Node { return s.nodes[u] }

// EdgeID maps an edge ordinal back to its identifier.
func (s *Snapshot) EdgeID(e int32) ppg.EdgeID { return s.edgeIDs[e] }

// EdgeOrd maps an edge identifier to its dense ordinal.
func (s *Snapshot) EdgeOrd(id ppg.EdgeID) (int32, bool) {
	e, ok := s.edgeOrd[id]
	return e, ok
}

// Edge returns the edge at an ordinal (aliasing rules as with Node).
func (s *Snapshot) Edge(e int32) *ppg.Edge { return s.edges[e] }

// Src returns the source-node ordinal of an edge ordinal.
func (s *Snapshot) Src(e int32) int32 { return s.edgeSrc[e] }

// Dst returns the destination-node ordinal of an edge ordinal.
func (s *Snapshot) Dst(e int32) int32 { return s.edgeDst[e] }

// Out returns the out-edge ordinals of node ordinal u, ascending by
// edge identifier. The slice aliases the snapshot and is read-only.
func (s *Snapshot) Out(u int32) []int32 { return s.outAdj[u] }

// In returns the in-edge ordinals of node ordinal u, ascending by edge
// identifier, read-only.
func (s *Snapshot) In(u int32) []int32 { return s.inAdj[u] }

// LabelID resolves a label name to its interned identifier, or NoLabel
// if no element of the snapshot carries it.
func (s *Snapshot) LabelID(name string) int32 {
	if id, ok := s.labelOf[name]; ok {
		return id
	}
	return NoLabel
}

// nodeLabelRun returns the sorted interned-label run of node ordinal u.
func (s *Snapshot) nodeLabelRun(u int32) []int32 {
	return s.nodeLabelIDs[s.nodeLabelOff[u]:s.nodeLabelOff[u+1]]
}

// edgeLabelRun returns the sorted interned-label run of edge ordinal e.
func (s *Snapshot) edgeLabelRun(e int32) []int32 {
	return s.edgeLabelIDs[s.edgeLabelOff[e]:s.edgeLabelOff[e+1]]
}

// NodeHasLabel reports whether the node at ordinal u carries the
// interned label. Label runs are short sorted slices; a linear scan
// with early exit beats binary search at these sizes.
func (s *Snapshot) NodeHasLabel(u, lid int32) bool {
	for _, l := range s.nodeLabelRun(u) {
		if l == lid {
			return true
		}
		if l > lid {
			return false
		}
	}
	return false
}

// EdgeHasLabel reports whether the edge at ordinal e carries the
// interned label.
func (s *Snapshot) EdgeHasLabel(e, lid int32) bool {
	for _, l := range s.edgeLabelRun(e) {
		if l == lid {
			return true
		}
		if l > lid {
			return false
		}
	}
	return false
}

// NodesWithLabel returns the sorted node ordinals carrying the
// interned label (read-only; nil for NoLabel).
func (s *Snapshot) NodesWithLabel(lid int32) []int32 {
	if lid < 0 || int(lid) >= len(s.nodesByLabel) {
		return nil
	}
	return s.nodesByLabel[lid]
}

// EdgesWithLabel returns the sorted edge ordinals carrying the
// interned label (read-only; nil for NoLabel).
func (s *Snapshot) EdgesWithLabel(lid int32) []int32 {
	if lid < 0 || int(lid) >= len(s.edgesByLabel) {
		return nil
	}
	return s.edgesByLabel[lid]
}

// Degree counts the edges carrying edgeLabel in the out (or, with in
// set, the in) adjacency of the nodes carrying nodeLabel; divided by
// the size of nodeLabel's partition it is that label's average degree
// over edgeLabel. AnyLabel drops either test; NoLabel, which nothing
// carries, counts 0. Sums over a node label are counted on first use
// and kept with the snapshot.
func (s *Snapshot) Degree(nodeLabel, edgeLabel int32, in bool) int64 {
	switch {
	case nodeLabel == NoLabel || edgeLabel == NoLabel:
		return 0
	case nodeLabel == AnyLabel && edgeLabel == AnyLabel:
		return int64(s.NumEdges())
	case nodeLabel == AnyLabel:
		return int64(len(s.EdgesWithLabel(edgeLabel)))
	}
	key := degreeKey{nodeLabel, edgeLabel, in}
	s.degreeMu.Lock()
	defer s.degreeMu.Unlock()
	if n, ok := s.degrees[key]; ok {
		return n
	}
	adj := s.outAdj
	if in {
		adj = s.inAdj
	}
	var n int64
	for _, u := range s.NodesWithLabel(nodeLabel) {
		if edgeLabel == AnyLabel {
			n += int64(len(adj[u]))
			continue
		}
		for _, e := range adj[u] {
			if s.EdgeHasLabel(e, edgeLabel) {
				n++
			}
		}
	}
	if s.degrees == nil {
		s.degrees = map[degreeKey]int64{}
	}
	s.degrees[key] = n
	return n
}
