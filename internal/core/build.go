package core

import (
	"gcore/internal/csr"
	"gcore/internal/freelist"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// One CONSTRUCT execution appends its output into a builder, which
// assembles the result graph once, at the end, with ppg.Assemble.
//
// Elements come in two ways. Graph elements of the home snapshot — the
// snapshot of the first matched graph, which a walk of that graph is
// read against — are deduplicated by ordinal in a bitset, so a walk's
// constituents enter with no map probe at all. Minted elements and
// elements of other graphs are deduplicated by identifier. An element
// whose identifier has a home ordinal is always tracked by its bit,
// whichever way it came, so the two never disagree about what the
// result holds.
//
// Builders are recycled through a free list: the bitsets, sized to the
// home snapshot, and one walk's ordinal scratch outlive an execution,
// so a small CONSTRUCT over a large graph allocates neither. Each
// execution takes its own builder, so concurrent executions of one
// cached statement never share one.
type builder struct {
	c      *evalCtx
	graphs []*ppg.Graph

	home     *csr.Snapshot // graphs[0]'s, fetched on first use; nil without graphs
	homeDone bool

	nodes elems[ppg.Node]
	edges elems[ppg.Edge]
	paths elems[ppg.Path]

	walkNodes, walkEdges []int32 // one walk's ordinals
}

var builderFree freelist.List[builder]

// newBuilder takes a builder from the free list for one execution.
func newBuilder(c *evalCtx, graphs []*ppg.Graph) *builder {
	b := builderFree.Get()
	if b.nodes.key == nil {
		b.nodes.key = func(n *ppg.Node) uint64 { return uint64(n.ID) }
		b.edges.key = func(e *ppg.Edge) uint64 { return uint64(e.ID) }
		b.paths.key = func(p *ppg.Path) uint64 { return uint64(p.ID) }
	}
	b.c, b.graphs = c, graphs
	return b
}

// release returns b to the free list once the result is assembled. The
// element lists and the index go to the collector with everything else
// the result does not hold; the bitsets and the walk scratch stay,
// emptied.
func (b *builder) release() {
	b.nodes.reset()
	b.edges.reset()
	b.paths.reset()
	b.c, b.graphs, b.home, b.homeDone = nil, nil, nil, false
	builderFree.Put(b)
}

// elems is the result's elements of one sort, in insertion order. The
// ones with a home ordinal are tracked by two bitsets over the n
// ordinals, each allocated on its first use: on says the result holds
// the element, mod that it holds another object than the snapshot's. A
// position index by identifier is built only when first needed — to
// merge into an element, to deduplicate one no home bit tracks, or to
// answer a lookup — and kept up to date from then on.
type elems[E any] struct {
	list    []*E
	n       int
	on, mod []uint64
	at      map[uint64]int32
	key     func(*E) uint64
}

func bitAt(set []uint64, u int32) bool { return len(set) > 0 && set[u>>6]&(1<<(u&63)) != 0 }

func (s *elems[E]) setBit(set *[]uint64, u int32) {
	if len(*set) == 0 {
		words := (s.n + 63) >> 6
		if cap(*set) < words {
			*set = make([]uint64, words)
		} else {
			*set = (*set)[:words]
			clear(*set)
		}
	}
	(*set)[u>>6] |= 1 << (u & 63)
}

// reset empties s for the next execution, keeping its bitsets' room.
func (s *elems[E]) reset() {
	s.list, s.at, s.on, s.mod = nil, nil, s.on[:0], s.mod[:0]
}

func (s *elems[E]) push(e *E) {
	if s.at != nil {
		s.at[s.key(e)] = int32(len(s.list))
	}
	s.list = append(s.list, e)
}

// find returns the position of the element with identifier id.
func (s *elems[E]) find(id uint64) (int, bool) {
	if s.at == nil {
		s.at = make(map[uint64]int32, len(s.list))
		for i, e := range s.list {
			s.at[s.key(e)] = int32(i)
		}
	}
	i, ok := s.at[id]
	return int(i), ok
}

// holds reports whether the result holds the element of identifier id,
// whose home ordinal is u (-1 for none).
func (s *elems[E]) holds(id uint64, u int32) bool {
	if u >= 0 {
		return bitAt(s.on, u)
	}
	_, ok := s.find(id)
	return ok
}

// enter appends e, which the result does not hold; u is its home
// ordinal (-1 for none), and same says e is the home snapshot's own
// element object.
func (s *elems[E]) enter(e *E, u int32, same bool) {
	if u >= 0 {
		s.setBit(&s.on, u)
		if !same {
			s.setBit(&s.mod, u)
		}
	}
	s.push(e)
}

// add enters e unless the result holds its identifier (see enter), and
// returns the position of the element there when that is another
// object, for the caller to merge e into; -1 otherwise. fresh says the
// identifier was just minted.
func (s *elems[E]) add(e *E, u int32, fresh, same bool) int {
	switch {
	case fresh || !s.holds(s.key(e), u):
		s.enter(e, u, same)
		return -1
	case same && !bitAt(s.mod, u):
		return -1 // the snapshot's element, already there
	}
	if i, _ := s.find(s.key(e)); s.list[i] != e {
		return i
	}
	return -1
}

// replace puts merged, a new object, at position i, which holds the
// element of home ordinal u (-1 for none).
func (s *elems[E]) replace(i int, u int32, merged *E) {
	s.list[i] = merged
	if u >= 0 {
		s.setBit(&s.mod, u)
	}
}

// homeSnap returns the home snapshot, or nil when nothing was matched.
// graphs[0] was matched by this statement, so its snapshot is the one
// the MATCH read: fetching it again is a cache hit.
func (b *builder) homeSnap() *csr.Snapshot {
	if !b.homeDone {
		b.homeDone = true
		if len(b.graphs) > 0 {
			b.home = csr.Of(b.graphs[0])
			b.nodes.n, b.edges.n = b.home.NumNodes(), b.home.NumEdges()
		}
	}
	return b.home
}

// sourceNode returns the node id names in the first matched graph that
// holds it, with its home ordinal, or -1 when it is not a home node.
// A snapshot's node is its graph's current element object, so it is the
// node the graph itself would return.
func (b *builder) sourceNode(id ppg.NodeID) (*ppg.Node, int32) {
	if u := b.homeNode(id); u >= 0 {
		return b.home.Node(u), u
	}
	n, _ := findNode(b.graphs[min(1, len(b.graphs)):], id)
	return n, -1
}

// sourceEdge is sourceNode for edges.
func (b *builder) sourceEdge(id ppg.EdgeID) (*ppg.Edge, int32) {
	if eo := b.homeEdge(id); eo >= 0 {
		return b.home.Edge(eo), eo
	}
	e, _ := findEdge(b.graphs[min(1, len(b.graphs)):], id)
	return e, -1
}

// homeNode returns the home ordinal of node id, -1 when it has none.
func (b *builder) homeNode(id ppg.NodeID) int32 {
	if h := b.homeSnap(); h != nil {
		if u, ok := h.Ord(id); ok {
			return u
		}
	}
	return -1
}

// homeEdge is homeNode for edges.
func (b *builder) homeEdge(id ppg.EdgeID) int32 {
	if h := b.homeSnap(); h != nil {
		if eo, ok := h.EdgeOrd(id); ok {
			return eo
		}
	}
	return -1
}

// addNode enters a node a node construct built: u is its home ordinal,
// -1 when it has none; fresh says its identifier was just minted, so it
// cannot be in the result yet. A node already there is merged with —
// labels united, n's properties written over — into a new node, since
// the one there may be shared with a source graph.
func (b *builder) addNode(n *ppg.Node, u int32, fresh bool) {
	if i := b.nodes.add(n, u, fresh, u >= 0 && n == b.home.Node(u)); i >= 0 {
		old := b.nodes.list[i]
		b.nodes.replace(i, u, &ppg.Node{ID: n.ID, Labels: old.Labels.Union(n.Labels), Props: overwriteProps(old.Props, n.Props)})
	}
}

// addEdge is addNode for an edge an edge construct built; an edge
// already there must join the same endpoints.
func (b *builder) addEdge(e *ppg.Edge, eo int32, fresh bool) error {
	if i := b.edges.add(e, eo, fresh, eo >= 0 && e == b.home.Edge(eo)); i >= 0 {
		old := b.edges.list[i]
		if old.Src != e.Src || old.Dst != e.Dst {
			return errf("edge #%d constructed with conflicting endpoints", e.ID)
		}
		b.edges.replace(i, eo, &ppg.Edge{ID: e.ID, Src: e.Src, Dst: e.Dst, Labels: old.Labels.Union(e.Labels), Props: overwriteProps(old.Props, e.Props)})
	}
	return nil
}

// overwriteProps returns base with over's properties written on top,
// in a new map unless over is empty.
func overwriteProps(base, over ppg.Properties) ppg.Properties {
	if len(over) == 0 {
		return base
	}
	out := base.Clone()
	for k, v := range over {
		out[k] = v
	}
	return out
}

// addConstituents enters the nodes, then the edges, that a walk or
// projection given as ordinals of snapshot s passes through, each one
// the result does not hold yet counted as one result. A walk of the
// home snapshot costs two bit tests per item; one of another graph
// pays an ordinal probe into home, or an identifier lookup.
func (b *builder) addConstituents(s *csr.Snapshot, nodes, edges []int32) error {
	home := b.homeSnap()
	for _, u := range nodes {
		n, hu := s.Node(u), u
		if s != home {
			hu = b.homeNode(n.ID)
		}
		if b.nodes.holds(uint64(n.ID), hu) {
			continue
		}
		if err := b.c.gov.AddResults(1); err != nil {
			return err
		}
		b.nodes.enter(n, hu, hu >= 0 && n == home.Node(hu))
	}
	for _, e := range edges {
		ed, he := s.Edge(e), e
		if s != home {
			he = b.homeEdge(ed.ID)
		}
		if b.edges.holds(uint64(ed.ID), he) {
			continue
		}
		if err := b.c.gov.AddResults(1); err != nil {
			return err
		}
		b.edges.enter(ed, he, he >= 0 && ed == home.Edge(he))
	}
	return nil
}

// checkWalk verifies that nodes and edges, ordinals of s, spell a walk
// of stored path pid (Definition 2.1, condition 3): n+1 nodes for n
// edges, each edge joining its neighbours in either direction.
func checkWalk(s *csr.Snapshot, pid ppg.PathID, nodes, edges []int32) error {
	if len(nodes) != len(edges)+1 {
		return errf("path #%d has %d nodes and %d edges; need n+1 nodes for n edges", pid, len(nodes), len(edges))
	}
	for i, e := range edges {
		a, z := nodes[i], nodes[i+1]
		if src, dst := s.Src(e), s.Dst(e); !(src == a && dst == z) && !(src == z && dst == a) {
			return errf("path #%d: edge #%d does not connect #%d and #%d", pid, s.EdgeID(e), s.NodeID(a), s.NodeID(z))
		}
	}
	return nil
}

// element returns λ and σ of the node or edge ref names in the result
// so far, or of the path it stores; a nil builder holds nothing.
func (b *builder) element(ref value.Value) (ppg.Labels, ppg.Properties, bool) {
	id, ok := ref.RefID()
	if b == nil || !ok {
		return nil, nil, false
	}
	switch ref.Kind() {
	case value.KindNode:
		if i, ok := b.nodes.find(id); ok {
			return b.nodes.list[i].Labels, b.nodes.list[i].Props, true
		}
	case value.KindEdge:
		if i, ok := b.edges.find(id); ok {
			return b.edges.list[i].Labels, b.edges.list[i].Props, true
		}
	case value.KindPath:
		if p, ok := b.path(ppg.PathID(id)); ok {
			return p.Labels, p.Props, true
		}
	}
	return nil, nil, false
}

// path returns the stored path pid of the result so far.
func (b *builder) path(pid ppg.PathID) (*ppg.Path, bool) {
	if b == nil {
		return nil, false
	}
	if i, ok := b.paths.find(uint64(pid)); ok {
		return b.paths.list[i], true
	}
	return nil, false
}

// graph assembles the result. WHEN's dropped objects stay out, and with
// them edges that lost an endpoint and paths that lost a constituent
// (no dangling elements, ever); the shared element objects are kept.
func (b *builder) graph(dropped map[objKey]bool) (*ppg.Graph, error) {
	if len(dropped) == 0 {
		return ppg.Assemble("", b.nodes.list, b.edges.list, b.paths.list), nil
	}
	out := ppg.New("")
	for _, n := range b.nodes.list {
		if dropped[objKey{sortNode, uint64(n.ID)}] {
			continue
		}
		if err := out.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, e := range b.edges.list {
		if dropped[objKey{sortEdge, uint64(e.ID)}] {
			continue
		}
		if _, ok := out.Node(e.Src); !ok {
			continue
		}
		if _, ok := out.Node(e.Dst); !ok {
			continue
		}
		if err := out.AddEdge(e); err != nil {
			return nil, err
		}
	}
	for _, p := range b.paths.list {
		if dropped[objKey{sortPath, uint64(p.ID)}] {
			continue
		}
		if err := out.AddPath(p); err != nil {
			continue // constituents dropped: the path goes too
		}
	}
	return out, nil
}

// buildScratch is what the CONSTRUCTs of one statement share: the
// arena its stored walks' identifier sequences are cut from, and the
// slab of their ppg.Path structs. Result graphs keep what they were
// cut; the arena and slab only ever grow, in fresh chunks, so nothing
// handed out is written again.
type buildScratch struct {
	nodeIDs []ppg.NodeID
	edgeIDs []ppg.EdgeID
	paths   []ppg.Path
}

// reserve makes room for n more items in *buf, starting a chunk of
// exactly n when the current one has less.
func reserve[T any](buf *[]T, n int) {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]T, 0, n)
	}
}

// cut returns the next n items of *buf, starting a chunk at least
// twice the last when the current one is full.
func cut[T any](buf *[]T, n int) []T {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]T, 0, max(n, 2*cap(*buf), 64))
	}
	i := len(*buf)
	*buf = (*buf)[:i+n]
	return (*buf)[i : i+n : i+n]
}

// walkIDs returns the identifier sequences of a walk given as ordinals
// of s, cut from the arena.
func (sc *buildScratch) walkIDs(s *csr.Snapshot, nodes, edges []int32) ([]ppg.NodeID, []ppg.EdgeID) {
	nodeIDs, edgeIDs := cut(&sc.nodeIDs, len(nodes)), cut(&sc.edgeIDs, len(edges))
	for i, u := range nodes {
		nodeIDs[i] = s.NodeID(u)
	}
	for i, e := range edges {
		edgeIDs[i] = s.EdgeID(e)
	}
	return nodeIDs, edgeIDs
}

// path returns a zero ppg.Path from the slab.
func (sc *buildScratch) path() *ppg.Path {
	return &cut(&sc.paths, 1)[0]
}
