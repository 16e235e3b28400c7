// Package ppg implements the Path Property Graph data model of G-CORE
// (Definition 2.1): a property graph G = (N, E, P, ρ, δ, λ, σ) whose
// third component is a finite set of *stored paths* — first-class
// citizens with identity, labels and ⟨property,value⟩ pairs, exactly
// like nodes and edges.
//
// Identifiers are engine-unique unsigned integers so that the "full
// graph" operations of §A.5 (union, intersection, difference), which
// are defined in terms of node, edge and path identity, work across
// the graphs of one engine. Iteration order is always ascending by
// identifier, giving the deterministic evaluation the paper's
// fixed-order tie-breaking requires (§A.1, footnote 4).
package ppg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"gcore/internal/value"
)

// NodeID identifies a node (an element of N).
type NodeID uint64

// EdgeID identifies an edge (an element of E).
type EdgeID uint64

// PathID identifies a stored path (an element of P).
type PathID uint64

// Labels is a sorted, duplicate-free set of label names (λ values).
type Labels []string

// NewLabels builds a normalised label set.
func NewLabels(names ...string) Labels {
	ls := append(Labels(nil), names...)
	sort.Strings(ls)
	out := ls[:0]
	for i, l := range ls {
		if i == 0 || ls[i-1] != l {
			out = append(out, l)
		}
	}
	return out
}

// Has reports whether the label set contains name.
func (ls Labels) Has(name string) bool {
	i := sort.SearchStrings(ls, name)
	return i < len(ls) && ls[i] == name
}

// Add returns a label set extended with name.
func (ls Labels) Add(name string) Labels {
	if ls.Has(name) {
		return ls
	}
	return NewLabels(append(append(Labels(nil), ls...), name)...)
}

// Remove returns a label set without name.
func (ls Labels) Remove(name string) Labels {
	if !ls.Has(name) {
		return ls
	}
	out := make(Labels, 0, len(ls)-1)
	for _, l := range ls {
		if l != name {
			out = append(out, l)
		}
	}
	return out
}

// Union returns the union of two label sets.
func (ls Labels) Union(other Labels) Labels {
	return NewLabels(append(append([]string(nil), ls...), other...)...)
}

// Intersect returns the intersection of two label sets.
func (ls Labels) Intersect(other Labels) Labels {
	out := Labels{}
	for _, l := range ls {
		if other.Has(l) {
			out = append(out, l)
		}
	}
	return out
}

// Equal reports whether two label sets contain the same labels.
func (ls Labels) Equal(other Labels) bool {
	if len(ls) != len(other) {
		return false
	}
	for i := range ls {
		if ls[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (ls Labels) Clone() Labels { return append(Labels(nil), ls...) }

// Properties maps property names to their (finite set of) values:
// σ(x, k) ∈ FSET(V). Every stored value has kind set; absent keys
// denote σ(x,k) = ∅.
type Properties map[string]value.Value

// NewProperties builds a property map, normalising every value to a
// set (scalars become singleton sets, per the data model).
func NewProperties(kv map[string]value.Value) Properties {
	p := make(Properties, len(kv))
	for k, v := range kv {
		p.Set(k, v)
	}
	return p
}

// Set stores v under k, normalising to a set. Setting an empty set or
// Null removes the property (σ(x,k) = ∅ means "not defined").
func (p Properties) Set(k string, v value.Value) {
	var sv value.Value
	switch v.Kind() {
	case value.KindSet:
		sv = v
	case value.KindNull:
		sv = value.EmptySet
	default:
		sv = value.Set(v)
	}
	if sv.Len() == 0 {
		delete(p, k)
		return
	}
	p[k] = sv
}

// Get returns σ(x,k): the value set, or the empty set if undefined.
func (p Properties) Get(k string) value.Value {
	if v, ok := p[k]; ok {
		return v
	}
	return value.EmptySet
}

// Keys returns the defined property names in sorted order.
func (p Properties) Keys() []string {
	ks := make([]string, 0, len(p))
	for k := range p {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Clone returns an independent copy (values are immutable, so a
// shallow copy of the map suffices).
func (p Properties) Clone() Properties {
	cp := make(Properties, len(p))
	for k, v := range p {
		cp[k] = v
	}
	return cp
}

// Equal reports whether two property maps are extensionally equal.
func (p Properties) Equal(other Properties) bool {
	if len(p) != len(other) {
		return false
	}
	for k, v := range p {
		ov, ok := other[k]
		if !ok || !value.Equal(v, ov) {
			return false
		}
	}
	return true
}

// Node is an element of N with its λ and σ assignments. Once inserted
// into a graph it is read-only, like Edge and Path (see Graph).
type Node struct {
	ID     NodeID
	Labels Labels
	Props  Properties
}

// Clone returns an independent copy of the node.
func (n *Node) Clone() *Node {
	return &Node{ID: n.ID, Labels: n.Labels.Clone(), Props: n.Props.Clone()}
}

// Edge is an element of E; ρ(e) = (Src, Dst).
type Edge struct {
	ID       EdgeID
	Src, Dst NodeID
	Labels   Labels
	Props    Properties
}

// Clone returns an independent copy of the edge.
func (e *Edge) Clone() *Edge {
	return &Edge{ID: e.ID, Src: e.Src, Dst: e.Dst, Labels: e.Labels.Clone(), Props: e.Props.Clone()}
}

// Path is an element of P. δ(p) = [Nodes[0], Edges[0], Nodes[1], ...,
// Edges[n-1], Nodes[n]]: len(Nodes) == len(Edges)+1, and each Edges[i]
// connects Nodes[i] and Nodes[i+1] in either direction (Definition
// 2.1, condition 3).
type Path struct {
	ID     PathID
	Nodes  []NodeID
	Edges  []EdgeID
	Labels Labels
	Props  Properties
}

// Clone returns an independent copy of the path.
func (p *Path) Clone() *Path {
	return &Path{
		ID:     p.ID,
		Nodes:  append([]NodeID(nil), p.Nodes...),
		Edges:  append([]EdgeID(nil), p.Edges...),
		Labels: p.Labels.Clone(),
		Props:  p.Props.Clone(),
	}
}

// Length returns the hop count n of the path (its number of edges),
// the default path cost of the language.
func (p *Path) Length() int { return len(p.Edges) }

// Graph is a Path Property Graph.
//
// An element is immutable once inserted: the Set* mutators store a new
// *Node, *Edge or *Path instead of writing the old one, so graphs built
// from other graphs (CONSTRUCT results, GRAPH VIEWs, the set operations
// of setops.go) share their sources' element objects, and an element's
// Labels slice and Props map may be shared between elements and graphs
// too. Assembled and decoded graphs share within themselves as well:
// their elements without properties hold one empty map, and a decoded
// graph's elements sit in one slab per sort and hold one Labels slice
// per distinct label set. Everything reachable from a graph is
// therefore read-only; change an element through the Set* mutators.
type Graph struct {
	name  string
	nodes map[NodeID]*Node
	edges map[EdgeID]*Edge
	paths map[PathID]*Path

	// sorted holds an assembled graph's elements in identifier order,
	// so the encoder walks them instead of sorting identifiers and
	// probing the maps again; nil for a graph built element by element,
	// and dropped by every mutation (bump).
	sorted *sortedElems

	// gen counts mutations (every MutOp kind).
	// Derived read-only structures — the CSR snapshot of internal/csr
	// — are tagged with the generation they were built at, so a stale
	// one is never served after a mutation.
	gen uint64

	// Generation-tagged snapshot cache. The cached value is opaque to
	// ppg (internal/csr stores its Snapshot here; keeping the type
	// abstract avoids an import cycle between the data model and its
	// derived layouts).
	snapMu  sync.Mutex
	snapGen uint64
	snapVal any

	// hook, when set, observes every mutation before it is applied
	// (the write-ahead boundary of the durability layer). A hook error
	// rejects the mutation and leaves the graph untouched.
	hook MutationHook
}

// MutOp enumerates the mutations a MutationHook observes — exactly
// the generation-bumping mutator surface of Graph.
type MutOp uint8

// The mutation kinds.
const (
	// MutAddNode carries the node about to be inserted in Node.
	MutAddNode MutOp = iota + 1
	// MutAddEdge carries the edge about to be inserted in Edge.
	MutAddEdge
	// MutAddPath carries the stored path about to be inserted in Path.
	MutAddPath
	// MutSetNodeLabels carries NodeID and the replacement Labels.
	MutSetNodeLabels
	// MutSetEdgeLabels carries EdgeID and the replacement Labels.
	MutSetEdgeLabels
	// MutSetNodeProps carries NodeID and the replacement Props.
	MutSetNodeProps
	// MutSetEdgeProps carries EdgeID and the replacement Props.
	MutSetEdgeProps
	// MutSetPathProps carries PathID and the replacement Props.
	MutSetPathProps
)

func (op MutOp) String() string {
	switch op {
	case MutAddNode:
		return "add-node"
	case MutAddEdge:
		return "add-edge"
	case MutAddPath:
		return "add-path"
	case MutSetNodeLabels:
		return "set-node-labels"
	case MutSetEdgeLabels:
		return "set-edge-labels"
	case MutSetNodeProps:
		return "set-node-props"
	case MutSetEdgeProps:
		return "set-edge-props"
	case MutSetPathProps:
		return "set-path-props"
	}
	return fmt.Sprintf("MutOp(%d)", uint8(op))
}

// Mutation describes one mutation about to be applied to a graph.
// Only the fields relevant to Op are set; the referenced objects are
// the live ones — hooks must not retain or modify them.
type Mutation struct {
	Op     MutOp
	Node   *Node      // MutAddNode
	Edge   *Edge      // MutAddEdge
	Path   *Path      // MutAddPath
	NodeID NodeID     // MutSetNodeLabels, MutSetNodeProps
	EdgeID EdgeID     // MutSetEdgeLabels, MutSetEdgeProps
	PathID PathID     // MutSetPathProps
	Labels Labels     // MutSetNodeLabels, MutSetEdgeLabels
	Props  Properties // MutSet*Props
}

// MutationHook observes mutations of one graph before they apply; see
// SetMutationHook.
type MutationHook func(g *Graph, m Mutation) error

// SetMutationHook installs (or with nil removes) the graph's mutation
// hook. The hook runs after a mutation is validated and before it is
// applied; returning an error rejects the mutation, leaving the graph
// exactly as it was. This is the write-ahead boundary the durability
// layer logs at. Clones do not inherit the hook.
func (g *Graph) SetMutationHook(h MutationHook) { g.hook = h }

// fireHook runs the mutation hook, if any.
func (g *Graph) fireHook(m Mutation) error {
	if g.hook == nil {
		return nil
	}
	return g.hook(g, m)
}

// New creates an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{
		name:  name,
		nodes: map[NodeID]*Node{},
		edges: map[EdgeID]*Edge{},
		paths: map[PathID]*Path{},
	}
}

// sortedElems is a graph's elements of each sort in identifier order.
type sortedElems struct {
	nodes []*Node
	edges []*Edge
	paths []*Path
}

// Assemble returns a graph holding exactly the given elements, each
// map sized to its element count. It is the bulk form of AddNode,
// AddEdge and AddPath for a caller that has already established what
// they check, or checks it on the result before anything else sees it
// as the decoder does: identifiers distinct within each sort, every
// edge's endpoints among nodes, and every path well formed over nodes
// and edges (Validate checks all three). No mutation hook sees the
// insertions, and the generation reads as if the elements had been
// added one by one. A nil property map becomes an empty one, as on
// insert; the elements given one share it, as read-only elements may.
// The graph takes the three slices over and sorts them by identifier:
// they are its element order until its first mutation.
func Assemble(name string, nodes []*Node, edges []*Edge, paths []*Path) *Graph {
	slices.SortFunc(nodes, func(a, b *Node) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(edges, func(a, b *Edge) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(paths, func(a, b *Path) int { return cmp.Compare(a.ID, b.ID) })
	g := &Graph{
		name:   name,
		nodes:  make(map[NodeID]*Node, len(nodes)),
		edges:  make(map[EdgeID]*Edge, len(edges)),
		paths:  make(map[PathID]*Path, len(paths)),
		sorted: &sortedElems{nodes: nodes, edges: edges, paths: paths},
		gen:    uint64(len(nodes) + len(edges) + len(paths)),
	}
	var empty Properties
	orEmpty := func(p *Properties) {
		if *p == nil {
			if empty == nil {
				empty = Properties{}
			}
			*p = empty
		}
	}
	for _, n := range nodes {
		orEmpty(&n.Props)
		g.nodes[n.ID] = n
	}
	for _, e := range edges {
		orEmpty(&e.Props)
		g.edges[e.ID] = e
	}
	for _, p := range paths {
		orEmpty(&p.Props)
		g.paths[p.ID] = p
	}
	return g
}

// Name returns the graph's name (the gid it is registered under).
func (g *Graph) Name() string { return g.name }

// Generation returns the mutation counter. It increases on every
// successful call of a mutator the hook observes (the MutOp kinds), and
// so on the graphs the set operations build, which insert element by
// element. Derived structures built at generation G are valid exactly
// while Generation() == G.
func (g *Graph) Generation() uint64 { return g.gen }

// bump invalidates derived structures after a mutation, the assembled
// element order among them.
func (g *Graph) bump() {
	g.gen++
	g.sorted = nil
}

// inOrder returns the graph's elements in identifier order: the
// assembled order while it stands, a fresh sort of the maps otherwise.
func (g *Graph) inOrder() *sortedElems {
	if g.sorted != nil {
		return g.sorted
	}
	return &sortedElems{nodes: sortedValues(g.nodes), edges: sortedValues(g.edges), paths: sortedValues(g.paths)}
}

// sortedValues returns m's values ordered by key. Sorting the bare
// keys and probing the map again beats sorting (key, value) pairs
// through a comparison function.
func sortedValues[K cmp.Ordered, E any](m map[K]*E) []*E {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]*E, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// Snapshot returns the value cached for the current generation,
// building and caching it via build on a miss. It is safe for
// concurrent readers; the build function runs under the cache lock, so
// concurrent first readers share one build. Mutating the graph bumps
// the generation and makes the cached value unreachable — a stale
// snapshot is never served.
func (g *Graph) Snapshot(build func() any) any {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if g.snapVal == nil || g.snapGen != g.gen {
		g.snapVal = build()
		g.snapGen = g.gen
	}
	return g.snapVal
}

// SetName renames the graph.
func (g *Graph) SetName(name string) { g.name = name }

// NumNodes, NumEdges and NumPaths report |N|, |E| and |P|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumPaths reports |P|.
func (g *Graph) NumPaths() int { return len(g.paths) }

// IsEmpty reports whether the graph has no nodes (the paper's G∅ test,
// used by EXISTS: "N ≠ ∅").
func (g *Graph) IsEmpty() bool { return len(g.nodes) == 0 }

// AddNode inserts a node. Inserting an existing identifier is an
// error: identities are engine-unique. So is a property value holding
// a NaN or an infinite float (NonFiniteError).
func (g *Graph) AddNode(n *Node) error {
	if _, dup := g.nodes[n.ID]; dup {
		return g.errDuplicate("node", uint64(n.ID))
	}
	if err := checkFinite("node", uint64(n.ID), n.Props); err != nil {
		return err
	}
	if n.Props == nil {
		n.Props = Properties{}
	}
	if err := g.fireHook(Mutation{Op: MutAddNode, Node: n}); err != nil {
		return err
	}
	g.nodes[n.ID] = n
	g.bump()
	return nil
}

// AddEdge inserts an edge; both endpoints must already be present
// (no dangling edges, ever).
func (g *Graph) AddEdge(e *Edge) error {
	if _, dup := g.edges[e.ID]; dup {
		return g.errDuplicate("edge", uint64(e.ID))
	}
	if err := g.checkEdge(e); err != nil {
		return err
	}
	if e.Props == nil {
		e.Props = Properties{}
	}
	if err := g.fireHook(Mutation{Op: MutAddEdge, Edge: e}); err != nil {
		return err
	}
	g.edges[e.ID] = e
	g.bump()
	return nil
}

// errDuplicate is the error of inserting an identifier the graph
// already holds.
func (g *Graph) errDuplicate(sort string, id uint64) error {
	return fmt.Errorf("ppg: graph %q already contains %s #%d", g.name, sort, id)
}

// checkEdge checks what AddEdge does beyond identity: both endpoints
// present, every property value finite.
func (g *Graph) checkEdge(e *Edge) error {
	if _, ok := g.nodes[e.Src]; !ok {
		return fmt.Errorf("ppg: edge #%d starts at missing node #%d", e.ID, e.Src)
	}
	if _, ok := g.nodes[e.Dst]; !ok {
		return fmt.Errorf("ppg: edge #%d ends at missing node #%d", e.ID, e.Dst)
	}
	return checkFinite("edge", uint64(e.ID), e.Props)
}

// NonFiniteError rejects a property value that holds a NaN or an
// infinite float, alone or inside a set or list: the interchange
// format, and so the write-ahead log and every checkpoint, has no form
// for it.
type NonFiniteError struct {
	Elem  string // "node", "edge" or "path"
	ID    uint64
	Key   string
	Value float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("ppg: %s #%d property %q holds the non-finite float %v", e.Elem, e.ID, e.Key, e.Value)
}

// CheckFinite returns a *NonFiniteError if v, the value of property key
// of the elem ("node", "edge" or "path") with identifier id, holds a
// NaN or an infinite float, or nil. CONSTRUCT checks each value it
// assigns here, since the graph it builds is assembled unchecked.
func CheckFinite(elem string, id uint64, key string, v value.Value) error {
	if f, ok := nonFinite(v); ok {
		return &NonFiniteError{Elem: elem, ID: id, Key: key, Value: f}
	}
	return nil
}

// checkFinite returns a *NonFiniteError naming the least key of p whose
// value is not finite, or nil.
func checkFinite(elem string, id uint64, p Properties) error {
	var bad error
	var least string
	for k, v := range p {
		if err := CheckFinite(elem, id, k, v); err != nil && (bad == nil || k < least) {
			bad, least = err, k
		}
	}
	return bad
}

// nonFinite finds a NaN or infinite float in v or among its elements.
func nonFinite(v value.Value) (float64, bool) {
	switch v.Kind() {
	case value.KindFloat:
		f, _ := v.AsFloat()
		return f, math.IsInf(f, 0) || math.IsNaN(f)
	case value.KindSet, value.KindList:
		for _, e := range v.Elems() {
			if f, ok := nonFinite(e); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// SetNodeLabels replaces λ(n) for an already-inserted node. Like every
// Set* mutator it stores a new element object and leaves the old one,
// which other graphs may share, as it was.
func (g *Graph) SetNodeLabels(id NodeID, ls Labels) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("ppg: graph %q has no node #%d", g.name, id)
	}
	if err := g.fireHook(Mutation{Op: MutSetNodeLabels, NodeID: id, Labels: ls}); err != nil {
		return err
	}
	g.nodes[id] = &Node{ID: id, Labels: ls, Props: n.Props}
	g.bump()
	return nil
}

// SetEdgeLabels replaces λ(e) for an already-inserted edge.
func (g *Graph) SetEdgeLabels(id EdgeID, ls Labels) error {
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("ppg: graph %q has no edge #%d", g.name, id)
	}
	if err := g.fireHook(Mutation{Op: MutSetEdgeLabels, EdgeID: id, Labels: ls}); err != nil {
		return err
	}
	g.edges[id] = &Edge{ID: id, Src: e.Src, Dst: e.Dst, Labels: ls, Props: e.Props}
	g.bump()
	return nil
}

// SetNodeProps replaces σ(n) for an already-inserted node. The hook
// sees the element and the new map and may reject the write before it
// lands. A value holding a NaN or an infinite float is refused with a
// NonFiniteError.
func (g *Graph) SetNodeProps(id NodeID, p Properties) error {
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("ppg: graph %q has no node #%d", g.name, id)
	}
	if err := checkFinite("node", uint64(id), p); err != nil {
		return err
	}
	if p == nil {
		p = Properties{}
	}
	if err := g.fireHook(Mutation{Op: MutSetNodeProps, NodeID: id, Props: p}); err != nil {
		return err
	}
	g.nodes[id] = &Node{ID: id, Labels: n.Labels, Props: p}
	g.bump()
	return nil
}

// SetEdgeProps replaces σ(e) for an already-inserted edge.
func (g *Graph) SetEdgeProps(id EdgeID, p Properties) error {
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("ppg: graph %q has no edge #%d", g.name, id)
	}
	if err := checkFinite("edge", uint64(id), p); err != nil {
		return err
	}
	if p == nil {
		p = Properties{}
	}
	if err := g.fireHook(Mutation{Op: MutSetEdgeProps, EdgeID: id, Props: p}); err != nil {
		return err
	}
	g.edges[id] = &Edge{ID: id, Src: e.Src, Dst: e.Dst, Labels: e.Labels, Props: p}
	g.bump()
	return nil
}

// SetPathProps replaces σ(p) for an already-inserted stored path.
func (g *Graph) SetPathProps(id PathID, p Properties) error {
	sp, ok := g.paths[id]
	if !ok {
		return fmt.Errorf("ppg: graph %q has no path #%d", g.name, id)
	}
	if err := checkFinite("path", uint64(id), p); err != nil {
		return err
	}
	if p == nil {
		p = Properties{}
	}
	if err := g.fireHook(Mutation{Op: MutSetPathProps, PathID: id, Props: p}); err != nil {
		return err
	}
	g.paths[id] = &Path{ID: id, Nodes: sp.Nodes, Edges: sp.Edges, Labels: sp.Labels, Props: p}
	g.bump()
	return nil
}

// AddPath inserts a stored path after checking condition (3) of
// Definition 2.1: the sequence alternates existing nodes and edges,
// and each edge connects the surrounding nodes in either direction.
func (g *Graph) AddPath(p *Path) error {
	if _, dup := g.paths[p.ID]; dup {
		return g.errDuplicate("path", uint64(p.ID))
	}
	if err := g.checkPath(p); err != nil {
		return err
	}
	if p.Props == nil {
		p.Props = Properties{}
	}
	if err := g.fireHook(Mutation{Op: MutAddPath, Path: p}); err != nil {
		return err
	}
	g.paths[p.ID] = p
	g.bump()
	return nil
}

// checkPath checks what AddPath does beyond identity: the shape, and
// every property value finite.
func (g *Graph) checkPath(p *Path) error {
	if err := g.checkPathShape(p); err != nil {
		return err
	}
	return checkFinite("path", uint64(p.ID), p.Props)
}

func (g *Graph) checkPathShape(p *Path) error {
	if len(p.Nodes) != len(p.Edges)+1 {
		return fmt.Errorf("ppg: path #%d has %d nodes and %d edges; need n+1 nodes for n edges",
			p.ID, len(p.Nodes), len(p.Edges))
	}
	for _, nid := range p.Nodes {
		if _, ok := g.nodes[nid]; !ok {
			return fmt.Errorf("ppg: path #%d references missing node #%d", p.ID, nid)
		}
	}
	for i, eid := range p.Edges {
		e, ok := g.edges[eid]
		if !ok {
			return fmt.Errorf("ppg: path #%d references missing edge #%d", p.ID, eid)
		}
		a, b := p.Nodes[i], p.Nodes[i+1]
		if !(e.Src == a && e.Dst == b) && !(e.Src == b && e.Dst == a) {
			return fmt.Errorf("ppg: path #%d: edge #%d does not connect #%d and #%d", p.ID, eid, a, b)
		}
	}
	return nil
}

// Node returns the node with the given identifier. The node may be
// shared with other graphs and is read-only: change it through
// SetNodeLabels and SetNodeProps.
func (g *Graph) Node(id NodeID) (*Node, bool) { n, ok := g.nodes[id]; return n, ok }

// Edge returns the edge with the given identifier, shared and
// read-only like Node's: change it through SetEdgeLabels and
// SetEdgeProps.
func (g *Graph) Edge(id EdgeID) (*Edge, bool) { e, ok := g.edges[id]; return e, ok }

// Path returns the stored path with the given identifier, shared and
// read-only like Node's: change it through SetPathProps.
func (g *Graph) Path(id PathID) (*Path, bool) { p, ok := g.paths[id]; return p, ok }

// NodeIDs returns all node identifiers in ascending order.
func (g *Graph) NodeIDs() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// EdgeIDs returns all edge identifiers in ascending order.
func (g *Graph) EdgeIDs() []EdgeID {
	ids := make([]EdgeID, 0, len(g.edges))
	for id := range g.edges {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Nodes returns the nodes in identifier order. For an assembled or
// decoded graph that is its element order, shared and read-only like
// the elements; any other graph sorts a fresh slice.
func (g *Graph) Nodes() []*Node {
	if g.sorted != nil {
		return g.sorted.nodes
	}
	return sortedValues(g.nodes)
}

// Edges returns the edges in identifier order, shared like Nodes'.
func (g *Graph) Edges() []*Edge {
	if g.sorted != nil {
		return g.sorted.edges
	}
	return sortedValues(g.edges)
}

// PathIDs returns all stored-path identifiers in ascending order.
func (g *Graph) PathIDs() []PathID {
	ids := make([]PathID, 0, len(g.paths))
	for id := range g.paths {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// NodesWithLabel returns, ascending, the identifiers of the nodes
// carrying the label, or nil if none does. It scans every node; the
// query path reads the CSR snapshot's label partitions instead.
func (g *Graph) NodesWithLabel(label string) []NodeID {
	var ids []NodeID
	for id, n := range g.nodes {
		if n.Labels.Has(label) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// EdgesWithLabel returns, ascending, the identifiers of the edges
// carrying the label, or nil if none does, scanning every edge.
func (g *Graph) EdgesWithLabel(label string) []EdgeID {
	var ids []EdgeID
	for id, e := range g.edges {
		if e.Labels.Has(label) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// Clone returns a deep copy of the graph: every element is copied, so
// the copy shares no element object, label slice or property map with
// g.
func (g *Graph) Clone() *Graph {
	cp := New(g.name)
	for id, n := range g.nodes {
		cp.nodes[id] = n.Clone()
	}
	for id, e := range g.edges {
		cp.edges[id] = e.Clone()
	}
	for id, p := range g.paths {
		cp.paths[id] = p.Clone()
	}
	return cp
}

// LabelsOf returns λ(x) for a node/edge/path reference value.
func (g *Graph) LabelsOf(ref value.Value) (Labels, bool) {
	id, ok := ref.RefID()
	if !ok {
		return nil, false
	}
	switch ref.Kind() {
	case value.KindNode:
		if n, ok := g.nodes[NodeID(id)]; ok {
			return n.Labels, true
		}
	case value.KindEdge:
		if e, ok := g.edges[EdgeID(id)]; ok {
			return e.Labels, true
		}
	case value.KindPath:
		if p, ok := g.paths[PathID(id)]; ok {
			return p.Labels, true
		}
	}
	return nil, false
}

// PropOf returns σ(x, k) for a node/edge/path reference value.
func (g *Graph) PropOf(ref value.Value, k string) (value.Value, bool) {
	id, ok := ref.RefID()
	if !ok {
		return value.Null, false
	}
	switch ref.Kind() {
	case value.KindNode:
		if n, ok := g.nodes[NodeID(id)]; ok {
			return n.Props.Get(k), true
		}
	case value.KindEdge:
		if e, ok := g.edges[EdgeID(id)]; ok {
			return e.Props.Get(k), true
		}
	case value.KindPath:
		if p, ok := g.paths[PathID(id)]; ok {
			return p.Props.Get(k), true
		}
	}
	return value.Null, false
}

// Validate checks every invariant of Definition 2.1: endpoint
// existence (ρ total into N×N), path well-formedness (δ), and that
// every element sits under its own identifier. It is used by tests,
// by loaders and by failure-injection checks.
func (g *Graph) Validate() error {
	for id, e := range g.edges {
		if id != e.ID {
			return fmt.Errorf("ppg: edge indexed under #%d has ID #%d", id, e.ID)
		}
		if _, ok := g.nodes[e.Src]; !ok {
			return fmt.Errorf("ppg: dangling edge #%d (missing source #%d)", e.ID, e.Src)
		}
		if _, ok := g.nodes[e.Dst]; !ok {
			return fmt.Errorf("ppg: dangling edge #%d (missing destination #%d)", e.ID, e.Dst)
		}
	}
	for id, n := range g.nodes {
		if id != n.ID {
			return fmt.Errorf("ppg: node indexed under #%d has ID #%d", id, n.ID)
		}
	}
	for id, p := range g.paths {
		if id != p.ID {
			return fmt.Errorf("ppg: path indexed under #%d has ID #%d", id, p.ID)
		}
		if err := g.checkPathShape(p); err != nil {
			return err
		}
	}
	return nil
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q (%d nodes, %d edges, %d paths)", g.name, len(g.nodes), len(g.edges), len(g.paths))
}
