package ppg

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"gcore/internal/value"
)

// JSON interchange format for Path Property Graphs, used by the CLI
// and the examples. The document mirrors Definition 2.1 directly:
//
//	{
//	  "name": "social_graph",
//	  "nodes": [{"id": 101, "labels": ["Tag"], "properties": {"name": "Wagner"}}],
//	  "edges": [{"id": 201, "src": 102, "dst": 101, "labels": ["hasInterest"]}],
//	  "paths": [{"id": 301, "nodes": [105,103,102], "edges": [207,202],
//	             "labels": ["toWagner"], "properties": {"trust": 0.95}}]
//	}
//
// Property values use the value package's interchange encoding;
// multi-valued properties are written with the {"set": [...]} wrapper
// and singletons as bare scalars. Documents are written by AppendJSON
// in one pass; the json* structs below only decode them.

type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
	Paths []jsonPath `json:"paths,omitempty"`
}

type jsonNode struct {
	ID     uint64                 `json:"id"`
	Labels []string               `json:"labels,omitempty"`
	Props  map[string]value.Value `json:"properties,omitempty"`
}

type jsonEdge struct {
	ID     uint64                 `json:"id"`
	Src    uint64                 `json:"src"`
	Dst    uint64                 `json:"dst"`
	Labels []string               `json:"labels,omitempty"`
	Props  map[string]value.Value `json:"properties,omitempty"`
}

type jsonPath struct {
	ID     uint64                 `json:"id"`
	Nodes  []uint64               `json:"nodes"`
	Edges  []uint64               `json:"edges"`
	Labels []string               `json:"labels,omitempty"`
	Props  map[string]value.Value `json:"properties,omitempty"`
}

// MarshalJSON encodes the graph in the interchange format with
// elements sorted by identifier, indented for reading: the indented
// form of AppendJSON's document.
func (g *Graph) MarshalJSON() ([]byte, error) {
	data, err := g.AppendJSON(nil)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(2 * len(data))
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// AppendJSON appends the graph's interchange document to dst in one
// compact pass, elements in identifier order. The bytes are those
// encoding/json writes for the document (json.Compact of MarshalJSON):
// "nodes" and "edges" are null when empty, "paths" is omitted then,
// and each element omits empty labels and properties, with singleton
// property sets written as bare scalars. It fails only on a property
// value JSON cannot hold (a NaN or infinite float).
func (g *Graph) AppendJSON(dst []byte) ([]byte, error) {
	els := g.inOrder()
	dst = value.AppendJSONString(append(dst, `{"name":`...), g.name)
	dst = append(dst, `,"nodes":`...)
	if len(els.nodes) == 0 {
		dst = append(dst, "null"...)
	}
	var err error
	for i, n := range els.nodes {
		if dst, err = AppendNode(appendSep(dst, i), n); err != nil {
			return dst, err
		}
	}
	dst = append(closeArray(dst, len(els.nodes)), `,"edges":`...)
	if len(els.edges) == 0 {
		dst = append(dst, "null"...)
	}
	for i, e := range els.edges {
		if dst, err = AppendEdge(appendSep(dst, i), e); err != nil {
			return dst, err
		}
	}
	dst = closeArray(dst, len(els.edges))
	if len(els.paths) > 0 {
		dst = append(dst, `,"paths":`...)
		for i, p := range els.paths {
			if dst, err = AppendPath(appendSep(dst, i), p); err != nil {
				return dst, err
			}
		}
		dst = closeArray(dst, len(els.paths))
	}
	return append(dst, '}'), nil
}

// appendSep opens an array before its first element and separates the
// later ones; closeArray closes the array if anything opened it.
func appendSep(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, '[')
	}
	return append(dst, ',')
}

func closeArray(dst []byte, n int) []byte {
	if n == 0 {
		return dst
	}
	return append(dst, ']')
}

// AppendNode appends one node as an interchange JSON object, the
// element shape of graph documents (and of node WAL records).
func AppendNode(dst []byte, n *Node) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"id":`...), uint64(n.ID), 10)
	return appendLabelsProps(dst, n.Labels, n.Props)
}

// AppendEdge appends one edge as an interchange JSON object.
func AppendEdge(dst []byte, e *Edge) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"id":`...), uint64(e.ID), 10)
	dst = strconv.AppendUint(append(dst, `,"src":`...), uint64(e.Src), 10)
	dst = strconv.AppendUint(append(dst, `,"dst":`...), uint64(e.Dst), 10)
	return appendLabelsProps(dst, e.Labels, e.Props)
}

// AppendPath appends one stored path as an interchange JSON object.
func AppendPath(dst []byte, p *Path) ([]byte, error) {
	dst = strconv.AppendUint(append(dst, `{"id":`...), uint64(p.ID), 10)
	dst = append(dst, `,"nodes":`...)
	if len(p.Nodes) == 0 {
		dst = append(dst, "null"...)
	}
	for i, n := range p.Nodes {
		dst = strconv.AppendUint(appendSep(dst, i), uint64(n), 10)
	}
	dst = append(closeArray(dst, len(p.Nodes)), `,"edges":`...)
	if len(p.Edges) == 0 {
		dst = append(dst, "null"...)
	}
	for i, e := range p.Edges {
		dst = strconv.AppendUint(appendSep(dst, i), uint64(e), 10)
	}
	return appendLabelsProps(closeArray(dst, len(p.Edges)), p.Labels, p.Props)
}

// appendLabelsProps appends an element's optional "labels" and
// "properties" members and closes the element object.
func appendLabelsProps(dst []byte, ls Labels, p Properties) ([]byte, error) {
	if len(ls) > 0 {
		dst = append(dst, `,"labels":`...)
		for i, l := range ls {
			dst = value.AppendJSONString(appendSep(dst, i), l)
		}
		dst = append(dst, ']')
	}
	if len(p) > 0 {
		var err error
		if dst, err = AppendProperties(append(dst, `,"properties":`...), p); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendProperties appends a property map as one object: keys sorted,
// singleton sets as bare scalars, larger sets wrapped. The entries are
// gathered and sorted once, so no key is looked up again.
func AppendProperties(dst []byte, p Properties) ([]byte, error) {
	var buf [8]propEntry
	entries := buf[:0]
	for k, v := range p {
		entries = append(entries, propEntry{k, v})
	}
	slices.SortFunc(entries, func(a, b propEntry) int { return strings.Compare(a.k, b.k) })
	dst = append(dst, '{')
	for i, e := range entries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(value.AppendJSONString(dst, e.k), ':')
		v := e.v
		if s, ok := v.Singleton(); ok {
			v = s
		}
		var err error
		if dst, err = v.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

type propEntry struct {
	k string
	v value.Value
}

// UnmarshalJSON decodes the interchange format into g, validating
// every model invariant on the way in (decodeGraph). g must hold
// nothing and have no mutation hook, as a graph fresh from New: a
// graph's content changes only through the mutators its hook sees, so
// any other target is refused and left unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	if len(g.nodes)+len(g.edges)+len(g.paths) > 0 {
		return fmt.Errorf("ppg: decoding into graph %q, which holds elements", g.name)
	}
	if g.hook != nil {
		return fmt.Errorf("ppg: decoding into graph %q, which has a mutation hook", g.name)
	}
	var doc jsonGraph
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("ppg: decoding graph: %w", err)
	}
	out, err := decodeGraph(&doc)
	if err != nil {
		return err
	}
	g.name, g.nodes, g.edges, g.paths = out.name, out.nodes, out.edges, out.paths
	g.sorted, g.gen = out.sorted, out.gen
	return nil
}

// decodeGraph builds the graph of a decoded document from one slab of
// elements per sort, which Assemble takes over. Elements with equal
// label sets share one Labels slice, clipped so that an append
// copies, equal property names share one string, and elements without
// properties are left to Assemble's shared empty map. The checks of
// AddNode, AddEdge and AddPath run afterwards on the assembled graph,
// in document order and with their error text (checkDecoded).
func decodeGraph(doc *jsonGraph) (*Graph, error) {
	in := interner{labels: map[string]Labels{}, names: map[string]string{}}
	nodes := make([]Node, len(doc.Nodes))
	for i, jn := range doc.Nodes {
		nodes[i] = Node{ID: NodeID(jn.ID), Labels: in.labelSet(jn.Labels), Props: in.props(jn.Props)}
	}
	edges := make([]Edge, len(doc.Edges))
	for i, je := range doc.Edges {
		edges[i] = Edge{
			ID: EdgeID(je.ID), Src: NodeID(je.Src), Dst: NodeID(je.Dst),
			Labels: in.labelSet(je.Labels), Props: in.props(je.Props),
		}
	}
	paths := make([]Path, len(doc.Paths))
	for i, jp := range doc.Paths {
		paths[i] = jp.path(in.labelSet(jp.Labels), in.props(jp.Props))
	}
	g := Assemble(doc.Name, pointers(nodes), pointers(edges), pointers(paths))
	if err := g.checkDecoded(nodes, edges, paths); err != nil {
		return nil, err
	}
	return g, nil
}

// pointers returns a pointer to each element of a slab.
func pointers[E any](slab []E) []*E {
	ps := make([]*E, len(slab))
	for i := range slab {
		ps[i] = &slab[i]
	}
	return ps
}

// checkDecoded makes the checks AddNode, AddEdge and AddPath would
// have made inserting the slabs' elements in document order, and
// returns the first failure. g was assembled from the slabs, so its
// maps resolve every reference; a sort whose map holds fewer entries
// than its slab has a duplicate identifier, which firstDup places.
func (g *Graph) checkDecoded(nodes []Node, edges []Edge, paths []Path) error {
	dup := firstDup(nodes, len(g.nodes), func(n *Node) NodeID { return n.ID })
	for i := range nodes {
		n := &nodes[i]
		if i == dup {
			return g.errDuplicate("node", uint64(n.ID))
		}
		if err := checkFinite("node", uint64(n.ID), n.Props); err != nil {
			return err
		}
	}
	dup = firstDup(edges, len(g.edges), func(e *Edge) EdgeID { return e.ID })
	for i := range edges {
		if i == dup {
			return g.errDuplicate("edge", uint64(edges[i].ID))
		}
		if err := g.checkEdge(&edges[i]); err != nil {
			return err
		}
	}
	dup = firstDup(paths, len(g.paths), func(p *Path) PathID { return p.ID })
	for i := range paths {
		if i == dup {
			return g.errDuplicate("path", uint64(paths[i].ID))
		}
		if err := g.checkPath(&paths[i]); err != nil {
			return err
		}
	}
	return nil
}

// firstDup returns the index of the first element whose identifier an
// earlier element already has, or -1 when the distinct count shows
// there is none.
func firstDup[E any, K comparable](slab []E, distinct int, id func(*E) K) int {
	if distinct == len(slab) {
		return -1
	}
	seen := make(map[K]bool, distinct)
	for i := range slab {
		k := id(&slab[i])
		if seen[k] {
			return i
		}
		seen[k] = true
	}
	return -1
}

// interner shares what one document repeats: a Labels slice per
// distinct label set and a string per distinct property name.
type interner struct {
	labels map[string]Labels // by setKey of the names as written and as normalised
	names  map[string]string
	key    []byte
}

// setKey encodes names, length-prefixed, into the interner's buffer.
func (in *interner) setKey(names []string) []byte {
	in.key = in.key[:0]
	for _, n := range names {
		in.key = append(binary.AppendUvarint(in.key, uint64(len(n))), n...)
	}
	return in.key
}

// labelSet returns the shared normalised set of names, nil when empty.
func (in *interner) labelSet(names []string) Labels {
	if len(names) == 0 {
		return nil
	}
	if ls, ok := in.labels[string(in.setKey(names))]; ok {
		return ls
	}
	written := string(in.key)
	ls := NewLabels(names...)
	if shared, ok := in.labels[string(in.setKey(ls))]; ok {
		ls = shared
	} else {
		ls = slices.Clip(ls)
		in.labels[string(in.key)] = ls
	}
	in.labels[written] = ls
	return ls
}

// props normalises a decoded property map with shared names; nil when
// no property is defined, for Assemble to share its empty map.
func (in *interner) props(m map[string]value.Value) Properties {
	if len(m) == 0 {
		return nil
	}
	p := make(Properties, len(m))
	for k, v := range m {
		name, ok := in.names[k]
		if !ok {
			name = k
			in.names[k] = k
		}
		p.Set(name, v)
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

// Element decoders. The durability layer logs individual mutations as
// JSON records written by AppendNode, AppendEdge, AppendPath and
// AppendProperties — exactly the shape graph documents use, so a WAL
// record and a snapshot agree on representation.

// DecodeNode decodes an AppendNode document.
func DecodeNode(data []byte) (*Node, error) {
	var jn jsonNode
	if err := json.Unmarshal(data, &jn); err != nil {
		return nil, fmt.Errorf("ppg: decoding node: %w", err)
	}
	return &Node{ID: NodeID(jn.ID), Labels: NewLabels(jn.Labels...), Props: NewProperties(jn.Props)}, nil
}

// DecodeEdge decodes an AppendEdge document.
func DecodeEdge(data []byte) (*Edge, error) {
	var je jsonEdge
	if err := json.Unmarshal(data, &je); err != nil {
		return nil, fmt.Errorf("ppg: decoding edge: %w", err)
	}
	return &Edge{
		ID: EdgeID(je.ID), Src: NodeID(je.Src), Dst: NodeID(je.Dst),
		Labels: NewLabels(je.Labels...), Props: NewProperties(je.Props),
	}, nil
}

// DecodePath decodes an AppendPath document.
func DecodePath(data []byte) (*Path, error) {
	var jp jsonPath
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, fmt.Errorf("ppg: decoding path: %w", err)
	}
	p := jp.path(NewLabels(jp.Labels...), NewProperties(jp.Props))
	return &p, nil
}

// path returns the decoded path with the given labels and properties.
func (jp *jsonPath) path(ls Labels, props Properties) Path {
	p := Path{ID: PathID(jp.ID), Labels: ls, Props: props}
	for _, n := range jp.Nodes {
		p.Nodes = append(p.Nodes, NodeID(n))
	}
	for _, e := range jp.Edges {
		p.Edges = append(p.Edges, EdgeID(e))
	}
	return p
}

// DecodeProperties decodes an AppendProperties document.
func DecodeProperties(data []byte) (Properties, error) {
	var m map[string]value.Value
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ppg: decoding properties: %w", err)
	}
	return NewProperties(m), nil
}

// WriteJSON writes the graph's interchange document to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadJSON parses one interchange document and registers every
// identifier with gen (if non-nil) so later generated identifiers
// cannot collide.
func ReadJSON(r io.Reader, gen *IDGen) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	g := New("")
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	if gen != nil {
		// A decoded graph is assembled: its last elements carry the
		// greatest identifiers.
		els := g.inOrder()
		if n := len(els.nodes); n > 0 {
			gen.Reserve(uint64(els.nodes[n-1].ID))
		}
		if n := len(els.edges); n > 0 {
			gen.Reserve(uint64(els.edges[n-1].ID))
		}
		if n := len(els.paths); n > 0 {
			gen.Reserve(uint64(els.paths[n-1].ID))
		}
	}
	return g, nil
}
