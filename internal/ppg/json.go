package ppg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

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
	dst = value.AppendJSONString(append(dst, `{"name":`...), g.name)
	dst = append(dst, `,"nodes":`...)
	if len(g.nodes) == 0 {
		dst = append(dst, "null"...)
	}
	var err error
	for i, id := range g.NodeIDs() {
		if dst, err = AppendNode(appendSep(dst, i), g.nodes[id]); err != nil {
			return dst, err
		}
	}
	dst = append(closeArray(dst, len(g.nodes)), `,"edges":`...)
	if len(g.edges) == 0 {
		dst = append(dst, "null"...)
	}
	for i, id := range g.EdgeIDs() {
		if dst, err = AppendEdge(appendSep(dst, i), g.edges[id]); err != nil {
			return dst, err
		}
	}
	dst = closeArray(dst, len(g.edges))
	if len(g.paths) > 0 {
		dst = append(dst, `,"paths":`...)
		for i, id := range g.PathIDs() {
			if dst, err = AppendPath(appendSep(dst, i), g.paths[id]); err != nil {
				return dst, err
			}
		}
		dst = closeArray(dst, len(g.paths))
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
// singleton sets as bare scalars, larger sets wrapped.
func AppendProperties(dst []byte, p Properties) ([]byte, error) {
	var buf [8]string
	keys := buf[:0]
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(value.AppendJSONString(dst, k), ':')
		v := p[k]
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

// UnmarshalJSON decodes the interchange format, validating every
// model invariant on the way in.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var doc jsonGraph
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("ppg: decoding graph: %w", err)
	}
	out := New(doc.Name)
	for _, jn := range doc.Nodes {
		if err := out.AddNode(&Node{ID: NodeID(jn.ID), Labels: NewLabels(jn.Labels...), Props: NewProperties(jn.Props)}); err != nil {
			return err
		}
	}
	for _, je := range doc.Edges {
		if err := out.AddEdge(&Edge{
			ID: EdgeID(je.ID), Src: NodeID(je.Src), Dst: NodeID(je.Dst),
			Labels: NewLabels(je.Labels...), Props: NewProperties(je.Props),
		}); err != nil {
			return err
		}
	}
	for _, jp := range doc.Paths {
		p := &Path{ID: PathID(jp.ID), Labels: NewLabels(jp.Labels...), Props: NewProperties(jp.Props)}
		for _, n := range jp.Nodes {
			p.Nodes = append(p.Nodes, NodeID(n))
		}
		for _, e := range jp.Edges {
			p.Edges = append(p.Edges, EdgeID(e))
		}
		if err := out.AddPath(p); err != nil {
			return err
		}
	}
	return g.replace(out)
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
	p := &Path{ID: PathID(jp.ID), Labels: NewLabels(jp.Labels...), Props: NewProperties(jp.Props)}
	for _, n := range jp.Nodes {
		p.Nodes = append(p.Nodes, NodeID(n))
	}
	for _, e := range jp.Edges {
		p.Edges = append(p.Edges, EdgeID(e))
	}
	return p, nil
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
		ids := []uint64{}
		for _, id := range g.NodeIDs() {
			ids = append(ids, uint64(id))
		}
		for _, id := range g.EdgeIDs() {
			ids = append(ids, uint64(id))
		}
		for _, id := range g.PathIDs() {
			ids = append(ids, uint64(id))
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		if len(ids) > 0 {
			gen.Reserve(ids[len(ids)-1])
		}
	}
	return g, nil
}
