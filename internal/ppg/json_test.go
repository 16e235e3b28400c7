package ppg

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"gcore/internal/value"
)

func TestJSONRoundTrip(t *testing.T) {
	g := buildExampleGraph(t)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back := New("")
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, back) {
		t.Fatal("JSON round-trip changed the graph")
	}
	p, ok := back.Path(301)
	if !ok {
		t.Fatal("stored path lost in round-trip")
	}
	if !value.Equal(p.Props.Get("trust").Scalarize(), value.Float(0.95)) {
		t.Errorf("trust = %v", p.Props.Get("trust"))
	}
	if back.Name() != "example" {
		t.Errorf("name = %q", back.Name())
	}
}

func TestJSONMultiValuedProperty(t *testing.T) {
	g := New("g")
	if err := g.AddNode(&Node{ID: 1, Props: NewProperties(map[string]value.Value{
		"employer": value.Set(value.Str("CWI"), value.Str("MIT")),
	})}); err != nil {
		t.Fatal(err)
	}
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"set"`) {
		t.Errorf("multi-valued property must use the set wrapper: %s", data)
	}
	back := New("")
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	n, _ := back.Node(1)
	if n.Props.Get("employer").Len() != 2 {
		t.Error("multi-valued property lost")
	}
}

func TestReadJSONReservesIDs(t *testing.T) {
	g := buildExampleGraph(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	gen := NewIDGen(1)
	back, err := ReadJSON(&buf, gen)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 6 {
		t.Fatalf("reload lost nodes")
	}
	if id := gen.NextNode(); uint64(id) <= 301 {
		t.Errorf("generator must be reserved past loaded ids, got %d", id)
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"name":"g","nodes":[{"id":1},{"id":1}]}`,                                    // dup node
		`{"name":"g","nodes":[{"id":1}],"edges":[{"id":2,"src":1,"dst":9}]}`,          // dangling
		`{"name":"g","nodes":[{"id":1}],"paths":[{"id":3,"nodes":[1],"edges":[99]}]}`, // bad path
		`{"name":"g","nodes":[{"id":1,"properties":{"k":{"bogus":1}}}]}`,              // bad value
	}
	for _, c := range cases {
		g := New("")
		if err := g.UnmarshalJSON([]byte(c)); err == nil {
			t.Errorf("UnmarshalJSON accepted invalid document %q", c)
		}
	}
}

// referencePropsOut and referenceGraphJSON are the reflection encoder
// MarshalJSON used before AppendJSON replaced it: the json* documents
// with singleton sets unwrapped. The appender must match its compact
// bytes exactly.
func referencePropsOut(p Properties) map[string]value.Value {
	if len(p) == 0 {
		return nil
	}
	out := make(map[string]value.Value, len(p))
	for _, k := range p.Keys() {
		v := p.Get(k)
		if s, ok := v.Singleton(); ok {
			v = s
		}
		out[k] = v
	}
	return out
}

func referenceNode(n *Node) jsonNode {
	return jsonNode{ID: uint64(n.ID), Labels: n.Labels, Props: referencePropsOut(n.Props)}
}

func referenceEdge(e *Edge) jsonEdge {
	return jsonEdge{ID: uint64(e.ID), Src: uint64(e.Src), Dst: uint64(e.Dst), Labels: e.Labels, Props: referencePropsOut(e.Props)}
}

func referencePath(p *Path) jsonPath {
	jp := jsonPath{ID: uint64(p.ID), Labels: p.Labels, Props: referencePropsOut(p.Props)}
	for _, n := range p.Nodes {
		jp.Nodes = append(jp.Nodes, uint64(n))
	}
	for _, e := range p.Edges {
		jp.Edges = append(jp.Edges, uint64(e))
	}
	return jp
}

func referenceGraphJSON(g *Graph) ([]byte, error) {
	doc := jsonGraph{Name: g.name}
	for _, id := range g.NodeIDs() {
		doc.Nodes = append(doc.Nodes, referenceNode(g.nodes[id]))
	}
	for _, id := range g.EdgeIDs() {
		doc.Edges = append(doc.Edges, referenceEdge(g.edges[id]))
	}
	for _, id := range g.PathIDs() {
		doc.Paths = append(doc.Paths, referencePath(g.paths[id]))
	}
	return json.Marshal(doc)
}

func TestAppendJSONMatchesReference(t *testing.T) {
	nodesOnly := New(`quote " <tag> & ` + "\u2028 \x01 \xff")
	mustOK(t, nodesOnly.AddNode(&Node{ID: 1, Labels: NewLabels("A<b>", "Z"), Props: NewProperties(map[string]value.Value{
		"zeta":  value.Set(value.Str("x"), value.Str("y")),
		"alpha": value.Float(2),
		"<k>":   value.List(value.Int(1), value.Null),
	})}))
	mustOK(t, nodesOnly.AddNode(&Node{ID: 2}))

	noEdgePath := New("lonely")
	mustOK(t, noEdgePath.AddNode(&Node{ID: 7, Labels: NewLabels("P")}))
	mustOK(t, noEdgePath.AddPath(&Path{ID: 8, Nodes: []NodeID{7}, Labels: NewLabels("empty")}))

	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"example", buildExampleGraph(t)},
		{"empty", New("")},
		{"nodes_only", nodesOnly},
		{"path_without_edges", noEdgePath},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := referenceGraphJSON(c.g)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.g.AppendJSON([]byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got[1:]) != string(want) {
				t.Fatalf("AppendJSON:\n%s\nreference:\n%s", got[1:], want)
			}
			indented, err := c.g.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, indented); err != nil {
				t.Fatal(err)
			}
			if compact.String() != string(want) {
				t.Fatalf("json.Compact(MarshalJSON) = %s, want %s", compact.Bytes(), want)
			}
			var refIndented bytes.Buffer
			if err := json.Indent(&refIndented, want, "", "  "); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(indented, refIndented.Bytes()) {
				t.Fatalf("MarshalJSON is not the indented reference:\n%s", indented)
			}
		})
	}
	if got, _ := New("").AppendJSON(nil); string(got) != `{"name":"","nodes":null,"edges":null}` {
		t.Errorf("empty graph = %s", got)
	}
}

func TestElementCodecsMatchReference(t *testing.T) {
	g := buildExampleGraph(t)
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		checkCodec(t, n, referenceNode(n), func() ([]byte, error) { return AppendNode(nil, n) })
	}
	for _, id := range g.EdgeIDs() {
		e, _ := g.Edge(id)
		checkCodec(t, e, referenceEdge(e), func() ([]byte, error) { return AppendEdge(nil, e) })
	}
	p, _ := g.Path(301)
	checkCodec(t, p, referencePath(p), func() ([]byte, error) { return AppendPath(nil, p) })
	for _, props := range []Properties{nil, {}, p.Props} {
		ref := referencePropsOut(props)
		if ref == nil {
			ref = map[string]value.Value{}
		}
		checkCodec(t, props, ref, func() ([]byte, error) { return AppendProperties(nil, props) })
	}
}

func checkCodec(t *testing.T, what, ref any, encode func() ([]byte, error)) {
	t.Helper()
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%v: encoded %s, reference %s", what, got, want)
	}
}

func TestAppendJSONRefusesNaN(t *testing.T) {
	// Assembled: AddNode refuses the value, CONSTRUCT can still store it.
	g := Assemble("g", []*Node{{ID: 1, Props: NewProperties(map[string]value.Value{"x": value.Float(math.NaN())})}}, nil, nil)
	if _, err := g.AppendJSON(nil); err == nil {
		t.Fatal("a NaN property must fail to encode")
	}
	if _, err := g.MarshalJSON(); err == nil {
		t.Fatal("MarshalJSON must fail on a NaN property")
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// assembleFixture returns the elements of a small graph — nodes with
// several properties, edges both ways, two stored paths — as fresh
// objects, each sort in a scrambled identifier order.
func assembleFixture() ([]*Node, []*Edge, []*Path) {
	props := func(i int) Properties {
		return NewProperties(map[string]value.Value{
			"name": value.Str(string(rune('a' + i))), "rank": value.Int(int64(i)),
			"tags": value.Set(value.Str("x"), value.Int(int64(i))), "w": value.Float(float64(i) / 3),
			"b": value.Bool(i%2 == 0), "z": value.Str("last"), "m": value.Int(7), "c": value.Int(1), "q": value.Int(2),
		})
	}
	var nodes []*Node
	for _, i := range []int{5, 1, 9, 3, 7, 2} {
		nodes = append(nodes, &Node{ID: NodeID(i), Labels: NewLabels("N", string(rune('A'+i))), Props: props(i)})
	}
	edges := []*Edge{
		{ID: 40, Src: 1, Dst: 2, Labels: NewLabels("e")},
		{ID: 12, Src: 2, Dst: 3, Props: props(2)},
		{ID: 31, Src: 3, Dst: 5, Labels: NewLabels("e", "f")},
		{ID: 20, Src: 9, Dst: 5},
	}
	paths := []*Path{
		{ID: 70, Nodes: []NodeID{1, 2, 3}, Edges: []EdgeID{40, 12}, Labels: NewLabels("p")},
		{ID: 60, Nodes: []NodeID{5, 9}, Edges: []EdgeID{20}, Props: props(1)},
	}
	return nodes, edges, paths
}

// TestAssembledGraphEncodesLikeBuilt checks that a graph from Assemble,
// which encodes from its identifier-ordered element slices, writes the
// bytes of the same graph built element by element — before and after
// every mutator, each of which drops or replaces that order.
func TestAssembledGraphEncodesLikeBuilt(t *testing.T) {
	built := func() *Graph {
		g := New("")
		nodes, edges, paths := assembleFixture()
		for _, n := range nodes {
			if err := g.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range edges {
			if err := g.AddEdge(e); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range paths {
			if err := g.AddPath(p); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	assembled := func() *Graph {
		nodes, edges, paths := assembleFixture()
		return Assemble("", nodes, edges, paths)
	}
	encode := func(g *Graph) string {
		data, err := g.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := encode(assembled()), encode(built()); a != b {
		t.Fatalf("assembled graph encodes as\n%s\nbuilt graph as\n%s", a, b)
	}
	other, _ := built().MarshalJSON()
	other = bytes.ReplaceAll(other, []byte(`"last"`), []byte(`"other"`))
	mutators := []struct {
		name string
		do   func(g *Graph) error
	}{
		{"AddNode", func(g *Graph) error { return g.AddNode(&Node{ID: 4, Labels: NewLabels("N")}) }},
		{"AddEdge", func(g *Graph) error { return g.AddEdge(&Edge{ID: 11, Src: 7, Dst: 1}) }},
		{"AddPath", func(g *Graph) error {
			return g.AddPath(&Path{ID: 65, Nodes: []NodeID{2, 3, 5}, Edges: []EdgeID{12, 31}})
		}},
		{"SetNodeLabels", func(g *Graph) error { return g.SetNodeLabels(3, NewLabels("M")) }},
		{"SetEdgeLabels", func(g *Graph) error { return g.SetEdgeLabels(31, nil) }},
		{"SetNodeProps", func(g *Graph) error {
			return g.SetNodeProps(9, NewProperties(map[string]value.Value{"k": value.Int(1)}))
		}},
		{"SetEdgeProps", func(g *Graph) error { return g.SetEdgeProps(12, nil) }},
		{"SetPathProps", func(g *Graph) error {
			return g.SetPathProps(70, NewProperties(map[string]value.Value{"k": value.Int(2)}))
		}},
		{"TouchProps", func(g *Graph) error {
			n, _ := g.Node(1)
			n.Props.Set("touched", value.True)
			g.TouchProps()
			return nil
		}},
		{"ReplaceWith assembled", func(g *Graph) error {
			nodes, edges, _ := assembleFixture()
			return g.ReplaceWith(Assemble("r", nodes[:4], edges[2:], nil))
		}},
		{"ReplaceWith built", func(g *Graph) error {
			r := New("r")
			n, _, _ := assembleFixture()
			for _, x := range n[:3] {
				if err := r.AddNode(x); err != nil {
					return err
				}
			}
			return g.ReplaceWith(r)
		}},
		{"UnmarshalJSON", func(g *Graph) error { return g.UnmarshalJSON(other) }},
	}
	for _, m := range mutators {
		a, b := assembled(), built()
		if err := m.do(a); err != nil {
			t.Fatalf("%s on the assembled graph: %v", m.name, err)
		}
		if err := m.do(b); err != nil {
			t.Fatalf("%s on the built graph: %v", m.name, err)
		}
		if ea, eb := encode(a), encode(b); ea != eb {
			t.Errorf("after %s the assembled graph encodes as\n%s\nthe built graph as\n%s", m.name, ea, eb)
		}
	}
}
