package ppg_test

import (
	"reflect"
	"runtime"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/snb"
)

// TestDecodedGraphLayout pins what a decoded graph costs the
// collector: equal label sets share one clipped backing array, the
// elements without properties share one map, and SNB-2000 retains at
// most one heap object per element. The checks the element mutators
// make still run, with their error text.
func TestDecodedGraphLayout(t *testing.T) {
	g := ppg.New("")
	doc := `{"name":"g","nodes":[
		{"id":1,"labels":["Person"],"properties":{"name":"a"}},
		{"id":2,"labels":["Person"]},
		{"id":3,"labels":["B","A"]},
		{"id":4,"labels":["A","B","A"],"properties":{"name":"b"}},
		{"id":5}],
	"edges":[{"id":6,"src":1,"dst":2,"labels":["knows"]},{"id":7,"src":2,"dst":1,"labels":["knows"]}],
	"paths":[{"id":8,"nodes":[1,2,1],"edges":[6,7],"labels":["Person"]}]}`
	if err := g.UnmarshalJSON([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	node := func(id ppg.NodeID) *ppg.Node {
		n, ok := g.Node(id)
		if !ok {
			t.Fatalf("node #%d missing", id)
		}
		return n
	}
	e6, _ := g.Edge(6)
	e7, _ := g.Edge(7)
	p8, _ := g.Path(8)
	for _, c := range []struct {
		what string
		a, b ppg.Labels
	}{
		{"two Person nodes", node(1).Labels, node(2).Labels},
		{"a Person node and a Person path", node(1).Labels, p8.Labels},
		{"{A,B} written two ways", node(3).Labels, node(4).Labels},
		{"two knows edges", e6.Labels, e7.Labels},
	} {
		if &c.a[0] != &c.b[0] {
			t.Errorf("%s: label sets %v and %v have separate backing arrays", c.what, c.a, c.b)
		}
		if cap(c.a) != len(c.a) {
			t.Errorf("%s: label set %v has capacity %d, so an append would write into the shared array", c.what, c.a, cap(c.a))
		}
	}
	if !node(3).Labels.Equal(ppg.NewLabels("A", "B")) || node(5).Labels != nil {
		t.Errorf("labels decoded as %v and %v", node(3).Labels, node(5).Labels)
	}
	mapOf := func(p ppg.Properties) uintptr { return reflect.ValueOf(p).Pointer() }
	empty := mapOf(node(2).Props)
	for _, p := range []ppg.Properties{node(3).Props, node(5).Props, e6.Props, e7.Props, p8.Props} {
		if len(p) != 0 || mapOf(p) != empty {
			t.Errorf("an element without properties holds its own map %v", p)
		}
	}
	if mapOf(node(1).Props) == mapOf(node(4).Props) {
		t.Error("elements with properties share a map")
	}

	t.Run("errors", func(t *testing.T) {
		for _, c := range []struct {
			doc  string
			add  func(g *ppg.Graph) error // the same elements through the mutators
			want string
		}{
			{`{"name":"g","nodes":[{"id":1},{"id":2},{"id":1}],"edges":[{"id":3,"src":1,"dst":9}]}`,
				func(g *ppg.Graph) error {
					_ = g.AddNode(&ppg.Node{ID: 1})
					_ = g.AddNode(&ppg.Node{ID: 2})
					return g.AddNode(&ppg.Node{ID: 1})
				},
				`ppg: graph "g" already contains node #1`},
			{`{"name":"g","nodes":[{"id":1},{"id":2}],"edges":[{"id":3,"src":1,"dst":2},{"id":4,"src":2,"dst":9},{"id":3,"src":1,"dst":2}]}`,
				func(g *ppg.Graph) error {
					_ = g.AddNode(&ppg.Node{ID: 1})
					_ = g.AddNode(&ppg.Node{ID: 2})
					_ = g.AddEdge(&ppg.Edge{ID: 3, Src: 1, Dst: 2})
					return g.AddEdge(&ppg.Edge{ID: 4, Src: 2, Dst: 9})
				},
				`ppg: edge #4 ends at missing node #9`},
			{`{"name":"g","nodes":[{"id":1},{"id":2},{"id":5}],"edges":[{"id":3,"src":1,"dst":2}],"paths":[{"id":4,"nodes":[1,2],"edges":[3]},{"id":6,"nodes":[1,5],"edges":[3]},{"id":4,"nodes":[1],"edges":[3]}]}`,
				func(g *ppg.Graph) error {
					_ = g.AddNode(&ppg.Node{ID: 1})
					_ = g.AddNode(&ppg.Node{ID: 2})
					_ = g.AddNode(&ppg.Node{ID: 5})
					_ = g.AddEdge(&ppg.Edge{ID: 3, Src: 1, Dst: 2})
					_ = g.AddPath(&ppg.Path{ID: 4, Nodes: []ppg.NodeID{1, 2}, Edges: []ppg.EdgeID{3}})
					return g.AddPath(&ppg.Path{ID: 6, Nodes: []ppg.NodeID{1, 5}, Edges: []ppg.EdgeID{3}})
				},
				`ppg: path #6: edge #3 does not connect #1 and #5`},
			{`{"name":"g","nodes":[{"id":1}],"paths":[{"id":4,"nodes":[1],"edges":[]},{"id":4,"nodes":[1,1],"edges":[]}]}`,
				func(g *ppg.Graph) error {
					_ = g.AddNode(&ppg.Node{ID: 1})
					_ = g.AddPath(&ppg.Path{ID: 4, Nodes: []ppg.NodeID{1}})
					return g.AddPath(&ppg.Path{ID: 4, Nodes: []ppg.NodeID{1, 1}})
				},
				`ppg: graph "g" already contains path #4`},
		} {
			err := ppg.New("").UnmarshalJSON([]byte(c.doc))
			if err == nil || err.Error() != c.want {
				t.Errorf("decoding %s: got error %v, want %q", c.doc, err, c.want)
			}
			if ref := c.add(ppg.New("g")); ref == nil || ref.Error() != c.want {
				t.Errorf("the mutators fail with %v, want %q", ref, c.want)
			}
		}
	})

	t.Run("snb-2000", func(t *testing.T) {
		doc, elements := snbDocument(t)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapObjects
		g := ppg.New("")
		if err := g.UnmarshalJSON(doc); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained := float64(int64(ms.HeapObjects)-int64(before)) / float64(elements)
		runtime.KeepAlive(g)
		t.Logf("a decoded SNB-2000 graph retains %.2f heap objects per element", retained)
		if retained > 1 {
			t.Errorf("a decoded SNB-2000 graph retains %.2f heap objects per element, want at most 1", retained)
		}
	})
}

// snbDocument returns the interchange document of SNB-2000 and its
// element count; the generated graph is garbage once it returns.
func snbDocument(t *testing.T) ([]byte, int) {
	g := snb.Generate(snb.Config{Persons: 2000, Seed: 1}, ppg.NewIDGen(1)).Social
	doc, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return doc, g.NumNodes() + g.NumEdges() + g.NumPaths()
}
