package gcore_test

import (
	"errors"
	"math"
	"testing"

	"gcore"
)

// nonFiniteBase is the graph the non-finite mutations run against:
// nodes 1 and 2, edge 3 from 1 to 2, and stored path 4 over it.
func nonFiniteBase(t *testing.T) *gcore.Graph {
	t.Helper()
	g := gcore.NewGraph("g")
	for _, err := range []error{
		g.AddNode(&gcore.Node{ID: 1, Labels: gcore.NewLabels("N")}),
		g.AddNode(&gcore.Node{ID: 2, Labels: gcore.NewLabels("N")}),
		g.AddEdge(&gcore.Edge{ID: 3, Src: 1, Dst: 2, Labels: gcore.NewLabels("r")}),
		g.AddPath(&gcore.Path{ID: 4, Nodes: []gcore.NodeID{1, 2}, Edges: []gcore.EdgeID{3}}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// nonFiniteMutations are the six tracked element mutators, each handed
// a property value the interchange format cannot hold: a NaN or an
// infinity, alone or inside a set or list.
var nonFiniteMutations = []struct {
	name string
	key  string
	do   func(g *gcore.Graph) error
}{
	{"AddNode", "x", func(g *gcore.Graph) error {
		return g.AddNode(&gcore.Node{ID: 10, Props: propsOf("x", gcore.Float(math.NaN()), "y", gcore.Int(1))})
	}},
	{"AddEdge", "w", func(g *gcore.Graph) error {
		return g.AddEdge(&gcore.Edge{ID: 11, Src: 1, Dst: 2, Props: propsOf("w", gcore.Float(math.Inf(1)))})
	}},
	{"AddPath", "c", func(g *gcore.Graph) error {
		return g.AddPath(&gcore.Path{ID: 12, Nodes: []gcore.NodeID{2, 1}, Edges: []gcore.EdgeID{3}, Props: propsOf("c", gcore.Float(math.Inf(-1)))})
	}},
	{"SetNodeProps", "x", func(g *gcore.Graph) error {
		return g.SetNodeProps(1, propsOf("x", gcore.SetOf(gcore.Float(1), gcore.Float(math.NaN()))))
	}},
	{"SetEdgeProps", "w", func(g *gcore.Graph) error {
		return g.SetEdgeProps(3, propsOf("w", gcore.ListOf(gcore.Float(math.NaN()))))
	}},
	{"SetPathProps", "c", func(g *gcore.Graph) error {
		return g.SetPathProps(4, propsOf("c", gcore.Float(math.Inf(1))))
	}},
}

func propsOf(kv ...any) gcore.Properties {
	m := map[string]gcore.Value{}
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = kv[i+1].(gcore.Value)
	}
	return gcore.NewProperties(m)
}

// checkNonFinite expects a mutation to fail with a *NonFiniteError
// naming key, and the graph's document to be what it was.
func checkNonFinite(t *testing.T, name, key string, err error, before []byte, g *gcore.Graph) {
	t.Helper()
	var nf *gcore.NonFiniteError
	if !errors.As(err, &nf) {
		t.Errorf("%s: got error %v, want a *NonFiniteError", name, err)
	} else if nf.Key != key {
		t.Errorf("%s: the error names property %q, want %q", name, nf.Key, key)
	}
	after, aerr := g.AppendJSON(nil)
	if aerr != nil || string(after) != string(before) {
		t.Errorf("%s: the refused mutation changed the graph (%v):\n%s\nwas\n%s", name, aerr, after, before)
	}
}

// TestEngineRefusesNonFiniteProperties: through MutateGraph, every
// element mutator refuses a non-finite property value with a typed
// error and leaves the graph as it was.
func TestEngineRefusesNonFiniteProperties(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(nonFiniteBase(t)); err != nil {
		t.Fatal(err)
	}
	g, _ := eng.Graph("g")
	before, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range nonFiniteMutations {
		err := eng.MutateGraph("g", m.do)
		checkNonFinite(t, m.name, m.key, err, before, g)
	}
}

// TestDurableRefusesNonFiniteProperties: on a durable engine the
// refusal comes before the write-ahead log, as a typed error, not as a
// failure to encode the record; the engine stays writable, and
// recovery restores the graph without any refused mutation.
func TestDurableRefusesNonFiniteProperties(t *testing.T) {
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterGraph(nonFiniteBase(t)); err != nil {
		t.Fatal(err)
	}
	g, _ := d.Graph("g")
	before, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range nonFiniteMutations {
		err := d.MutateGraph("g", m.do)
		checkNonFinite(t, m.name, m.key, err, before, g)
	}
	finite := func(g *gcore.Graph) error { return g.SetNodeProps(2, propsOf("x", gcore.Float(2.5))) }
	if err := d.MutateGraph("g", finite); err != nil {
		t.Fatalf("a finite write after the refusals: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	want := nonFiniteBase(t)
	if err := finite(want); err != nil {
		t.Fatal(err)
	}
	wantDoc, _ := want.AppendJSON(nil)
	rec, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, ok := rec.Graph("g")
	if !ok {
		t.Fatal("graph g not recovered")
	}
	if gotDoc, _ := got.AppendJSON(nil); string(gotDoc) != string(wantDoc) {
		t.Errorf("recovered\n%s\nwant\n%s", gotDoc, wantDoc)
	}
}

// TestConstructRefusesNonFiniteProperties: a CONSTRUCT that assigns a
// property a value holding a NaN or an infinity fails with a typed
// error naming the element and key, on an in-memory and on a durable
// engine alike, and the GRAPH VIEW it defines is not registered.
func TestConstructRefusesNonFiniteProperties(t *testing.T) {
	cases := []struct {
		query, elem, key string
		p                gcore.Value
	}{
		{`GRAPH VIEW odd AS (CONSTRUCT (n {x := $p}) MATCH (n:N) ON g)`, "node", "x", gcore.Float(math.NaN())},
		{`GRAPH VIEW odd AS (CONSTRUCT (n) SET n.y := $p MATCH (n:N) ON g)`, "node", "y", gcore.Float(math.Inf(1))},
		{`GRAPH VIEW odd AS (CONSTRUCT (a)-[e {w := $p}]->(b) MATCH (a)-[e]->(b) ON g)`, "edge", "w",
			gcore.ListOf(gcore.Float(1), gcore.Float(math.Inf(-1)))},
		{`GRAPH VIEW odd AS (CONSTRUCT (a)-/@q {c := $p}/->(b) MATCH (a)-/@q/->(b) ON g)`, "path", "c",
			gcore.SetOf(gcore.Float(math.NaN()))},
	}
	durable, err := gcore.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for name, eng := range map[string]*gcore.Engine{"memory": gcore.NewEngine(), "durable": durable.Engine} {
		if err := eng.RegisterGraph(nonFiniteBase(t)); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			prep, err := eng.Prepare(c.query)
			if err != nil {
				t.Fatal(err)
			}
			_, err = prep.Eval(map[string]gcore.Value{"p": c.p})
			var nf *gcore.NonFiniteError
			if !errors.As(err, &nf) {
				t.Errorf("%s: %s: got error %v, want a *NonFiniteError", name, c.query, err)
			} else if nf.Elem != c.elem || nf.Key != c.key {
				t.Errorf("%s: %s: the error names %s property %q, want %s property %q", name, c.query, nf.Elem, nf.Key, c.elem, c.key)
			}
			if _, ok := eng.Graph("odd"); ok {
				t.Fatalf("%s: %s: the refused view was registered", name, c.query)
			}
		}
	}
}
