package gcore

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"gcore/internal/wal"
)

// TestWALRecordBytes: every record the durable engine appends — one
// of each op — is byte for byte what json.Marshal writes for that
// record, so the one-pass encoder changed no payload byte.
func TestWALRecordBytes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, WithEngineOptions(WithDefaultGraph("g")))
	if err != nil {
		t.Fatal(err)
	}
	odd := NewProperties(map[string]Value{"s": Str("<a & b> \x01"), "f": Float(2), "set": SetOf(Int(1), Float(0.5))})
	g := NewGraph("g")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddNode(&Node{ID: 1, Labels: NewLabels("P<>"), Props: odd}))
	must(g.AddNode(&Node{ID: 2}))
	must(g.AddEdge(&Edge{ID: 3, Src: 1, Dst: 2, Labels: NewLabels("e")}))
	must(g.AddPath(&Path{ID: 4, Nodes: []NodeID{1}}))
	must(d.RegisterGraph(NewGraph("first")))
	must(d.RegisterGraph(g)) // register_graph, then set_default for the pending default
	tbl := NewTable("t&", "a", "b")
	must(tbl.AddRow(Str("x\ny"), Null))
	must(d.RegisterTable(tbl))
	_, err = d.Eval(`GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n) ON g)`)
	must(err)
	must(d.MutateGraph("g", func(g *Graph) error {
		must(g.AddNode(&Node{ID: 5, Props: odd}))
		must(g.AddEdge(&Edge{ID: 6, Src: 5, Dst: 1, Props: odd}))
		must(g.AddPath(&Path{ID: 7, Nodes: []NodeID{5, 1}, Edges: []EdgeID{6}, Labels: NewLabels("p"), Props: odd}))
		must(g.SetNodeLabels(5, NewLabels("A", "B")))
		must(g.SetEdgeLabels(6, NewLabels("C")))
		must(g.SetNodeProps(5, odd))
		must(g.SetEdgeProps(6, Properties{}))
		return g.SetPathProps(7, odd)
	}))
	must(d.Close())

	seen := map[string]bool{}
	must(wal.Replay(dir, wal.Watermark{}, func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		seen[rec.Op] = true
		want, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(payload, want) {
			t.Errorf("%s record:\n got %s\nwant %s", rec.Op, payload, want)
		}
		return nil
	}))
	var ops []string
	for op := range seen {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	want := []string{"add_edge", "add_node", "add_path", "register_graph", "register_table",
		"set_default", "set_edge_labels", "set_edge_props", "set_node_labels", "set_node_props", "set_path_props"}
	if !slices.Equal(ops, want) {
		t.Fatalf("ops logged: %v, want all of %v", ops, want)
	}
}

// TestReplayGraphSnapshot: a log that holds a graph_snapshot record, a
// registered graph's whole new content as older engines logged it,
// still recovers. The logged content takes the graph's place under its
// registered name, identifiers minted afterwards do not collide with
// it, and a mutation logged after it recovers on top of it.
func TestReplayGraphSnapshot(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	must(err)
	g := NewGraph("g")
	must(g.AddNode(&Node{ID: 1, Labels: NewLabels("A")}))
	must(d.RegisterGraph(g))
	must(d.Close())

	snap := NewGraph("g")
	must(snap.AddNode(&Node{ID: 1, Labels: NewLabels("A"), Props: NewProperties(map[string]Value{"k": Int(1)})}))
	must(snap.AddNode(&Node{ID: 5000, Labels: NewLabels("B")}))
	must(snap.AddEdge(&Edge{ID: 6000, Src: 1, Dst: 5000, Labels: NewLabels("e")}))
	must(snap.AddPath(&Path{ID: 7000, Nodes: []NodeID{1, 5000}, Edges: []EdgeID{6000}}))
	payload, err := walRecord{Op: "graph_snapshot", Name: "g", appendData: snap.AppendJSON}.encode()
	must(err)
	log, err := wal.Open(dir, wal.Options{})
	must(err)
	_, err = log.Append(payload)
	must(err)
	must(log.Close())

	wantDoc := func(g *Graph) string {
		t.Helper()
		doc, err := g.AppendJSON(nil)
		must(err)
		return string(doc)
	}
	d, err = OpenDurable(dir)
	must(err)
	got, ok := d.Graph("g")
	if !ok {
		t.Fatal("graph g is gone after replay")
	}
	if a, b := wantDoc(got), wantDoc(snap); a != b {
		t.Fatalf("replayed graph\n%s\nwant the logged content\n%s", a, b)
	}
	if id := d.NextNodeID(); id <= 7000 {
		t.Fatalf("identifier %d minted after replay collides with the logged graph's range", id)
	}
	must(d.MutateGraph("g", func(g *Graph) error {
		return g.AddNode(&Node{ID: d.NextNodeID(), Labels: NewLabels("C")})
	}))
	want := wantDoc(got)
	must(d.Close())

	d, err = OpenDurable(dir)
	must(err)
	defer d.Close()
	again, _ := d.Graph("g")
	if a := wantDoc(again); a != want {
		t.Fatalf("second recovery\n%s\nwant\n%s", a, want)
	}
}
