package gcore_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gcore"
	"gcore/internal/faultinject"
	"gcore/internal/parser"
	"gcore/internal/wal"
)

// Crash-torture suite for the durability subsystem. The invariant
// under test: for any crash image — the data directory truncated at
// any byte offset, or left behind by any injected I/O fault —
// recovery restores a catalog whose rendered state (canonical graph
// JSON plus differential query results) is byte-identical to an
// in-memory replay of the mutation prefix that survived the crash.
// Torn tails are truncated; replay never runs past a bad checksum.

// mutEngine is the mutation surface shared by *gcore.Engine (the
// in-memory oracle) and *gcore.DurableEngine (the system under test):
// the scripted operations below run identically against both.
type mutEngine interface {
	RegisterGraph(*gcore.Graph) error
	RegisterTable(*gcore.Table) error
	Graph(string) (*gcore.Graph, bool)
	GraphNames() []string
	Eval(string) (*gcore.Result, error)
}

// scriptOp is one logged mutation: applied to a durable engine it
// appends exactly one WAL record, so record prefixes and operation
// prefixes coincide.
type scriptOp struct {
	name  string
	apply func(e mutEngine) error
}

// durabilityScript is a deterministic mutation script covering every
// record kind but the default change (TestDurabilityDefaultGraph):
// graph/table registration, element inserts, label and property
// rewrites, stored paths, and a GRAPH VIEW (whose materialised graph
// registers through the catalog hook).
func durabilityScript() []scriptOp {
	props := func(kv map[string]gcore.Value) gcore.Properties { return gcore.NewProperties(kv) }
	node := func(id uint64, label string, kv map[string]gcore.Value) *gcore.Node {
		return &gcore.Node{ID: gcore.NodeID(id), Labels: gcore.NewLabels(label), Props: props(kv)}
	}
	return []scriptOp{
		{"register_base", func(e mutEngine) error {
			g := gcore.NewGraph("base")
			if err := g.AddNode(node(1, "Person", map[string]gcore.Value{"name": gcore.Str("ada")})); err != nil {
				return err
			}
			if err := g.AddNode(node(2, "Person", map[string]gcore.Value{"name": gcore.Str("bob")})); err != nil {
				return err
			}
			if err := g.AddNode(node(3, "City", map[string]gcore.Value{"name": gcore.Str("paris")})); err != nil {
				return err
			}
			if err := g.AddEdge(&gcore.Edge{ID: 10, Src: 1, Dst: 2, Labels: gcore.NewLabels("knows")}); err != nil {
				return err
			}
			if err := g.AddEdge(&gcore.Edge{ID: 11, Src: 2, Dst: 3, Labels: gcore.NewLabels("livesIn")}); err != nil {
				return err
			}
			return e.RegisterGraph(g)
		}},
		{"add_node_4", withGraph("base", func(g *gcore.Graph) error {
			return g.AddNode(node(4, "Person", map[string]gcore.Value{"name": gcore.Str("eve")}))
		})},
		{"add_node_5", withGraph("base", func(g *gcore.Graph) error {
			return g.AddNode(node(5, "City", map[string]gcore.Value{"name": gcore.Str("oslo")}))
		})},
		{"add_edge_12", withGraph("base", func(g *gcore.Graph) error {
			return g.AddEdge(&gcore.Edge{ID: 12, Src: 4, Dst: 5, Labels: gcore.NewLabels("livesIn")})
		})},
		{"add_edge_13", withGraph("base", func(g *gcore.Graph) error {
			return g.AddEdge(&gcore.Edge{ID: 13, Src: 1, Dst: 4, Labels: gcore.NewLabels("knows"),
				Props: props(map[string]gcore.Value{"since": gcore.Int(2020)})})
		})},
		{"set_node_labels", withGraph("base", func(g *gcore.Graph) error {
			return g.SetNodeLabels(4, gcore.NewLabels("Person", "Manager"))
		})},
		{"set_edge_labels", withGraph("base", func(g *gcore.Graph) error {
			return g.SetEdgeLabels(10, gcore.NewLabels("knows", "wellKnows"))
		})},
		{"set_node_props", withGraph("base", func(g *gcore.Graph) error {
			return g.SetNodeProps(2, props(map[string]gcore.Value{"name": gcore.Str("bob"), "age": gcore.Int(44)}))
		})},
		{"set_edge_props", withGraph("base", func(g *gcore.Graph) error {
			return g.SetEdgeProps(12, props(map[string]gcore.Value{"since": gcore.Int(2021)}))
		})},
		{"add_path", withGraph("base", func(g *gcore.Graph) error {
			return g.AddPath(&gcore.Path{ID: 100, Nodes: []gcore.NodeID{1, 2, 3}, Edges: []gcore.EdgeID{10, 11},
				Labels: gcore.NewLabels("toParis")})
		})},
		{"set_path_props", withGraph("base", func(g *gcore.Graph) error {
			return g.SetPathProps(100, props(map[string]gcore.Value{"trust": gcore.Float(0.9)}))
		})},
		{"register_table", func(e mutEngine) error {
			t := gcore.NewTable("towns", "town")
			if err := t.AddRow(gcore.Str("paris")); err != nil {
				return err
			}
			if err := t.AddRow(gcore.Str("oslo")); err != nil {
				return err
			}
			return e.RegisterTable(t)
		}},
		{"graph_view", func(e mutEngine) error {
			_, err := e.Eval(`GRAPH VIEW people AS (CONSTRUCT (n) MATCH (n:Person) ON base)`)
			return err
		}},
		{"add_node_6", withGraph("base", func(g *gcore.Graph) error {
			return g.AddNode(node(6, "Person", map[string]gcore.Value{"name": gcore.Str("kim")}))
		})},
		{"add_edge_14", withGraph("base", func(g *gcore.Graph) error {
			return g.AddEdge(&gcore.Edge{ID: 14, Src: 6, Dst: 3, Labels: gcore.NewLabels("livesIn")})
		})},
	}
}

func withGraph(name string, fn func(*gcore.Graph) error) func(mutEngine) error {
	return func(e mutEngine) error {
		g, ok := e.Graph(name)
		if !ok {
			return fmt.Errorf("graph %q not registered", name)
		}
		return fn(g)
	}
}

// stateQueries probe the recovered catalog through the evaluator;
// prefixes where a graph does not exist yet render deterministic
// errors, which must match too.
var stateQueries = []string{
	`SELECT n.name AS name MATCH (n:Person) ON base ORDER BY name`,
	`SELECT n.name AS a, m.name AS b MATCH (n:Person)-[:knows]->(m:Person) ON base ORDER BY a, b`,
	`CONSTRUCT (n)-[e]->(c) MATCH (n:Person)-[e:livesIn]->(c:City) ON base`,
	`SELECT n.name AS name MATCH (n) ON people ORDER BY name`,
	`CONSTRUCT (n)-/@p/->(m) MATCH (n)-/p<:knows*>/->(m) ON base WHERE n.name = 'ada'`,
}

// renderState serialises everything observable: every registered
// graph's canonical JSON plus every state query's rendered result.
func renderState(e mutEngine) string {
	var sb strings.Builder
	for _, name := range e.GraphNames() {
		g, _ := e.Graph(name)
		data, err := g.MarshalJSON()
		if err != nil {
			return "MARSHAL-ERR: " + err.Error()
		}
		sb.WriteString("== graph " + name + "\n")
		sb.Write(data)
		sb.WriteString("\n")
	}
	for _, q := range stateQueries {
		res, err := e.Eval(q)
		sb.WriteString("== query\n" + renderResult(res, err) + "\n")
	}
	return sb.String()
}

// oracle applies the first n script operations to a fresh in-memory
// engine. Operations whose target does not exist yet in that prefix
// are impossible by construction (the script is linear).
func oracle(t *testing.T, ops []scriptOp, n int) *gcore.Engine {
	t.Helper()
	e := gcore.NewEngine()
	for _, op := range ops[:n] {
		if err := op.apply(e); err != nil {
			t.Fatalf("oracle op %s: %v", op.name, err)
		}
	}
	return e
}

// recordEnds parses the record frame boundaries of an intact segment
// file: the byte offset just past each record.
func recordEnds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(8) // segment magic
	var ends []int64
	for off+8 <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if n == 0 || off+8+n > int64(len(data)) {
			break
		}
		off += 8 + n
		ends = append(ends, off)
	}
	return ends
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recoverTwice recovers dir twice and requires both recoveries to
// render want. The second open runs over what the first left behind
// (a torn tail already truncated), so recovery must be idempotent.
func recoverTwice(t *testing.T, dir, want, what string, opts ...gcore.DurOption) {
	t.Helper()
	for open := 1; open <= 2; open++ {
		rec, err := gcore.OpenDurable(dir, opts...)
		if err != nil {
			t.Fatalf("%s, open %d: recovery failed: %v", what, open, err)
		}
		got := renderState(rec)
		rec.Close()
		if got != want {
			t.Fatalf("%s, open %d: recovered state diverged\n--- recovered:\n%s\n--- want:\n%s", what, open, got, want)
		}
	}
}

// runScript runs ops[from:to] against a durable engine.
func runScript(t *testing.T, d *gcore.DurableEngine, ops []scriptOp, from, to int) {
	t.Helper()
	for _, op := range ops[from:to] {
		if err := op.apply(d); err != nil {
			t.Fatalf("op %s: %v", op.name, err)
		}
	}
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d.wal", seq))
}

// TestDurabilityCrashAtEveryByte records the full mutation script
// under SyncAlways, then simulates a power cut at every byte offset
// of the log and asserts recovery equals the in-memory replay of the
// surviving record prefix.
func TestDurabilityCrashAtEveryByte(t *testing.T) {
	ops := durabilityScript()
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, len(ops))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, segPath(dir, 1))
	if len(ends) != len(ops) {
		t.Fatalf("script of %d ops wrote %d records; the op↔record mapping is broken", len(ops), len(ends))
	}
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Expected renderings per surviving-prefix length, computed once.
	wantByPrefix := make([]string, len(ops)+1)
	for k := range wantByPrefix {
		wantByPrefix[k] = renderState(oracle(t, ops, k))
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		k := 0
		for _, end := range ends {
			if end <= cut {
				k++
			}
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(segPath(cutDir, 1), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recoverTwice(t, cutDir, wantByPrefix[k], fmt.Sprintf("cut at byte %d (%d records survive)", cut, k))
	}
}

// TestDurabilityCrashAfterCheckpoint: the same power-cut sweep over
// the log tail after a mid-script checkpoint — recovery must compose
// the checkpoint state with the surviving tail records.
func TestDurabilityCrashAfterCheckpoint(t *testing.T) {
	ops := durabilityScript()
	ckptAt := 9 // checkpoint after 9 ops, mid-script
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, ckptAt)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, ckptAt, len(ops))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Read the committed watermark from the checkpoint files.
	var cur struct {
		Dir string `json:"dir"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &cur); err != nil {
		t.Fatal(err)
	}
	var wm struct {
		Seg uint64 `json:"segment"`
		Off int64  `json:"offset"`
	}
	raw, err = os.ReadFile(filepath.Join(dir, cur.Dir, "watermark.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &wm); err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, segPath(dir, wm.Seg))
	var tailEnds []int64
	for _, end := range ends {
		if end > wm.Off {
			tailEnds = append(tailEnds, end)
		}
	}
	if len(tailEnds) != len(ops)-ckptAt {
		t.Fatalf("tail has %d records, want %d", len(tailEnds), len(ops)-ckptAt)
	}
	data, err := os.ReadFile(segPath(dir, wm.Seg))
	if err != nil {
		t.Fatal(err)
	}
	for cut := wm.Off; cut <= int64(len(data)); cut++ {
		k := ckptAt
		for _, end := range tailEnds {
			if end <= cut {
				k++
			}
		}
		cutDir := t.TempDir()
		copyTree(t, dir, cutDir)
		if err := os.Truncate(segPath(cutDir, wm.Seg), cut); err != nil {
			t.Fatal(err)
		}
		rec, err := gcore.OpenDurable(cutDir)
		if err != nil {
			t.Fatalf("cut %d: recovery failed: %v", cut, err)
		}
		want := renderState(oracle(t, ops, k))
		if got := renderState(rec); got != want {
			rec.Close()
			t.Fatalf("cut at byte %d (%d ops survive): recovered state diverged\n--- recovered:\n%s\n--- want:\n%s", cut, k, got, want)
		}
		rec.Close()
	}
}

// TestDurabilityFaultSites drives every declared I/O fault site: the
// faulted operation must fail cleanly (typed error, no partial
// state), the engine must keep working once the fault clears, and
// recovery must restore exactly the successful mutations.
func TestDurabilityFaultSites(t *testing.T) {
	boom := errors.New("injected I/O fault")
	// One scenario per site; the loop below fails if a site has none,
	// so an I/O probe cannot be added without coverage here.
	scenarios := map[string]func(t *testing.T, dir string){
		faultinject.SiteWALAppend: func(t *testing.T, dir string) {
			faultSiteScenario(t, dir, faultinject.SiteWALAppend, boom, nil)
		},
		faultinject.SiteWALShortWrite: func(t *testing.T, dir string) {
			faultSiteScenario(t, dir, faultinject.SiteWALShortWrite, boom, nil)
		},
		faultinject.SiteWALSync: func(t *testing.T, dir string) {
			faultSiteScenario(t, dir, faultinject.SiteWALSync, boom, nil)
		},
		faultinject.SiteWALRoll: func(t *testing.T, dir string) {
			// A tiny segment size forces the faulted append to roll.
			faultSiteScenario(t, dir, faultinject.SiteWALRoll, boom,
				[]gcore.DurOption{gcore.WithSegmentSize(64)})
		},
		faultinject.SiteWALCheckpointWrite: func(t *testing.T, dir string) {
			checkpointFaultScenario(t, dir, faultinject.SiteWALCheckpointWrite, boom)
		},
		faultinject.SiteWALCheckpointRename: func(t *testing.T, dir string) {
			checkpointFaultScenario(t, dir, faultinject.SiteWALCheckpointRename, boom)
		},
	}
	for _, site := range faultinject.IOSites() {
		fn, ok := scenarios[site]
		if !ok {
			t.Fatalf("no crash-torture scenario for I/O fault site %s", site)
		}
		t.Run(site, func(t *testing.T) { fn(t, t.TempDir()) })
	}
}

// faultSiteScenario: run part of the script, arm the site so the next
// mutation fails, disarm, finish the script, and verify both the live
// and the recovered state equal the oracle of the successful ops.
func faultSiteScenario(t *testing.T, dir, site string, boom error, extra []gcore.DurOption) {
	ops := durabilityScript()
	d, err := gcore.OpenDurable(dir, extra...)
	if err != nil {
		t.Fatal(err)
	}
	mid := 6
	runScript(t, d, ops, 0, mid)

	faultinject.Arm()
	faultinject.Set(site, faultinject.Action{Err: boom})
	err = ops[mid].apply(d)
	hits := faultinject.Hits(site)
	faultinject.Disarm()
	if hits == 0 {
		t.Fatalf("fault site %s never reached", site)
	}
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("faulted mutation returned %v, want the injected error", err)
	}

	// The rejected mutation left no trace; the rest of the script runs.
	runScript(t, d, ops, mid, len(ops))
	want := renderState(oracle(t, ops, len(ops)))
	if got := renderState(d); got != want {
		t.Fatalf("live state after cleared fault diverged\n--- live:\n%s\n--- want:\n%s", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recoverTwice(t, dir, want, "recovery after fault run", extra...)
}

// checkpointFaultScenario: a failed checkpoint must leave the
// previous recovery root intact and the log usable.
func checkpointFaultScenario(t *testing.T, dir, site string, boom error) {
	ops := durabilityScript()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, 8)

	faultinject.Arm()
	faultinject.Set(site, faultinject.Action{Err: boom})
	err = d.Checkpoint()
	hits := faultinject.Hits(site)
	faultinject.Disarm()
	if hits == 0 {
		t.Fatalf("fault site %s never reached", site)
	}
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("faulted checkpoint returned %v, want the injected error", err)
	}

	// The log is still the recovery source; mutations and a later
	// checkpoint succeed.
	runScript(t, d, ops, 8, len(ops))
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after cleared fault: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	want := renderState(oracle(t, ops, len(ops)))
	if got := renderState(rec); got != want {
		t.Fatalf("recovered state diverged after checkpoint fault\n--- recovered:\n%s\n--- want:\n%s", got, want)
	}
}

// TestDurabilityPropertyRandom is the randomized recovery invariant:
// for a random mutation script, crash-at-every-record followed by
// recovery yields a catalog byte-identical to replaying the surviving
// prefix in memory.
func TestDurabilityPropertyRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ops := randomScript(rand.New(rand.NewSource(seed)), 24)
			dir := t.TempDir()
			d, err := gcore.OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			runScript(t, d, ops, 0, len(ops))
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			ends := recordEnds(t, segPath(dir, 1))
			if len(ends) != len(ops) {
				t.Fatalf("%d ops wrote %d records", len(ops), len(ends))
			}
			data, err := os.ReadFile(segPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= len(ops); k++ {
				cut := int64(8)
				if k > 0 {
					cut = ends[k-1]
				}
				cutDir := t.TempDir()
				if err := os.WriteFile(segPath(cutDir, 1), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				recoverTwice(t, cutDir, renderState(oracle(t, ops, k)), fmt.Sprintf("prefix %d", k))
			}
		})
	}
}

// randomScript generates n deterministic random mutations, each
// appending exactly one record. IDs are dense and tracked so every
// operation is valid on both the durable engine and the oracle.
func randomScript(rng *rand.Rand, n int) []scriptOp {
	ops := []scriptOp{{"register_r", func(e mutEngine) error {
		g := gcore.NewGraph("r")
		if err := g.AddNode(&gcore.Node{ID: 1, Labels: gcore.NewLabels("N")}); err != nil {
			return err
		}
		if err := g.AddNode(&gcore.Node{ID: 2, Labels: gcore.NewLabels("N")}); err != nil {
			return err
		}
		if err := g.AddEdge(&gcore.Edge{ID: 1000, Src: 1, Dst: 2, Labels: gcore.NewLabels("E")}); err != nil {
			return err
		}
		return e.RegisterGraph(g)
	}}}
	nodes := []uint64{1, 2}
	edges := []uint64{1000}
	nextNode, nextEdge := uint64(3), uint64(1001)
	labels := []string{"N", "M", "K"}
	for len(ops) < n {
		switch rng.Intn(6) {
		case 0, 1: // add node (weighted: keeps the graph growing)
			id := nextNode
			nextNode++
			lbl := labels[rng.Intn(len(labels))]
			nodes = append(nodes, id)
			ops = append(ops, scriptOp{fmt.Sprintf("add_node_%d", id), withGraph("r", func(g *gcore.Graph) error {
				return g.AddNode(&gcore.Node{ID: gcore.NodeID(id), Labels: gcore.NewLabels(lbl)})
			})})
		case 2: // add edge between existing nodes
			id := nextEdge
			nextEdge++
			src := nodes[rng.Intn(len(nodes))]
			dst := nodes[rng.Intn(len(nodes))]
			edges = append(edges, id)
			ops = append(ops, scriptOp{fmt.Sprintf("add_edge_%d", id), withGraph("r", func(g *gcore.Graph) error {
				return g.AddEdge(&gcore.Edge{ID: gcore.EdgeID(id), Src: gcore.NodeID(src), Dst: gcore.NodeID(dst),
					Labels: gcore.NewLabels("E")})
			})})
		case 3: // relabel an existing node
			id := nodes[rng.Intn(len(nodes))]
			lbl := labels[rng.Intn(len(labels))]
			ops = append(ops, scriptOp{fmt.Sprintf("relabel_%d", id), withGraph("r", func(g *gcore.Graph) error {
				return g.SetNodeLabels(gcore.NodeID(id), gcore.NewLabels(lbl))
			})})
		case 4: // rewrite an existing node's properties
			id := nodes[rng.Intn(len(nodes))]
			v := rng.Intn(100)
			ops = append(ops, scriptOp{fmt.Sprintf("props_%d", id), withGraph("r", func(g *gcore.Graph) error {
				return g.SetNodeProps(gcore.NodeID(id), gcore.NewProperties(map[string]gcore.Value{"v": gcore.Int(int64(v))}))
			})})
		case 5: // rewrite an existing edge's properties
			id := edges[rng.Intn(len(edges))]
			v := rng.Intn(100)
			ops = append(ops, scriptOp{fmt.Sprintf("eprops_%d", id), withGraph("r", func(g *gcore.Graph) error {
				return g.SetEdgeProps(gcore.EdgeID(id), gcore.NewProperties(map[string]gcore.Value{"w": gcore.Int(int64(v))}))
			})})
		}
	}
	return ops
}

// recoveredCopy recovers a copy of dir — a crash image: SyncAlways
// means the directory is committed as-is, so it can be copied out
// from under the live engine.
func recoveredCopy(t *testing.T, dir string) *gcore.DurableEngine {
	t.Helper()
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)
	rec, err := gcore.OpenDurable(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec
}

// TestDurabilityDifferentialPaper: the guided-tour database loaded
// into a durable engine survives a crash image — every paper example
// query renders byte-identically on the recovered engine.
func TestDurabilityDifferentialPaper(t *testing.T) {
	exportDir := t.TempDir()
	if err := goldenTour(t).SaveCatalog(exportDir); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadCatalog(exportDir); err != nil {
		t.Fatal(err)
	}

	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	src := goldenTour(t)
	rec := recoveredCopy(t, dir)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		want := renderResult(src.Eval(query))
		got := renderResult(rec.Eval(query))
		if got != want {
			t.Fatalf("%s: recovered result diverged\n--- recovered:\n%s\n--- want:\n%s", key, got, want)
		}
	}
}

// TestDurabilityDifferentialSNB: the SNB toy graph registered
// durably, crashed and recovered — the differential query suite
// renders byte-identically.
func TestDurabilityDifferentialSNB(t *testing.T) {
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	social, _ := gcore.NewEngine().GenerateSNB(gcore.SNBConfig{Persons: 60, Seed: 1})
	if err := d.RegisterGraph(social); err != nil {
		t.Fatal(err)
	}
	live := goldenSNB(t)
	rec := recoveredCopy(t, dir)
	for i, query := range snbQueries() {
		want := renderResult(live.Eval(query))
		got := renderResult(rec.Eval(query))
		if got != want {
			t.Fatalf("q%d: recovered result diverged\n--- recovered:\n%s\n--- want:\n%s", i, got, want)
		}
	}
}

// TestDurabilityDefaultGraph: a WithDefaultGraph name registered after
// another graph logs a default change, and recovery — without the
// option — replays it.
func TestDurabilityDefaultGraph(t *testing.T) {
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir, gcore.WithEngineOptions(gcore.WithDefaultGraph("company_graph")))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*gcore.Graph{gcore.SampleSocialGraph(), gcore.SampleCompanyGraph()} {
		if err := d.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	res, err := rec.Eval(`SELECT c.name AS name MATCH (c:Company) ORDER BY name`)
	if err != nil || res.Table.Len() != 4 {
		t.Fatalf("recovered default graph is not company_graph: %v, %v", res, err)
	}
}

// TestDurabilityCorruptSegmentRefused: flipped bits in committed
// records must fail recovery with a typed *WALCorruptError and
// quarantine the segment — never a silent partial catalog.
func TestDurabilityCorruptSegmentRefused(t *testing.T) {
	ops := durabilityScript()
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir, gcore.WithSegmentSize(512))
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, len(ops))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage a payload byte in the FIRST segment (committed, not tail).
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8+8+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = gcore.OpenDurable(dir, gcore.WithSegmentSize(512))
	var ce *gcore.WALCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("recovery of corrupt log returned %v, want *WALCorruptError", err)
	}
	if ce.Quarantined == "" {
		t.Fatal("corrupt segment was not quarantined")
	}
}

// TestDurabilitySyncPolicies: each policy recovers to a consistent
// prefix; SyncAlways recovers everything.
func TestDurabilitySyncPolicies(t *testing.T) {
	ops := durabilityScript()
	for _, pol := range []gcore.SyncPolicy{gcore.SyncAlways, gcore.SyncInterval, gcore.SyncOnCheckpoint} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			d, err := gcore.OpenDurable(dir, gcore.WithSyncPolicy(pol))
			if err != nil {
				t.Fatal(err)
			}
			runScript(t, d, ops, 0, len(ops))
			if err := d.Close(); err != nil { // Close commits the tail under every policy
				t.Fatal(err)
			}
			rec, err := gcore.OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			want := renderState(oracle(t, ops, len(ops)))
			if got := renderState(rec); got != want {
				t.Fatalf("policy %v: recovered state diverged\n%s", pol, got)
			}
		})
	}
}

// TestDurabilityAutoCheckpoint: WithCheckpointEvery compacts the log
// at statement boundaries without changing recovered state.
func TestDurabilityAutoCheckpoint(t *testing.T) {
	ops := durabilityScript()
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir, gcore.WithCheckpointEvery(3))
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, len(ops))
	if s := d.WALStats(); s.Checkpoints == 0 {
		t.Fatal("no automatic checkpoint was taken")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	want := renderState(oracle(t, ops, len(ops)))
	if got := renderState(rec); got != want {
		t.Fatalf("recovered state diverged under auto-checkpointing\n%s", got)
	}
	if rec.Metrics().WALCheckpoints != 0 {
		// The reopened log starts fresh counters; just exercise the field.
		t.Log("fresh log reports prior checkpoints")
	}
}

// TestDurabilityWALMetrics: the WAL counters surface through
// Engine.Metrics and the read-only wal.Replay oracle agrees with the
// engine's own record count.
func TestDurabilityWALMetrics(t *testing.T) {
	ops := durabilityScript()
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, len(ops))
	m := d.Metrics()
	if m.WALAppends != int64(len(ops)) {
		t.Fatalf("WALAppends = %d, want %d", m.WALAppends, len(ops))
	}
	if m.WALSyncs == 0 || m.WALAppendedBytes == 0 {
		t.Fatalf("WAL counters not surfaced: %+v", m)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := wal.Replay(dir, wal.Watermark{}, func(p []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(ops) {
		t.Fatalf("read-only replay found %d records, want %d", n, len(ops))
	}
}

// TestDurabilityTornTailMetric: a torn tail is truncated exactly once
// and surfaces in the metrics of the recovered engine.
func TestDurabilityTornTailMetric(t *testing.T) {
	ops := durabilityScript()
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, len(ops))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: append garbage to the last segment.
	f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "\x40\x00\x00\x00\xde\xad\xbe\xefpartial")
	f.Close()
	rec, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if m := rec.Metrics(); m.WALTornTruncated != 1 {
		t.Fatalf("WALTornTruncated = %d, want 1", m.WALTornTruncated)
	}
	want := renderState(oracle(t, ops, len(ops)))
	if got := renderState(rec); got != want {
		t.Fatalf("state diverged after torn-tail truncation\n%s", got)
	}
}

// TestDurabilityIndentedCheckpoint: checkpoints are written compact,
// but a checkpoint in the earlier, indented layout still recovers to
// the same state.
func TestDurabilityIndentedCheckpoint(t *testing.T) {
	ops := durabilityScript()
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, 0, len(ops)-2)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runScript(t, d, ops, len(ops)-2, len(ops))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*", "*_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint files (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("\n")) {
			t.Fatalf("%s is not compact", f)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, data, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, indented.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, want := renderState(rec), renderState(oracle(t, ops, len(ops))); got != want {
		t.Fatalf("indented checkpoint recovered a different state\n%s", got)
	}
}
