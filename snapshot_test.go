package gcore_test

import (
	"fmt"
	"strings"
	"testing"

	"gcore"
	"gcore/internal/csr"
)

// Tests for the snapshot cache seen from the engine: a snapshot is
// built once per graph generation, a graph's copy gets snapshots of its
// own, and a snapshot read earlier never changes afterwards.

// mutableSNB builds the SNB toy engine and returns its default graph —
// the social graph — for direct mutation.
func mutableSNB(t *testing.T) (*gcore.Engine, *gcore.Graph) {
	t.Helper()
	eng := goldenSNB(t)
	g, ok := eng.Graph(eng.GraphNames()[0])
	if !ok {
		t.Fatal("registered social graph not found")
	}
	return eng, g
}

// snbMutationScript is a deterministic interleaving payload: each
// step appends to the social graph between query evaluations — nodes
// with new strings and a new property key, a node with two labels,
// edges into the existing graph.
func snbMutationScript(t *testing.T, g *gcore.Graph, step int) {
	t.Helper()
	base := gcore.NodeID(5_000_000 + 10*step)
	person := func(id gcore.NodeID, name string) *gcore.Node {
		return &gcore.Node{ID: id, Labels: gcore.NewLabels("Person"),
			Props: gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str(name)})}
	}
	if err := g.AddNode(person(base, fmt.Sprintf("Zed%02d", step))); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(person(base+1, fmt.Sprintf("Yara%02d", step))); err != nil {
		t.Fatal(err)
	}
	knows := func(id gcore.EdgeID, src, dst gcore.NodeID) error {
		return g.AddEdge(&gcore.Edge{ID: id, Src: src, Dst: dst, Labels: gcore.NewLabels("knows")})
	}
	eid := gcore.EdgeID(6_000_000 + 10*step)
	if err := knows(eid, base, base+1); err != nil {
		t.Fatal(err)
	}
	// Tie the new pair into the existing graph so reachability changes.
	persons := g.NodesWithLabel("Person")
	if err := knows(eid+1, persons[step%len(persons)], base); err != nil {
		t.Fatal(err)
	}
	// A person who is also a tag, with a property key no node had,
	// known by an existing person.
	if err := g.AddNode(&gcore.Node{ID: base + 2, Labels: gcore.NewLabels("Person", "Tag"),
		Props: gcore.NewProperties(map[string]gcore.Value{
			"firstName": gcore.Str(fmt.Sprintf("Zed%02d-tagged", step)),
			"karma":     gcore.Int(int64(step)),
		})}); err != nil {
		t.Fatal(err)
	}
	if err := knows(eid+2, persons[(step*7)%len(persons)], base+2); err != nil {
		t.Fatal(err)
	}
}

// snapImage renders what a snapshot says about its graph through its
// public accessors: each node with its labels among labels, its
// out-edges and its properties under keys, and each edge with its
// endpoints, labels and properties.
func snapImage(s *csr.Snapshot, labels, keys []string) string {
	var b strings.Builder
	for u := int32(0); u < int32(s.NumNodes()); u++ {
		fmt.Fprintf(&b, "node %d", s.NodeID(u))
		for _, l := range labels {
			if s.NodeHasLabel(u, s.LabelID(l)) {
				fmt.Fprintf(&b, " :%s", l)
			}
		}
		for _, e := range s.Out(u) {
			fmt.Fprintf(&b, " ->%d", s.EdgeID(e))
		}
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, s.NodeProp(u, k))
		}
		b.WriteByte('\n')
	}
	for e := int32(0); e < int32(s.NumEdges()); e++ {
		fmt.Fprintf(&b, "edge %d %d->%d", s.EdgeID(e), s.NodeID(s.Src(e)), s.NodeID(s.Dst(e)))
		for _, l := range labels {
			if s.EdgeHasLabel(e, s.LabelID(l)) {
				fmt.Fprintf(&b, " :%s", l)
			}
		}
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, s.EdgeProp(e, k))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runInterleaved evaluates the SNB query set interleaved with appends
// and returns the concatenated transcript plus the engine's final
// metrics. With rebuild set, every statement runs through evalRebuilt
// and reads a snapshot built for it; otherwise a step's statements
// share the snapshot built after its appends.
func runInterleaved(t *testing.T, rebuild bool) (string, gcore.Metrics) {
	t.Helper()
	eng, g := mutableSNB(t)
	eval := eng.Eval
	if rebuild {
		eval = func(src string) (*gcore.Result, error) { return evalRebuilt(eng, src) }
	}
	out := ""
	for step := 0; step < 4; step++ {
		snbMutationScript(t, g, step)
		for qi, q := range snbQueries() {
			out += fmt.Sprintf("-- step %d query %d\n", step, qi)
			out += renderResult(eval(q)) + "\n"
		}
	}
	return out, eng.Metrics()
}

// TestIncrementalDifferentialSNB: interleaved append/query workloads
// render byte-identically whether a step's statements share one
// snapshot, with the indexes and plans earlier statements left on it,
// or each statement reads a snapshot built for it; and sharing builds
// fewer snapshots. Evaluation is single-threaded, so the one subtest is
// workers=1.
func TestIncrementalDifferentialSNB(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		want, off := runInterleaved(t, true)
		got, on := runInterleaved(t, false)
		if got != want {
			t.Fatalf("shared snapshots changed results\nshared:\n%s\nrebuilt per statement:\n%s", got, want)
		}
		if n := int64(4 * len(snbQueries())); on.SnapshotFullBuilds != 4 || off.SnapshotFullBuilds < n {
			t.Fatalf("snapshot builds: %d shared, %d rebuilt per statement; want 4 (one per step) and at least %d",
				on.SnapshotFullBuilds, off.SnapshotFullBuilds, n)
		}
	})
}

// TestIncrementalCloneIsolation: a graph's clone has a snapshot of its
// own; appending to the original afterwards leaves that snapshot as a
// fresh build of the clone reads it.
func TestIncrementalCloneIsolation(t *testing.T) {
	_, g := mutableSNB(t)
	csr.Of(g)
	snbMutationScript(t, g, 0)
	clone := g.Clone()
	labels, keys := []string{"Person", "Tag", "knows"}, []string{"firstName", "karma"}
	cloneSnap := csr.Of(clone)
	want := snapImage(csr.Build(clone), labels, keys)
	for step := 1; step < 4; step++ {
		snbMutationScript(t, g, step)
		csr.Of(g)
	}
	if got := snapImage(cloneSnap, labels, keys); got != want {
		t.Fatalf("clone snapshot changed after mutating the original:\n%s\nwant:\n%s", got, want)
	}
	if clone.NumNodes() == g.NumNodes() {
		t.Fatal("mutations did not diverge original from clone; test is vacuous")
	}
}

// TestExplainAnalyzeSnapshotFooter: the EXPLAIN ANALYZE footer counts
// no snapshot build while the graph is unchanged, and one build (every
// later probe of the statement reuses it) after an append or a property
// replacement.
func TestExplainAnalyzeSnapshotFooter(t *testing.T) {
	eng, g := mutableSNB(t)
	q := `SELECT c.name AS name MATCH (c:City) ORDER BY name`
	footer := func(want string) {
		t.Helper()
		out, err := eng.ExplainAnalyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Fatalf("footer lacks %q:\n%s", want, out)
		}
		if strings.Contains(out, "snapshots: ") {
			t.Fatalf("footer still carries a snapshots line:\n%s", out)
		}
	}
	if _, err := eng.Eval(q); err != nil {
		t.Fatal(err)
	}
	footer("reused/0 built")
	snbMutationScript(t, g, 0)
	footer("reused/1 built")
	footer("reused/0 built")
	if err := g.SetNodeProps(g.NodesWithLabel("Person")[0],
		gcore.NewProperties(map[string]gcore.Value{"karma": gcore.Int(1)})); err != nil {
		t.Fatal(err)
	}
	footer("reused/1 built")
}
