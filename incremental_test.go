package gcore_test

import (
	"fmt"
	"strings"
	"testing"

	"gcore"
	"gcore/internal/core"
	"gcore/internal/csr"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Tests for incremental CSR snapshot maintenance: after any mutation
// sequence, the delta-applied snapshot must be semantically identical
// to a from-scratch rebuild, old snapshots must stay frozen despite
// structural sharing, and query results must be byte-identical with
// the optimisation on or off.

// FuzzIncrementalSnapshot drives random mutation streams against a
// primed snapshot chain. Invariants: csr.Of after any mutation round
// is equivalent to csr.Build of the same graph; a snapshot captured
// earlier never changes afterwards (copy-on-write discipline), no
// matter how the chain continues.
func FuzzIncrementalSnapshot(f *testing.F) {
	f.Add(uint32(1), uint8(4), uint8(6))
	f.Add(uint32(42), uint8(1), uint8(1))
	f.Add(uint32(7), uint8(10), uint8(20))
	f.Add(uint32(99), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint32, rounds, ops uint8) {
		rnd := seed | 1
		next := func(mod int) int {
			rnd ^= rnd << 13
			rnd ^= rnd >> 17
			rnd ^= rnd << 5
			return int(rnd % uint32(mod))
		}
		labels := []string{"A", "B", "C", "knows", "likes"}
		randVal := func() gcore.Value {
			switch next(5) {
			case 0:
				return gcore.Int(int64(next(100)))
			case 1:
				return gcore.Float(float64(next(100)) / 4)
			case 2:
				return gcore.Bool(next(2) == 0)
			case 3:
				return gcore.Str(labels[next(len(labels))])
			default:
				return gcore.Str(fmt.Sprintf("s%d", next(40)))
			}
		}
		keys := []string{"k0", "k1", "k2", "name"}
		randProps := func() gcore.Properties {
			kv := map[string]gcore.Value{}
			for i, n := 0, 1+next(3); i < n; i++ {
				kv[keys[next(len(keys))]] = randVal()
			}
			return gcore.NewProperties(kv)
		}

		g := gcore.NewGraph("fuzz")
		var nodes []gcore.NodeID
		var edges []gcore.EdgeID
		for i := 0; i < 8+next(8); i++ {
			id := gcore.NodeID(100 + i)
			ls := gcore.NewLabels(labels[next(3)])
			if g.AddNode(&gcore.Node{ID: id, Labels: ls, Props: randProps()}) == nil {
				nodes = append(nodes, id)
			}
		}
		for i := 0; i < 2*len(nodes); i++ {
			id := gcore.EdgeID(10_000 + i)
			e := &gcore.Edge{ID: id, Src: nodes[next(len(nodes))], Dst: nodes[next(len(nodes))],
				Labels: gcore.NewLabels(labels[3+next(2)]), Props: randProps()}
			if g.AddEdge(e) == nil {
				edges = append(edges, id)
			}
		}
		csr.Of(g) // prime the chain: later Of calls may delta-apply

		// Frozen capture: this snapshot and its independent rebuild
		// must still agree after every later round.
		frozen := csr.Of(g)
		frozenImage := csr.Build(g)

		nextNode := gcore.NodeID(1_000_000)
		nextEdge := gcore.EdgeID(2_000_000)
		indexed := map[*csr.PropCol]bool{} // columns whose index some round built
		for r := 0; r < int(rounds%16); r++ {
			for o := 0; o < int(ops%32); o++ {
				switch next(8) {
				case 0: // append-friendly monotonic node
					id := nextNode
					nextNode++
					if g.AddNode(&gcore.Node{ID: id, Labels: gcore.NewLabels(labels[next(3)]), Props: randProps()}) == nil {
						nodes = append(nodes, id)
					}
				case 1: // non-monotonic node: must fall back, still correct
					id := gcore.NodeID(next(90))
					if g.AddNode(&gcore.Node{ID: id, Labels: gcore.NewLabels(labels[next(3)])}) == nil {
						nodes = append(nodes, id)
					}
				case 2:
					id := nextEdge
					nextEdge++
					e := &gcore.Edge{ID: id, Src: nodes[next(len(nodes))], Dst: nodes[next(len(nodes))],
						Labels: gcore.NewLabels(labels[3+next(2)]), Props: randProps()}
					if g.AddEdge(e) == nil {
						edges = append(edges, id)
					}
				case 3: // fresh label: unknown to the base snapshot
					id := nextNode
					nextNode++
					if g.AddNode(&gcore.Node{ID: id, Labels: gcore.NewLabels(fmt.Sprintf("L%d", next(6)))}) == nil {
						nodes = append(nodes, id)
					}
				case 4:
					ls := gcore.NewLabels()
					if next(3) > 0 {
						ls = gcore.NewLabels(labels[next(3)], labels[next(3)])
					}
					_ = g.SetNodeLabels(nodes[next(len(nodes))], ls)
				case 5:
					if len(edges) > 0 {
						_ = g.SetEdgeLabels(edges[next(len(edges))], gcore.NewLabels(labels[3+next(2)]))
					}
				case 6:
					_ = g.SetNodeProps(nodes[next(len(nodes))], randProps())
				default:
					if len(edges) > 0 {
						_ = g.SetEdgeProps(edges[next(len(edges))], randProps())
					}
				}
			}
			snap, info := csr.OfCounted(g, true)
			// Seek every column before the equivalence check, so its
			// validation pass has built indexes to hold against their
			// columns. A column the delta shared with earlier versions
			// is the same PropCol and must bring its index along.
			for _, key := range keys {
				lits := []gcore.Value{randVal(), randVal(), gcore.Str("s1"), gcore.Int(7), gcore.Float(0.25), gcore.Bool(true)}
				seekAgainstScan(t, snap, snap.NodeCol(key), indexed, snap.NumNodes(), lits)
				seekAgainstScan(t, snap, snap.EdgeCol(key), indexed, snap.NumEdges(), lits)
			}
			full := csr.Build(g)
			if err := csr.Equivalent(snap, full); err != nil {
				t.Fatalf("round %d (%v): incremental snapshot diverged from rebuild: %v", r, info.Kind, err)
			}
		}
		if err := csr.Equivalent(frozen, frozenImage); err != nil {
			t.Fatalf("frozen snapshot mutated by later delta applies: %v", err)
		}
	})
}

// seekAgainstScan holds one column's equality index to a from-scratch
// scan: for every constant the column agrees to seek, the postings
// ascend and contain each ordinal value.Eq accepts. indexed remembers
// the columns whose index was built, across snapshot versions: no
// column may build twice.
func seekAgainstScan(t *testing.T, snap *csr.Snapshot, col *csr.PropCol, indexed map[*csr.PropCol]bool, count int, lits []gcore.Value) {
	t.Helper()
	if col == nil {
		return
	}
	for _, lit := range lits {
		post, built, ok := col.SeekEq(lit, snap.Strings())
		if built && indexed[col] {
			t.Fatalf("a column rebuilt its index for %v", lit)
		}
		indexed[col] = indexed[col] || built
		if !ok {
			continue
		}
		at := 0
		for o := int32(0); o < int32(count); o++ {
			if at < len(post) && post[at] < o {
				t.Fatalf("postings %v for %v do not ascend", post, lit)
			}
			hit := at < len(post) && post[at] == o
			if hit {
				at++
			}
			if !col.Present(o) {
				continue
			}
			if eq, _ := value.Eq(col.SetAt(o), lit).AsBool(); eq && !hit {
				t.Fatalf("postings %v for %v (column kind %v) miss ordinal %d", post, lit, col.Kind(), o)
			}
		}
		if at != len(post) {
			t.Fatalf("postings %v for %v reach past the %d ordinals", post, lit, count)
		}
	}
}

// mutableSNB builds the SNB toy engine (under ab, with the given
// options) and returns its default graph — the social graph — for
// direct mutation.
func mutableSNB(t *testing.T, ab core.Ablation, opts ...gcore.Option) (*gcore.Engine, *gcore.Graph) {
	t.Helper()
	eng := goldenSNB(t, ablated(ab), opts...)
	g, ok := eng.Graph(eng.GraphNames()[0])
	if !ok {
		t.Fatal("registered social graph not found")
	}
	return eng, g
}

// snbMutationScript is a deterministic interleaving payload: each
// step mutates the social graph between query evaluations, exercising
// appends, relabels and property rewrites on a warm snapshot chain.
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
	// Rewrite an existing person's labels and properties in place.
	victim := persons[(step*7)%len(persons)]
	if err := g.SetNodeLabels(victim, gcore.NewLabels("Person", "Tag")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetNodeProps(base, gcore.NewProperties(map[string]gcore.Value{
		"firstName": gcore.Str(fmt.Sprintf("Zed%02d-renamed", step)),
		"karma":     gcore.Int(int64(step)),
	})); err != nil {
		t.Fatal(err)
	}
}

// runInterleaved evaluates the SNB query set interleaved with
// mutations, with incremental snapshots enabled or disabled, and
// returns the concatenated transcript plus the engine's final
// metrics.
func runInterleaved(t *testing.T, disableInc bool, workers int) (string, gcore.Metrics) {
	t.Helper()
	eng, g := mutableSNB(t, core.Ablation{NoIncrementalSnapshot: disableInc}, gcore.WithParallelism(workers))
	out := ""
	for step := 0; step < 4; step++ {
		snbMutationScript(t, g, step)
		for qi, q := range snbQueries() {
			out += fmt.Sprintf("-- step %d query %d\n", step, qi)
			out += renderResult(eng.Eval(q)) + "\n"
		}
	}
	return out, eng.Metrics()
}

// TestIncrementalDifferentialSNB: interleaved mutate/query workloads
// render byte-identically with incremental snapshot maintenance on
// and off, sequentially and in parallel — and the incremental run
// actually takes the delta path.
func TestIncrementalDifferentialSNB(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			want, off := runInterleaved(t, true, workers)
			got, on := runInterleaved(t, false, workers)
			if got != want {
				t.Fatalf("incremental snapshots changed results\nincremental:\n%s\nfull rebuild:\n%s", got, want)
			}
			if off.SnapshotDeltaApplies != 0 {
				t.Fatalf("incremental off but %d delta applies recorded", off.SnapshotDeltaApplies)
			}
			if on.SnapshotDeltaApplies == 0 {
				t.Fatalf("incremental on but no delta applies recorded (full=%d fallback=%d)",
					on.SnapshotFullBuilds, on.SnapshotFallbacks)
			}
		})
	}
}

// TestIncrementalCloneIsolation: cloning a graph mid-chain starts a
// fresh snapshot lineage; mutations to the original afterwards must
// not bleed into the clone's snapshot through shared structure.
func TestIncrementalCloneIsolation(t *testing.T) {
	_, g := mutableSNB(t, core.Ablation{})
	csr.Of(g)
	snbMutationScript(t, g, 0) // dirty the chain so the next Of delta-applies
	if _, info := csr.OfCounted(g, true); info.Kind != csr.BuildDelta {
		t.Fatalf("priming mutation produced %v, want BuildDelta", info.Kind)
	}
	clone := g.Clone()
	cloneSnap := csr.Of(clone)
	cloneImage := csr.Build(clone)
	for step := 1; step < 4; step++ {
		snbMutationScript(t, g, step)
		csr.Of(g)
	}
	if err := csr.Equivalent(cloneSnap, cloneImage); err != nil {
		t.Fatalf("clone snapshot changed after mutating the original: %v", err)
	}
	if clone.NumNodes() == g.NumNodes() {
		t.Fatal("mutations did not diverge original from clone; test is vacuous")
	}
}

// TestExplainAnalyzeSnapshotFooter: after a mutation, the EXPLAIN
// ANALYZE footer reports the snapshot as delta-applied (and as a full
// build when the ablation disables the incremental path).
func TestExplainAnalyzeSnapshotFooter(t *testing.T) {
	eng, g := mutableSNB(t, core.Ablation{})
	q := `SELECT c.name AS name MATCH (c:City) ORDER BY name`
	if _, err := eng.Eval(q); err != nil {
		t.Fatal(err)
	}
	snbMutationScript(t, g, 0)
	out, err := eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "snapshots: ") || !strings.Contains(out, "delta-applied") {
		t.Fatalf("no delta-applied snapshot line in footer:\n%s", out)
	}

	eng, g = mutableSNB(t, core.Ablation{NoIncrementalSnapshot: true})
	if _, err := eng.Eval(q); err != nil {
		t.Fatal(err)
	}
	snbMutationScript(t, g, 1)
	out, err = eng.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "snapshots: 1 full") {
		t.Fatalf("incremental off: footer should report a full build:\n%s", out)
	}
}

// TestIncrementalOverflowFallback: a mutation burst past the delta
// buffer cap must transparently fall back to a full rebuild — same
// results, counted as a full build, and the chain recovers afterwards.
func TestIncrementalOverflowFallback(t *testing.T) {
	saved := ppg.MaxDeltaOps
	ppg.MaxDeltaOps = 4
	defer func() { ppg.MaxDeltaOps = saved }()
	_, g := mutableSNB(t, core.Ablation{})
	csr.Of(g)
	snbMutationScript(t, g, 0) // records more than 4 ops
	snap, info := csr.OfCounted(g, true)
	if info.Kind != csr.BuildFull {
		t.Fatalf("overflowed delta produced %v, want BuildFull", info.Kind)
	}
	if err := csr.Equivalent(snap, csr.Build(g)); err != nil {
		t.Fatal(err)
	}
	// A small follow-up mutation fits the restarted buffer.
	if err := g.SetNodeProps(g.NodesWithLabel("Person")[0],
		gcore.NewProperties(map[string]gcore.Value{"karma": gcore.Int(1)})); err != nil {
		t.Fatal(err)
	}
	snap, info = csr.OfCounted(g, true)
	if info.Kind != csr.BuildDelta {
		t.Fatalf("post-overflow mutation produced %v, want BuildDelta", info.Kind)
	}
	if err := csr.Equivalent(snap, csr.Build(g)); err != nil {
		t.Fatal(err)
	}
}
