package gcore_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"gcore"
	"gcore/internal/value"
)

// CONSTRUCT results and GRAPH VIEWs share the element objects of the
// graphs they were built from. These tests hold the sharing to the
// data-model contract: an element reachable from a graph is read-only
// and changes only through the Set* mutators, which store a new object,
// so a mutation of one graph never shows through another.

const (
	sharedQuery = `CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.employer = 'Company3'`
	sharedView  = `GRAPH VIEW v AS (` + sharedQuery + `)`
)

// sharedSNB registers SNB-2000 on eng and returns its name.
func sharedSNB(t *testing.T, eng *gcore.Engine) string {
	t.Helper()
	social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 2000, Seed: 1})
	if err := eng.RegisterGraph(social); err != nil {
		t.Fatal(err)
	}
	return social.Name()
}

// buildShared evaluates the shared CONSTRUCT as a result and as view v.
func buildShared(t *testing.T, eng *gcore.Engine) (res, view *gcore.Graph) {
	t.Helper()
	r, err := eng.Eval(sharedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(sharedView); err != nil {
		t.Fatal(err)
	}
	v, ok := eng.Graph("v")
	if !ok {
		t.Fatal("view v not registered")
	}
	if r.Graph.NumEdges() == 0 {
		t.Fatal("shared CONSTRUCT built no edge; the test is vacuous")
	}
	return r.Graph, v
}

func renderGraph(t *testing.T, g *gcore.Graph) string {
	t.Helper()
	data, err := g.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// mutateShared rewrites one node's labels and properties and one edge's
// properties, all three elements shared with the graphs built by
// buildShared (edge eid runs from node nid).
func mutateShared(g *gcore.Graph, nid gcore.NodeID, eid gcore.EdgeID) error {
	if err := g.SetNodeProps(nid, gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str("Mutated")})); err != nil {
		return err
	}
	if err := g.SetNodeLabels(nid, gcore.NewLabels("Person", "Mutated")); err != nil {
		return err
	}
	return g.SetEdgeProps(eid, gcore.NewProperties(map[string]gcore.Value{"weight": gcore.Int(7)}))
}

// sharedTargets picks the first edge of a built graph and its source.
func sharedTargets(g *gcore.Graph) (gcore.NodeID, gcore.EdgeID) {
	eid := g.EdgeIDs()[0]
	e, _ := g.Edge(eid)
	return e.Src, eid
}

// checkMutated fails unless base carries mutateShared's writes.
func checkMutated(t *testing.T, base *gcore.Graph, nid gcore.NodeID, eid gcore.EdgeID) {
	t.Helper()
	n, _ := base.Node(nid)
	e, _ := base.Edge(eid)
	if !n.Labels.Has("Mutated") || !value.Equal(n.Props.Get("firstName"), gcore.SetOf(gcore.Str("Mutated"))) ||
		!value.Equal(e.Props.Get("weight"), gcore.SetOf(gcore.Int(7))) {
		t.Fatal("the mutation did not reach the base graph; the test is vacuous")
	}
}

// TestSharedElementIsolation: mutating the base graph directly or
// through MutateGraph leaves an earlier CONSTRUCT result and view
// byte-identical, and mutating a result leaves the base unchanged.
func TestSharedElementIsolation(t *testing.T) {
	for _, via := range []string{"direct", "MutateGraph"} {
		t.Run(via, func(t *testing.T) {
			eng := gcore.NewEngine()
			name := sharedSNB(t, eng)
			res, view := buildShared(t, eng)
			wantRes, wantView := renderGraph(t, res), renderGraph(t, view)
			nid, eid := sharedTargets(res)
			base, _ := eng.Graph(name)
			if via == "direct" {
				if err := mutateShared(base, nid, eid); err != nil {
					t.Fatal(err)
				}
			} else if err := eng.MutateGraph(name, func(g *gcore.Graph) error { return mutateShared(g, nid, eid) }); err != nil {
				t.Fatal(err)
			}
			checkMutated(t, base, nid, eid)
			if renderGraph(t, res) != wantRes {
				t.Error("mutating the base changed an earlier CONSTRUCT result")
			}
			if renderGraph(t, view) != wantView {
				t.Error("mutating the base changed view v")
			}
		})
	}
	t.Run("result", func(t *testing.T) {
		eng := gcore.NewEngine()
		name := sharedSNB(t, eng)
		base, _ := eng.Graph(name)
		wantBase := renderGraph(t, base)
		res, view := buildShared(t, eng)
		wantView := renderGraph(t, view)
		nid, eid := sharedTargets(res)
		if err := mutateShared(res, nid, eid); err != nil {
			t.Fatal(err)
		}
		checkMutated(t, res, nid, eid)
		if renderGraph(t, base) != wantBase {
			t.Error("mutating a CONSTRUCT result changed the base graph")
		}
		if renderGraph(t, view) != wantView {
			t.Error("mutating a CONSTRUCT result changed view v")
		}
	})
}

// TestSharedElementIsolationDurable: the same on a DurableEngine, and
// view v recovers from the log as it was defined, not as mutated.
func TestSharedElementIsolationDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := gcore.OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	name := sharedSNB(t, d.Engine)
	res, view := buildShared(t, d.Engine)
	wantRes, wantView := renderGraph(t, res), renderGraph(t, view)
	nid, eid := sharedTargets(res)
	if err := d.MutateGraph(name, func(g *gcore.Graph) error { return mutateShared(g, nid, eid) }); err != nil {
		t.Fatal(err)
	}
	base, _ := d.Graph(name)
	checkMutated(t, base, nid, eid)
	if renderGraph(t, res) != wantRes || renderGraph(t, view) != wantView {
		t.Fatal("a durable mutation of the base changed an earlier result or view v")
	}
	rec := recoveredCopy(t, dir)
	recBase, _ := rec.Graph(name)
	checkMutated(t, recBase, nid, eid)
	recView, ok := rec.Graph("v")
	if !ok {
		t.Fatal("view v not recovered")
	}
	if renderGraph(t, recView) != wantView {
		t.Error("recovered view v differs from its definition-time render")
	}
}

// TestSharedElementIsolationRace: sessions read view v while
// MutateGraph rewrites the properties of the base elements it shares;
// every read sees the view as defined. Run under -race.
func TestSharedElementIsolationRace(t *testing.T) {
	eng := gcore.NewEngine()
	name := sharedSNB(t, eng)
	res, _ := buildShared(t, eng)
	const read = `SELECT n.firstName AS f, e.weight AS w MATCH (n)-[e]->(m) ON v ORDER BY f, w`
	first, err := eng.Eval(read)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Table.String()
	ids := res.NodeIDs()
	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan string, 3) // one send per reader and one for the writer, at most
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := eng.NewSession()
			for !done.Load() {
				got, err := sess.EvalContext(context.Background(), read)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got.Table.String() != want {
					errs <- "a read of view v saw a base mutation"
					return
				}
				reads.Add(1)
			}
		}()
	}
	// Write until the readers have overlapped a good number of rounds.
	for round := 0; round < 20 || reads.Load() < 20 && round < 2000; round++ {
		err := eng.MutateGraph(name, func(g *gcore.Graph) error {
			for _, id := range ids {
				if err := g.SetNodeProps(id, gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Int(int64(round))})); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			errs <- err.Error()
			break
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
