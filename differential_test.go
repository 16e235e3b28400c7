package gcore_test

import (
	"strings"
	"sync"
	"testing"

	"gcore"
	"gcore/internal/core"
)

// Differential tests between the default engine and engines with
// optimisations ablated. The ablations — residual-only filtering,
// textual plan order, interpreter property reads, full snapshot
// rebuilds, no plan cache — select the fallbacks the optimised paths
// keep anyway; each is a pure performance matter with no observable
// behaviour, so every ablated engine must render the same goldens as
// the default one (golden_test.go), sequentially and in parallel.

// renderResult serializes a query outcome deterministically: the
// table rendering, the graph's canonical JSON, or the error text.
func renderResult(res *gcore.Result, err error) string {
	if err != nil {
		return "ERR: " + err.Error()
	}
	out := ""
	if res.Table != nil {
		out += "TABLE\n" + res.Table.String()
	}
	if res.Graph != nil {
		data, jerr := res.Graph.MarshalJSON()
		if jerr != nil {
			return "MARSHAL-ERR: " + jerr.Error()
		}
		out += "GRAPH\n" + string(data)
	}
	return out
}

// tourEngine builds the guided-tour toy database.
func tourEngine(t *testing.T, opts ...gcore.Option) *gcore.Engine {
	return goldenTour(t, gcore.NewEngine, opts...)
}

// snbEngine builds the 60-person SNB toy engine.
func snbEngine(t *testing.T, opts ...gcore.Option) *gcore.Engine {
	return goldenSNB(t, gcore.NewEngine, opts...)
}

// snbQueries is the part of the SNB toy query set exercising the hot
// kernels: indexed scans, multi-hop joins, reachability, stored
// shortest paths and grouped construction.
func snbQueries() []string { return goldenSNBQueries[:6] }

// fullAblation switches every optimisation off at once.
var fullAblation = core.Ablation{NoPushdown: true, NoReorder: true, NoPropColumns: true, NoIncrementalSnapshot: true}

// ablated returns a maker of engines under ab.
func ablated(ab core.Ablation) engineMaker {
	return func(opts ...gcore.Option) *gcore.Engine { return gcore.NewAblatedEngine(ab, opts...) }
}

// TestAblatedEnginesMatchGolden: each ablation alone, all four
// together, and the disabled plan cache render every golden. Without
// pushdown a path search also runs from sources the WHERE clause then
// drops, and the paths found there consume identifiers; that shifts
// the identifiers a later statement mints, so those engines are held
// to the first execution only.
func TestAblatedEnginesMatchGolden(t *testing.T) {
	variants := []struct {
		name  string
		mk    engineMaker
		twice bool
	}{
		{"residual", ablated(core.Ablation{NoPushdown: true}), false},
		{"textual", ablated(core.Ablation{NoReorder: true}), true},
		{"interpreter", ablated(core.Ablation{NoPropColumns: true}), true},
		{"full-build", ablated(core.Ablation{NoIncrementalSnapshot: true}), true},
		{"all", ablated(fullAblation), false},
		{"nocache", func(opts ...gcore.Option) *gcore.Engine {
			return gcore.NewEngine(append(opts, gcore.WithPlanCacheSize(-1))...)
		}, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { checkGoldens(t, v.mk, v.twice, false) })
	}
}

// TestAblationIsPerEngine: a fully ablated engine and a default one
// over the same dataset evaluate the SNB query set concurrently from
// several goroutines, and both render the goldens — the ablation is a
// property of one engine, not of the process.
func TestAblationIsPerEngine(t *testing.T) {
	engines := []*gcore.Engine{
		goldenSNB(t, ablated(fullAblation)),
		goldenSNB(t, gcore.NewEngine),
	}
	// Only statements that render the same on every execution: the
	// goroutines share each engine's identifier generator.
	want := map[int]string{}
	for i := range goldenSNBQueries {
		if g := readGolden(t, goldenSNBName(i)); !strings.Contains(g, secondExecution) {
			want[i] = g
		}
	}
	var wg sync.WaitGroup
	for _, eng := range engines {
		for g := 0; g < 4; g++ {
			eng := eng
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, w := range want {
					if got := renderResult(eng.Eval(goldenSNBQueries[i])); got != w {
						t.Errorf("snb query %d diverged from its golden under concurrent mixed-ablation load\ngot:\n%s\nwant:\n%s", i, got, w)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}
