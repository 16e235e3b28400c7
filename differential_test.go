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
// textual plan order, interpreter property reads, a snapshot built for
// every statement — select the fallbacks the optimised paths keep anyway;
// each is a pure performance matter with no observable behaviour, so
// every ablated engine must render the same goldens as the default
// one (golden_test.go). So must the AST-level path that bypasses the
// plan cache (evalParsed).

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

// evalFunc runs one statement's source text on an engine: Engine.Eval
// through the plan cache, or evalParsed around it.
type evalFunc func(*gcore.Engine, string) (*gcore.Result, error)

// evalParsed is the uncached reference path: Engine.EvalStatement on
// freshly parsed text compiles a throwaway plan on every execution
// and never touches the plan cache.
func evalParsed(eng *gcore.Engine, src string) (*gcore.Result, error) {
	stmt, err := gcore.Parse(src)
	if err != nil {
		return nil, err
	}
	return eng.EvalStatement(stmt)
}

// evalRebuilt bumps every registered graph's generation before it
// evaluates, so each statement reads a snapshot built for it: no
// equality index, degree sum or chain plan an earlier statement left
// on a cached snapshot is reused. The bump is a tracked no-op: a
// node's properties replaced by its own map.
func evalRebuilt(eng *gcore.Engine, src string) (*gcore.Result, error) {
	for _, name := range eng.GraphNames() {
		if err := eng.MutateGraph(name, func(g *gcore.Graph) error {
			ids := g.NodeIDs()
			if len(ids) == 0 {
				return nil
			}
			n, _ := g.Node(ids[0])
			return g.SetNodeProps(n.ID, n.Props)
		}); err != nil {
			return nil, err
		}
	}
	return eng.Eval(src)
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
var fullAblation = core.Ablation{NoPushdown: true, NoReorder: true, NoPropColumns: true}

// ablated returns a maker of engines under ab.
func ablated(ab core.Ablation) engineMaker {
	return func(opts ...gcore.Option) *gcore.Engine { return gcore.NewAblatedEngine(ab, opts...) }
}

// TestAblatedEnginesMatchGolden: each ablation alone, all three
// together, the default engine building a snapshot for each
// statement, and the default engine evaluating through the uncached
// AST-level path (a fresh compile on every execution) render every
// golden. Without pushdown a path search also runs from sources the
// WHERE clause then drops, and the paths found there consume
// identifiers; that shifts the identifiers a later statement mints,
// so those engines are held to the first execution only.
func TestAblatedEnginesMatchGolden(t *testing.T) {
	variants := []struct {
		name  string
		mk    engineMaker
		eval  evalFunc
		twice bool
	}{
		{"residual", ablated(core.Ablation{NoPushdown: true}), (*gcore.Engine).Eval, false},
		{"textual", ablated(core.Ablation{NoReorder: true}), (*gcore.Engine).Eval, true},
		{"interpreter", ablated(core.Ablation{NoPropColumns: true}), (*gcore.Engine).Eval, true},
		{"full-build", gcore.NewEngine, evalRebuilt, true},
		{"all", ablated(fullAblation), (*gcore.Engine).Eval, false},
		{"nocache", gcore.NewEngine, evalParsed, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { checkGoldens(t, v.mk, v.eval, v.twice, false) })
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
