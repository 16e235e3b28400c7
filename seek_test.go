package gcore_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gcore"
	"gcore/internal/parser"
	"gcore/internal/value"
)

// Bound parameters as constants, and the equality seek on the start
// scan: both must be invisible in results and errors, and visible in
// the metrics.

// evalParams is the one-shot parameterised evaluation.
func evalParams(eng *gcore.Engine, src string, params map[string]gcore.Value) (*gcore.Result, error) {
	return eng.NewSession().EvalParamsContext(context.Background(), src, params)
}

func kindsEngine(t *testing.T) *gcore.Engine {
	t.Helper()
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(kindsGraph()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEqualitySeekKinds pins which (column kind, constant kind) pairs a
// start scan seeks, and how many rows each keeps — the same as the
// inlined literal wherever the constant has a literal form. The pairs
// that keep scanning are the ones where equality crosses kinds (int vs
// float) or is not == (NaN), and everything that is not a scalar of a
// seekable kind. TestExpressionOracle (internal/core) holds the column
// form of each of these kinds to the §A.1 evaluator row by row.
func TestEqualitySeekKinds(t *testing.T) {
	nan := gcore.Float(math.NaN())
	for _, c := range []struct {
		key  string
		val  gcore.Value
		seek bool
		rows int
	}{
		{"i", gcore.Int(2), true, 2},
		{"i", gcore.Int(99), true, 0},
		{"i", gcore.SetOf(gcore.Int(30)), true, 2}, // a singleton set stands for its element
		{"i", gcore.Float(2), false, 2},            // 2.0 = 2 across kinds
		{"i", gcore.Str("2"), false, 0},
		{"f", gcore.Float(2.5), true, 1},
		{"f", gcore.Float(0), true, 2}, // 0 and -0
		{"f", gcore.Float(math.Copysign(0, -1)), true, 2},
		{"f", gcore.Int(30), false, 1}, // 30.0 only: NaN equals no number
		{"f", nan, false, 2},           // value.Eq holds NaNs equal; == does not
		{"b", gcore.Bool(true), true, 3},
		{"d", value.Date(16072), true, 2},
		{"d", gcore.Int(16072), false, 0},
		{"s", gcore.Str("Acme"), true, 3},
		{"s", gcore.Str("never interned"), true, 0},
		{"s", gcore.Str(""), true, 1},
		{"m", gcore.Str("Acme"), true, 1}, // the {Acme, HAL} row is not = 'Acme'
		{"m", gcore.Bool(true), true, 1},
		{"m", value.Date(16072), true, 1},
		{"m", gcore.Int(2), false, 2}, // the int 2 and the float 2.0
		{"m", gcore.Float(2), false, 2},
		{"m", gcore.SetOf(gcore.Str("Acme"), gcore.Str("HAL")), false, 1}, // set = set is structural
		{"absent", gcore.Int(1), false, 0},
	} {
		for _, flipped := range []bool{false, true} {
			src := fmt.Sprintf(`SELECT n.i AS i, n.s AS s MATCH (n:T) ON kinds_graph WHERE n.%s = $c ORDER BY i, s`, c.key)
			if flipped {
				src = strings.Replace(src, fmt.Sprintf("n.%s = $c", c.key), fmt.Sprintf("$c = n.%s", c.key), 1)
			}
			params := map[string]gcore.Value{"c": c.val}
			eng := kindsEngine(t)
			res, err := evalParams(eng, src, params)
			if inlined, ierr := parser.InlineParams(src, params); ierr == nil {
				lit, lerr := kindsEngine(t).Eval(inlined)
				if got, want := renderResult(res, err), renderResult(lit, lerr); got != want {
					t.Errorf("%s = %v: diverged from the inlined literal\ngot:\n%s\nwant:\n%s", c.key, c.val, got, want)
					continue
				}
			}
			if err != nil {
				t.Errorf("%s = %v: %v", c.key, c.val, err)
				continue
			}
			if res.Table.Len() != c.rows {
				t.Errorf("%s = %v: %d rows, want %d", c.key, c.val, res.Table.Len(), c.rows)
			}
			m := eng.Metrics()
			if (m.PropIndexSeeks == 1) != c.seek {
				t.Errorf("%s = %v: prop_index_seeks = %d, want seek = %v", c.key, c.val, m.PropIndexSeeks, c.seek)
			}
			if scan := m.Operators["scan"]; c.seek && scan.RowsIn > int64(c.rows) {
				// Hash-keyed overflow runs may widen; none of these collide.
				t.Errorf("%s = %v: seek examined %d candidates for %d rows", c.key, c.val, scan.RowsIn, c.rows)
			} else if !c.seek && scan.RowsIn != 8 {
				t.Errorf("%s = %v: scan examined %d candidates, want the 8-node partition", c.key, c.val, scan.RowsIn)
			}
		}
	}
}

// TestSeekIndexLifetime: an index is built on a column's first seek
// and reused by every later one on the same snapshot. It lives as long
// as its snapshot: after any write, even one that leaves its column
// alone, the next seek builds it again on the new snapshot.
func TestSeekIndexLifetime(t *testing.T) {
	eng := kindsEngine(t)
	p, err := eng.Prepare(`SELECT n.s AS s MATCH (n:T) ON kinds_graph WHERE n.i = $i`)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(i int64, wantRows int) {
		t.Helper()
		res, err := p.Eval(map[string]gcore.Value{"i": gcore.Int(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Table.Len() != wantRows {
			t.Fatalf("i = %d: %d rows, want %d", i, res.Table.Len(), wantRows)
		}
	}
	expect := func(seeks, builds int64) {
		t.Helper()
		if m := eng.Metrics(); m.PropIndexSeeks != seeks || m.PropIndexBuilds != builds {
			t.Fatalf("seeks/builds = %d/%d, want %d/%d", m.PropIndexSeeks, m.PropIndexBuilds, seeks, builds)
		}
	}
	eval(2, 2)
	eval(30, 2)
	expect(2, 1)

	set := func(id gcore.NodeID, key string, v gcore.Value) {
		t.Helper()
		if err := eng.MutateGraph("kinds_graph", func(g *gcore.Graph) error {
			n, _ := g.Node(id)
			props := n.Props.Clone()
			props.Set(key, v)
			return g.SetNodeProps(id, props)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// An appended node rebuilds the snapshot, so column i is a new
	// column and the next seek builds its index anew, although the node
	// carries no i.
	if err := eng.MutateGraph("kinds_graph", func(g *gcore.Graph) error {
		return g.AddNode(&gcore.Node{ID: 9100, Labels: gcore.NewLabels("T"),
			Props: gcore.NewProperties(map[string]gcore.Value{"b": gcore.Bool(true)})})
	}); err != nil {
		t.Fatal(err)
	}
	eval(2, 2)
	expect(3, 2)
	set(9000, "i", gcore.Int(2)) // snapshot rebuilt: the next seek builds anew and sees the write
	eval(2, 3)
	eval(1, 0)
	expect(5, 3)
}

// TestPreparedConcurrentBindings: one cached statement executed from
// many goroutines with different bindings. The compiled constant lives
// on each execution's own conjuncts, never on the shared plan-cache
// entry, so every execution must answer for its own binding — checked
// against the inlined-literal evaluation — while all of them share one
// index build. Run under -race.
func TestPreparedConcurrentBindings(t *testing.T) {
	const src = `SELECT n.lastName AS last, n.firstName AS first MATCH (n:Person) WHERE n.firstName = $f AND n.lastName >= $lo ORDER BY last, first`
	eng := goldenSNB(t)
	social, _ := eng.Graph(eng.GraphNames()[0])
	seen := map[string]bool{}
	var names []string
	for _, id := range social.NodesWithLabel("Person") {
		n, _ := social.Node(id)
		if v, ok := n.Props.Get("firstName").Singleton(); ok {
			if s, _ := v.AsString(); !seen[s] {
				seen[s] = true
				names = append(names, s)
			}
		}
	}
	names = append(names, "Nobody")
	if len(names) < 8 {
		t.Fatalf("only %d distinct first names", len(names))
	}
	bind := func(i int) map[string]gcore.Value {
		return map[string]gcore.Value{"f": gcore.Str(names[i%len(names)]), "lo": gcore.Str(string(rune('A' + i%5)))}
	}
	oracle := goldenSNB(t)
	want := make([]string, 5*len(names))
	for i := range want {
		inlined, err := parser.InlineParams(src, bind(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderResult(evalParsed(oracle, inlined))
	}

	p, err := eng.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := w; i < len(want); i += goroutines {
					if got := renderResult(p.Eval(bind(i))); got != want[i] {
						t.Errorf("binding %v: got\n%s\nwant\n%s", bind(i), got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if m := eng.Metrics(); m.PropIndexBuilds != 1 || m.PropIndexSeeks != int64(3*len(want)) {
		t.Errorf("seeks/builds = %d/%d, want %d/1", m.PropIndexSeeks, m.PropIndexBuilds, 3*len(want))
	}
}

// TestParamErrorsUnchanged pins what compiling bound parameters must
// not move: the unbound-parameter error, and which of "filtered out" and
// "raised" wins when a WHERE mixes a parameter conjunct with one that
// raises. Conjuncts apply per row in WHERE order and a row stops at its
// first FALSE, so a raising conjunct AFTER the parameter conjunct only
// sees the rows that passed it, and one BEFORE it sees every row.
func TestParamErrorsUnchanged(t *testing.T) {
	const raises = `NOT n.firstName` // NOT of a string is a type error
	for _, c := range []struct {
		name, where string
		params      map[string]gcore.Value
		wantErr     string // "" = succeeds
	}{
		{"unbound", `n.firstName = $name`, nil, "unbound parameter $name"},
		{"unbound beside bound", `n.employer = $emp AND n.firstName = $name`,
			map[string]gcore.Value{"emp": gcore.Str("Acme")}, "unbound parameter $name"},
		{"param filters first, nobody left to raise", `n.firstName = $name AND ` + raises,
			map[string]gcore.Value{"name": gcore.Str("Nobody")}, ""},
		{"param filters first, a survivor raises", `n.firstName = $name AND ` + raises,
			map[string]gcore.Value{"name": gcore.Str("John")}, "NOT"},
		{"raising conjunct first", raises + ` AND n.firstName = $name`,
			map[string]gcore.Value{"name": gcore.Str("Nobody")}, "NOT"},
	} {
		src := `SELECT n.lastName AS l MATCH (n:Person) WHERE ` + c.where + ` ORDER BY l`
		res, err := evalParams(goldenTour(t), src, c.params)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error = %v, want one naming %q", c.name, err, c.wantErr)
		}
		got := renderResult(res, err)
		if inlined, ierr := parser.InlineParams(src, c.params); ierr == nil {
			litRes, litErr := goldenTour(t).Eval(inlined)
			if want := renderResult(litRes, litErr); got != want {
				t.Errorf("%s: diverged from the inlined literal\ngot:  %s\nwant: %s", c.name, got, want)
			}
		}
	}
}
