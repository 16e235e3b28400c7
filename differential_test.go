package gcore_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gcore"
)

// Differential tests between the default engine's ways of running a
// statement: a snapshot built for every statement (evalRebuilt), the
// AST-level path that bypasses the plan cache (evalParsed), a session
// with every budget armed (evalGoverned), the canonical printed text
// (evalPrinted), the script interpreter (evalScripted) and all of the
// last three at once (evalComposed) must render the same goldens
// (golden_test.go) as Engine.Eval.

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

// snbQueries is the part of the SNB toy query set exercising the hot
// kernels: indexed scans, multi-hop joins, reachability, stored
// shortest paths and grouped construction.
func snbQueries() []string { return goldenSNBQueries[:6] }

// armedLimits returns l with every bound it leaves unset given room
// no golden reaches, so the governor meters every statement without
// tripping; the bounds a budget case sets stay as they are.
func armedLimits(l gcore.Limits) gcore.Limits {
	if l.MaxBindings == 0 {
		l.MaxBindings = 1 << 30
	}
	if l.MaxPathFrontier == 0 {
		l.MaxPathFrontier = 1 << 30
	}
	if l.MaxResultElements == 0 {
		l.MaxResultElements = 1 << 30
	}
	if l.Timeout == 0 {
		l.Timeout = time.Hour
	}
	return l
}

// armedSession opens a session on eng under armedLimits.
func armedSession(eng *gcore.Engine) *gcore.Session {
	s := eng.NewSession()
	s.SetLimits(armedLimits(eng.Limits()))
	return s
}

// evalGoverned evaluates src in a session with every budget armed: a
// metered evaluation that never trips renders what an unmetered one
// does.
func evalGoverned(eng *gcore.Engine, src string) (*gcore.Result, error) {
	return armedSession(eng).EvalContext(context.Background(), src)
}

// printed renders src in the canonical surface syntax of
// Statement.String; a statement that does not parse stays as it is.
func printed(src string) string {
	stmt, err := gcore.Parse(src)
	if err != nil {
		return src
	}
	return stmt.String()
}

// evalPrinted evaluates the canonical rendering of src: the printer's
// text means what the text it was parsed from means.
func evalPrinted(eng *gcore.Engine, src string) (*gcore.Result, error) {
	return eng.Eval(printed(src))
}

// scriptResult reduces a one-statement script's outcome to the
// statement's: its one result, or its error without the "statement 1
// at <pos>: " prefix the script adds.
func scriptResult(res []*gcore.Result, err error) (*gcore.Result, error) {
	if err != nil {
		if inner := errors.Unwrap(err); inner != nil && strings.HasPrefix(err.Error(), "statement 1 at ") {
			return nil, inner
		}
		return nil, err
	}
	if len(res) != 1 {
		return nil, fmt.Errorf("one-statement script returned %d results", len(res))
	}
	return res[0], nil
}

// evalScripted evaluates src as a one-statement script through the
// script interpreter, which parses and stages statements itself.
func evalScripted(eng *gcore.Engine, src string) (*gcore.Result, error) {
	return scriptResult(eng.EvalScript(src))
}

// evalComposed is evalPrinted, evalGoverned and evalScripted at once:
// the printed text, run as a script in a session with every budget
// armed.
func evalComposed(eng *gcore.Engine, src string) (*gcore.Result, error) {
	return scriptResult(armedSession(eng).EvalScriptContext(context.Background(), printed(src)))
}

// TestAblatedEnginesMatchGolden: the default engine renders every
// golden through each of its other ways to run a statement — building
// a snapshot for each statement, the uncached AST-level path (a fresh
// compile on every execution), a session with every budget armed, the
// printer's canonical text, the script interpreter, and the last three
// together. The row names residual, textual, interpreter and all are
// kept from the evaluator settings the rows once selected.
func TestAblatedEnginesMatchGolden(t *testing.T) {
	for _, v := range []struct {
		name string
		eval evalFunc
	}{
		{"residual", evalGoverned},
		{"textual", evalPrinted},
		{"interpreter", evalScripted},
		{"full-build", evalRebuilt},
		{"all", evalComposed},
		{"nocache", evalParsed},
	} {
		t.Run(v.name, func(t *testing.T) { checkGoldens(t, v.eval, false) })
	}
}
