package core

import (
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/faultinject"
	"gcore/internal/obs"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Predicate pushdown. The WHERE condition of a MATCH clause is a
// filter over the binding table (§A.2) — its value on a row depends
// only on the variables it mentions. The evaluator therefore splits
// the condition into AND-conjuncts and applies each *pure* conjunct
// as soon as every variable it mentions is bound, typically right
// after a node scan and before expensive path searches. Conjuncts
// containing subqueries (EXISTS, pattern predicates) or whose
// variables never become bound are applied at the original point, so
// results are identical to the naïve evaluation.

// conjunct is one AND-factor of a WHERE condition.
type conjunct struct {
	expr     ast.Expr
	vars     []string // sorted free variables
	pushable bool     // no subqueries: safe to evaluate early
	applied  bool

	// Compiled columnar form (propcols.go), cached on first attempt.
	col      *colPred
	colTried bool
}

// prepareConjuncts splits a WHERE expression.
func prepareConjuncts(e ast.Expr) []*conjunct {
	var parts []ast.Expr
	var split func(x ast.Expr)
	split = func(x ast.Expr) {
		if b, ok := x.(*ast.Binary); ok && b.Op == ast.OpAnd {
			split(b.L)
			split(b.R)
			return
		}
		parts = append(parts, x)
	}
	if e != nil {
		split(e)
	}
	out := make([]*conjunct, len(parts))
	for i, p := range parts {
		vars := map[string]bool{}
		pushable := collectExprVars(p, vars)
		vs := make([]string, 0, len(vars))
		for v := range vars {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		out[i] = &conjunct{expr: p, vars: vs, pushable: pushable}
	}
	return out
}

// prepareConjunctsCached is prepareConjuncts through the statement
// cache: the AND-split and free-variable analysis depend only on the
// AST, so a cached statement computes them once and every execution
// just clones fresh conjuncts around the shared skeleton (their
// applied/columnar fields are per-execution state).
func (c *evalCtx) prepareConjunctsCached(e ast.Expr) []*conjunct {
	if c.cached == nil || e == nil {
		return prepareConjuncts(e)
	}
	protos, ok := c.cached.conjuncts(e)
	if !ok {
		conjs := prepareConjuncts(e)
		protos = make([]conjunctProto, len(conjs))
		for i, cj := range conjs {
			protos[i] = conjunctProto{expr: cj.expr, vars: cj.vars, pushable: cj.pushable}
		}
		c.cached.storeConjuncts(e, protos)
		return conjs
	}
	out := make([]*conjunct, len(protos))
	for i := range protos {
		p := &protos[i]
		out[i] = &conjunct{expr: p.expr, vars: p.vars, pushable: p.pushable}
	}
	return out
}

// collectExprVars gathers the free variables of an expression and
// reports whether it is pushable (free of subqueries).
func collectExprVars(e ast.Expr, into map[string]bool) bool {
	switch x := e.(type) {
	case nil, *ast.Literal:
		return true
	case *ast.Param:
		// A parameter is a per-execution constant: no free variables,
		// and safe to push down (resolved from the context's bindings).
		return true
	case *ast.VarRef:
		into[x.Name] = true
		return true
	case *ast.PropAccess:
		into[x.Var] = true
		return true
	case *ast.LabelTest:
		into[x.Var] = true
		return true
	case *ast.Unary:
		return collectExprVars(x.X, into)
	case *ast.Binary:
		l := collectExprVars(x.L, into)
		r := collectExprVars(x.R, into)
		return l && r
	case *ast.FuncCall:
		ok := true
		for _, a := range x.Args {
			if !collectExprVars(a, into) {
				ok = false
			}
		}
		if _, isAgg := aggName(x.Name); isAgg || x.Star {
			ok = false // aggregates need the group context
		}
		return ok
	case *ast.Index:
		b := collectExprVars(x.Base, into)
		i := collectExprVars(x.Idx, into)
		return b && i
	case *ast.Case:
		ok := collectExprVars(x.Operand, into)
		for _, w := range x.Whens {
			if !collectExprVars(w.Cond, into) {
				ok = false
			}
			if !collectExprVars(w.Then, into) {
				ok = false
			}
		}
		if !collectExprVars(x.Else, into) {
			ok = false
		}
		return ok
	case *ast.Exists:
		// Correlated variables are not statically known; never push.
		return false
	case *ast.PatternPred:
		return false
	}
	return false
}

// applyReady filters tbl by every pushable, not-yet-applied conjunct
// whose variables are all in the table schema.
func (c *evalCtx) applyReady(conjs []*conjunct, tbl *bindings.Table, g *ppg.Graph) (*bindings.Table, error) {
	if len(conjs) == 0 || c.ev.ablation.NoPushdown {
		return tbl, nil
	}
	var ready []*conjunct
	for _, cj := range conjs {
		if cj.applied || !cj.pushable {
			continue
		}
		ok := true
		for _, v := range cj.vars {
			if !tbl.HasVar(v) {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, cj)
		}
	}
	if len(ready) == 0 {
		return tbl, nil
	}
	// The filter span nests inside the enclosing scan/expand span (the
	// plan prints pushed conjuncts as a suffix of the step line); it
	// exists so the metrics registry can price pushdown separately.
	sp := c.col.Start(obs.OpFilter)
	if sp.Verbose() {
		sp.SetLabel("pushdown filter")
	}
	rowsIn := int64(tbl.Len())
	// Label tests (x:A|B) over the pattern graph short-circuit to an
	// interned-label probe on the CSR snapshot, and compilable
	// property comparisons (propcols.go) to a columnar test; every
	// other conjunct — and any ref the snapshot does not know — goes
	// through the interpreter as before.
	snap := c.snapOf(g)
	type labelFast struct {
		v    string
		lids []int32
	}
	type accel struct {
		label *labelFast
		pred  *boundPred
		slot  int
	}
	accels := make([]accel, len(ready))
	for i, cj := range ready {
		if lt, ok := cj.expr.(*ast.LabelTest); ok {
			lids := make([]int32, len(lt.Labels))
			for j, l := range lt.Labels {
				lids[j] = snap.LabelID(l)
			}
			accels[i] = accel{label: &labelFast{v: lt.Var, lids: lids}, slot: tbl.SlotOf(lt.Var)}
			continue
		}
		if !c.ev.ablation.NoPropColumns {
			if p := cj.colPred(c.params); p != nil {
				accels[i] = accel{pred: bindColPred(snap, p), slot: tbl.SlotOf(p.v)}
			}
		}
	}
	slotVal := func(ri, slot int) (value.Value, bool) {
		if slot < 0 {
			return value.Null, false
		}
		v := tbl.RowAt(ri)[slot]
		if v.IsAbsent() {
			return value.Null, false
		}
		return v, true
	}
	env := c.newEnv(nil, []*ppg.Graph{g}, g)
	env.rowTab = tbl
	var keep []int
	var colHits, colFalls int64
	defer func() { c.col.PropColEvent(colHits, colFalls) }()
next:
	for ri := 0; ri < tbl.Len(); ri++ {
		if ri&(checkStride-1) == 0 {
			if err := c.gov.Checkpoint(faultinject.SiteCoreFilter); err != nil {
				sp.Fail()
				return nil, err
			}
		}
		env.rowIdx = ri
		for i, cj := range ready {
			if f := accels[i].label; f != nil {
				v, bound := slotVal(ri, accels[i].slot)
				if pass, handled := labelTestFast(snap, f.lids, v, bound); handled {
					if !pass {
						continue next
					}
					continue
				}
			} else if bp := accels[i].pred; bp != nil {
				v, bound := slotVal(ri, accels[i].slot)
				if pass, handled := bp.evalRef(v, bound); handled {
					colHits++
					if !pass {
						continue next
					}
					continue
				}
				colFalls++
			}
			v, err := env.eval(cj.expr)
			ok := false
			if err == nil {
				ok, err = value.Truth(v)
			}
			if err != nil {
				sp.Fail()
				return nil, err
			}
			if !ok {
				continue next
			}
		}
		keep = append(keep, ri)
	}
	out := tbl.Pick(keep)
	for _, cj := range ready {
		cj.applied = true
	}
	sp.Rows(rowsIn, int64(out.Len())).End()
	return out, nil
}

// residualFilter applies the remaining conjuncts with the full
// environment (subqueries, cross-graph lookups).
func (c *evalCtx) residualFilter(conjs []*conjunct, tbl *bindings.Table, env *env) (*bindings.Table, error) {
	var rest []*conjunct
	for _, cj := range conjs {
		if !cj.applied {
			rest = append(rest, cj)
		}
	}
	if len(rest) == 0 {
		return tbl, nil
	}
	// Compilable conjuncts land here when pushdown is disabled or
	// their variables never became bound mid-chain; they still answer
	// from the columns of the first match graph when the ref is there
	// (constructed graphs and scope graphs are consulted by the
	// interpreter first and later respectively, so a column hit on
	// graphs[0] resolves exactly like the interpreter's walk).
	preds := make([]*boundPred, len(rest))
	slots := make([]int, len(rest))
	if !c.ev.ablation.NoPropColumns && env.constructed == nil && len(env.graphs) > 0 {
		snap := c.snapOf(env.graphs[0])
		for i, cj := range rest {
			if p := cj.colPred(c.params); p != nil {
				preds[i] = bindColPred(snap, p)
				slots[i] = tbl.SlotOf(p.v)
			}
		}
	}
	env.rowTab = tbl
	defer func() { env.rowTab = nil }()
	var keep []int
	var colHits, colFalls int64
	defer func() { c.col.PropColEvent(colHits, colFalls) }()
rows:
	for i := 0; i < tbl.Len(); i++ {
		if i&(checkStride-1) == 0 {
			if err := c.gov.Checkpoint(faultinject.SiteCoreFilter); err != nil {
				return nil, err
			}
		}
		env.rowIdx = i
		for j, cj := range rest {
			if bp := preds[j]; bp != nil {
				var v value.Value
				bound := false
				if s := slots[j]; s >= 0 {
					v = tbl.RowAt(i)[s]
					if bound = !v.IsAbsent(); !bound {
						v = value.Null
					}
				}
				if pass, handled := bp.evalRef(v, bound); handled {
					colHits++
					if !pass {
						continue rows
					}
					continue
				}
				colFalls++
			}
			v, err := env.eval(cj.expr)
			if err != nil {
				return nil, err
			}
			ok, err := value.Truth(v)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		keep = append(keep, i)
	}
	return tbl.Pick(keep), nil
}
