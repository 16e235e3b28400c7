package core

import (
	"gcore/internal/bindings"
	"gcore/internal/faultinject"
	"gcore/internal/obs"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Predicate pushdown. The WHERE condition of a MATCH clause is a
// filter over the binding table (§A.2) — its value on a row depends
// only on the variables it mentions. The compiler splits the condition
// into AND-conjuncts (compile.go), and the evaluator applies each
// *pure* conjunct as soon as every variable it mentions is bound,
// typically right after a node scan and before expensive path searches.
// Conjuncts containing subqueries (EXISTS, pattern predicates) or whose
// variables never become bound are applied at the original point, so
// results are identical to the naïve evaluation. Either way a conjunct
// runs through the one filter loop below.

// applyReady filters tbl by every pushable, not-yet-applied conjunct
// whose variables are all in the table schema.
func (c *evalCtx) applyReady(conjs []*conjunct, tbl *bindings.Table, g *ppg.Graph) (*bindings.Table, error) {
	if len(conjs) == 0 {
		return tbl, nil
	}
	var ready []*conjunct
	for _, cj := range conjs {
		if !cj.applied && cj.pushable && allBound(cj.vars, tbl.HasVar) {
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
	out, err := c.filter(c.newEnv(nil, []*ppg.Graph{g}, g), ready, tbl)
	if err != nil {
		sp.Fail()
		return nil, err
	}
	sp.Rows(int64(tbl.Len()), int64(out.Len())).End()
	return out, nil
}

// residualFilter applies the conjuncts no chain consumed with the full
// environment (subqueries, cross-graph lookups), under a span labelled
// label — only when some remain, matching the one "residual filter" or
// "block filter" line EXPLAIN prints in that case.
func (c *evalCtx) residualFilter(label string, conjs []*conjunct, tbl *bindings.Table, env *env) (*bindings.Table, error) {
	var rest []*conjunct
	for _, cj := range conjs {
		if !cj.applied {
			rest = append(rest, cj)
		}
	}
	if len(rest) == 0 {
		return tbl, nil
	}
	sp := c.col.Start(obs.OpResidual)
	if sp.Verbose() {
		sp.SetLabel(label)
	}
	out, err := c.filter(env, rest, tbl)
	if err != nil {
		sp.Fail()
		return nil, err
	}
	sp.Rows(int64(tbl.Len()), int64(out.Len())).End()
	return out, nil
}

// filter keeps the rows of tbl on which every conjunct holds, marking
// the conjuncts applied. Per row the conjuncts run in WHERE order and
// the row stops at its first FALSE; the first error fails the filter.
func (c *evalCtx) filter(env *env, conjs []*conjunct, tbl *bindings.Table) (*bindings.Table, error) {
	env.setTable(tbl)
	defer func() {
		c.col.PropColEvent(env.colHits, env.colFalls)
		env.colHits, env.colFalls = 0, 0
	}()
	var keep []int
next:
	for ri := 0; ri < tbl.Len(); ri++ {
		if ri&(checkStride-1) == 0 {
			if err := c.gov.Checkpoint(faultinject.SiteCoreFilter); err != nil {
				return nil, err
			}
		}
		env.rowIdx = ri
		for _, cj := range conjs {
			v, err := cj.eval(env)
			ok := false
			if err == nil {
				ok, err = value.Truth(v)
			}
			if err != nil {
				return nil, err
			}
			if !ok {
				continue next
			}
		}
		keep = append(keep, ri)
	}
	for _, cj := range conjs {
		cj.applied = true
	}
	return tbl.Pick(keep), nil
}
