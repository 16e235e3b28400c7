package core

import (
	"fmt"
	"slices"
	"strings"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
	"gcore/internal/value"
)

// Sideways information passing between the conjunct patterns of one
// MATCH or OPTIONAL block. §A.2 evaluates `π1, π2` as ⟦π1⟧ ⋈ ⟦π2⟧: a
// row µ2 of ⟦π2⟧ joins only if, for every node variable x the patterns
// share, some row of ⟦π1⟧ binds x to µ2(x). Patterns run in textual
// order, so once pattern i has run its column of x is known, and a
// later pattern that binds x at a node position keeps only the nodes
// in that column — intersected over every earlier pattern binding x —
// instead of building rows the join would drop. The restriction is a
// set over the later chain's snapshot ordinals, handed down its chain
// as an argument (evalChainNamed), never as evalCtx state a nested
// evaluation could see; the node scan and the destination gate test it
// after every check of theirs.
//
// The joined table is unchanged, row order included: the join emits,
// per left row, the compatible right rows in their order, and a
// restriction removes only rows no left row is compatible with. What
// else fewer rows could change is kept out by refusing the restriction
// (sipVars):
//
//   - to a chain with a path step: a search draws a fresh path
//     identifier per walk it examines, so fewer input rows would draw
//     fewer;
//   - to a chain running any check that can raise — a {key = expr}
//     entry, or a WHERE conjunct the chain applies, that is not
//     raiseFree — since a row dropped early no longer reaches it;
//   - in an execution with an unbound parameter, the one operand that
//     makes a raiseFree expression raise.
//
// Only the binding budget and the row counts of EXPLAIN ANALYZE see
// the difference: a restricted chain builds fewer rows, so the budget
// trips later or not at all, never earlier.

// ordSet is a set of node ordinals of one snapshot, one bit each. The
// nil set holds every ordinal: an unrestricted position.
type ordSet []uint64

func newOrdSet(n int) ordSet { return make(ordSet, (n+63)>>6) }

func (s ordSet) add(u int32) { s[u>>6] |= 1 << (u & 63) }

func (s ordSet) has(u int32) bool { return s == nil || s[u>>6]&(1<<(u&63)) != 0 }

// and intersects s with o in place.
func (s ordSet) and(o ordSet) {
	for i := range s {
		s[i] &= o[i]
	}
}

// at is the restriction of node position k of a chain (nil: none).
func at(only []ordSet, k int) ordSet {
	if only == nil {
		return nil
	}
	return only[k]
}

// sipVar is a node variable of a later pattern that earlier patterns
// restrict: its name, and the indexes of the patterns binding it.
type sipVar struct {
	name string
	from []int
}

// sipVars lists, by name, the node variables of pattern j of lps that
// the patterns before it restrict, given the conjuncts still unapplied
// when it runs; nil when it takes no restriction. paramsBound tells
// whether every parameter of the statement has a value — EXPLAIN's
// static view counts them all as bound. The evaluator and EXPLAIN both
// call it before the pattern plans and claims its conjuncts.
func sipVars(ab Ablation, cs *CachedStatement, lps []*ast.LocatedPattern, j int, conjs []*conjunct, paramsBound bool) []sipVar {
	if j == 0 || !paramsBound {
		return nil
	}
	gp := lps[j].Pattern
	var out []sipVar
	for _, np := range gp.Nodes {
		if np.Var == "" || slices.ContainsFunc(out, func(sv sipVar) bool { return sv.name == np.Var }) {
			continue
		}
		var from []int
		for i, lp := range lps[:j] {
			if binds(lp.Pattern, np.Var) {
				from = append(from, i)
			}
		}
		if from != nil {
			out = append(out, sipVar{np.Var, from})
		}
	}
	if out == nil || !restrictable(ab, cs, gp, conjs) {
		return nil
	}
	slices.SortFunc(out, func(a, b sipVar) int { return strings.Compare(a.name, b.name) })
	return out
}

// restrictable reports whether a chain may take a restriction: it has
// no path step, and no check it runs can raise — neither a {key = expr}
// entry nor a WHERE conjunct it will apply (applyReady's test, against
// every variable the chain binds; a conjunct without variables is
// applied by the first chain).
func restrictable(ab Ablation, cs *CachedStatement, gp *ast.GraphPattern, conjs []*conjunct) bool {
	entriesFree := func(specs []*ast.PropSpec) bool {
		for _, ps := range specs {
			if ps.Mode == ast.PropFilter && !cs.exprs[ps.Expr].raiseFree {
				return false
			}
		}
		return true
	}
	for _, np := range gp.Nodes {
		if !entriesFree(np.Props) {
			return false
		}
	}
	for _, l := range gp.Links {
		ep, isEdge := l.(*ast.EdgePattern)
		if !isEdge || !entriesFree(ep.Props) {
			return false
		}
	}
	if ab.NoPushdown {
		return true
	}
	inChain := func(v string) bool { return binds(gp, v) }
	for _, cj := range conjs {
		if !cj.applied && cj.pushable && !cj.raiseFree && len(cj.vars) > 0 && allBound(cj.vars, inChain) {
			return false
		}
	}
	return true
}

// binds reports whether a chain binds v: at a position, by a {k = v}
// binding entry, or as a cost variable.
func binds(gp *ast.GraphPattern, v string) bool {
	found := false
	eachVar(gp, func(x string) { found = found || x == v })
	return found
}

// restrict builds the restriction of a chain over its snapshot: per
// node position, the ordinals its variable may take (nil: any). tables
// are the earlier patterns' binding tables.
func restrict(gp *ast.GraphPattern, vars []sipVar, tables []*bindings.Table, snap *csr.Snapshot) []ordSet {
	only := make([]ordSet, len(gp.Nodes))
	for _, sv := range vars {
		set := columnSet(tables[sv.from[0]], sv.name, snap)
		for _, i := range sv.from[1:] {
			set.and(columnSet(tables[i], sv.name, snap))
		}
		for k, np := range gp.Nodes {
			if np.Var == sv.name {
				only[k] = set
			}
		}
	}
	return only
}

// columnSet is the set of snapshot ordinals of the nodes t binds v to.
// Analysis makes v a node variable wherever it occurs, and every chain
// position binds its variable, so no row of t leaves v unbound.
func columnSet(t *bindings.Table, v string, snap *csr.Snapshot) ordSet {
	slot := t.SlotOf(v)
	set := newOrdSet(snap.NumNodes())
	for r := 0; r < t.Len(); r++ {
		if id, ok := nodeOf(t.RowAt(r)[slot]); ok {
			if u, ok := snap.Ord(id); ok {
				set.add(u)
			}
		}
	}
	return set
}

// sipLine renders a pattern's restriction for EXPLAIN: the variables
// grouped by the patterns restricting them, e.g. "m, n ⋉ pattern 1".
func sipLine(vars []sipVar) string {
	var groups [][]sipVar
next:
	for _, sv := range vars {
		for gi, g := range groups {
			if slices.Equal(g[0].from, sv.from) {
				groups[gi] = append(g, sv)
				continue next
			}
		}
		groups = append(groups, []sipVar{sv})
	}
	parts := make([]string, len(groups))
	for gi, g := range groups {
		names := make([]string, len(g))
		for k, sv := range g {
			names[k] = sv.name
		}
		pats := make([]string, len(g[0].from))
		for k, i := range g[0].from {
			pats[k] = fmt.Sprint(i + 1)
		}
		noun := "pattern"
		if len(pats) > 1 {
			noun = "patterns"
		}
		parts[gi] = fmt.Sprintf("%s ⋉ %s %s", strings.Join(names, ", "), noun, strings.Join(pats, ", "))
	}
	return strings.Join(parts, "; ")
}

// paramsBound reports whether every parameter of the statement has a
// value in this execution.
func (c *evalCtx) paramsBound() bool {
	return !slices.ContainsFunc(c.params, value.Value.IsAbsent)
}

// raiseFree reports whether evaluating x can never raise once the
// statement's parameters are bound; with truth, its value must also be
// one a filter accepts without a type error (TRUE, FALSE or null). It
// is conservative: literals, parameters, variables and property reads,
// label tests, the comparisons (which return FALSE rather than raise,
// propcols.go), and NOT, AND and OR over truth values; anything else —
// arithmetic, functions, subqueries — may raise.
func raiseFree(x ast.Expr, truth bool) bool {
	switch n := x.(type) {
	case *ast.Literal:
		k := n.Val.Kind()
		return !truth || k == value.KindBool || k == value.KindNull
	case *ast.Param, *ast.VarRef, *ast.PropAccess:
		return !truth
	case *ast.LabelTest:
		return true
	case *ast.Unary:
		return n.Op == ast.OpNot && raiseFree(n.X, true)
	case *ast.Binary:
		if _, ok := comparisons[n.Op]; ok {
			return raiseFree(n.L, false) && raiseFree(n.R, false)
		}
		if n.Op == ast.OpAnd || n.Op == ast.OpOr {
			return raiseFree(n.L, true) && raiseFree(n.R, true)
		}
	}
	return false
}
