package core

import (
	"math"

	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Column leaves. A comparison of the shape
//
//	x.key OP constant        or        constant OP x.key
//
// with OP one of = <> < <= > >= IN SUBSET, where a constant is a
// literal or a $name parameter, compiles (compile.go) into a colLeaf:
// it depends on nothing but one property of one bound element, so over
// a snapshot it is answered straight from the property columns
// (csr/props.go): presence bit, typed payload array, interned-string
// bound — no map probes, no property value built. The comparison
// operators of value/ops.go return FALSE for nulls and unordered kinds
// instead of raising, so a leaf whose constant is bound never raises,
// and a scan may test it on candidate ordinals before any row exists
// (prefilterConjuncts) without suppressing an error another conjunct
// would have raised. An unbound parameter is the one operand that
// raises ("unbound parameter $x"): such a leaf stays in the filter
// loop and raises on its first row.
//
// A leaf binds its snapshot and constant per env (or per scan), never
// on the compiled tree: concurrent executions of one plan-cache entry
// with different bindings each bind their own.
//
// Every answer the bound form produces is defined to be what the
// operators produce: typed fast paths exist only where the Go
// comparison provably agrees with value.Compare (same-kind payloads,
// non-NaN float constants), and everything else falls back first to
// the mirrored FSET(V) sets and ultimately to the generic property
// read (refs the snapshot does not know). TestExpressionOracle holds
// the column form to the literal §A.1 evaluator over the
// ppg.Properties maps, with the parameter bound to every value kind
// the columns type.

// colLeaf is the compiled column leaf.
type colLeaf struct {
	v, leaf  int          // the variable's id, the leaf's id
	key      string       // the property key
	op       ast.BinaryOp // Eq..Ge, In, Subset
	propLeft bool         // the property is the left operand
	k        evaluator    // the constant: a *litNode or a *paramNode
	cmp      func(a, b value.Value) value.Value
}

// constant returns the constant's value in one execution; ok is false
// for an unbound parameter.
func (l *colLeaf) constant(c *evalCtx) (v value.Value, ok bool) {
	if p, isParam := l.k.(*paramNode); isParam {
		v = c.params[p.id]
		return v, !v.IsAbsent()
	}
	return l.k.(*litNode).Val, true
}

func (l *colLeaf) eval(e *env) (value.Value, error) {
	lit, ok := l.constant(e.c)
	if !ok {
		return l.k.eval(e) // raises
	}
	ref, bound := e.value(l.v)
	if snap := e.fast(); snap != nil {
		lb := e.leaf(l.leaf)
		if lb.col == nil {
			lb.col = l.bind(snap, lit)
		}
		if pass, handled := lb.col.evalRef(ref, bound); handled {
			e.colHits++
			return value.Bool(pass), nil
		}
		e.colFalls++
	}
	prop := value.Null
	if bound && ref.IsRef() {
		prop = e.lookupProp(ref, l.key)
	}
	return value.Bool(l.apply(prop, lit)), nil
}

// apply evaluates the comparison on a property value through the exact
// value/ops.go operator — the generic, always-correct path.
func (l *colLeaf) apply(prop, lit value.Value) bool {
	a, b := prop, lit
	if !l.propLeft {
		a, b = lit, prop
	}
	ok, _ := l.cmp(a, b).AsBool()
	return ok
}

// colBind is a leaf bound to one snapshot and constant.
type colBind struct {
	l          *colLeaf
	lit        value.Value
	snap       *csr.Snapshot
	node, edge colEval
	// absentKeep is the leaf's value when the property resolves to the
	// empty set (absent property, unbound or non-ref variable): FALSE
	// for every comparison and IN, but TRUE for `x.k SUBSET s` (the
	// empty set is a subset of everything) — absent rows are KEPT by
	// such a filter, which is why this is computed rather than assumed
	// false.
	absentKeep bool
}

// colEval is one side (node or edge) of a bound leaf: the key's column
// and, when the column's typed array and the constant's kind line up, a
// specialised test over the payloads.
type colEval struct {
	col  *csr.PropCol
	fast func(ord int32) bool
}

func (l *colLeaf) bind(snap *csr.Snapshot, lit value.Value) *colBind {
	b := &colBind{l: l, lit: lit, snap: snap, absentKeep: l.apply(value.EmptySet, lit)}
	b.node.col = snap.NodeCol(l.key)
	b.edge.col = snap.EdgeCol(l.key)
	b.node.fast = typedEval(snap, b.node.col, l, lit)
	b.edge.fast = typedEval(snap, b.edge.col, l, lit)
	return b
}

func (ce *colEval) test(ord int32, b *colBind) bool {
	if ce.col == nil || !ce.col.Present(ord) {
		return b.absentKeep
	}
	if ce.fast != nil {
		return ce.fast(ord)
	}
	return b.l.apply(ce.col.SetAt(ord), b.lit)
}

// evalRef answers the leaf for one row value of the variable. handled
// is false when the value is a ref the snapshot does not know (another
// graph's element, a path): the caller falls back to the generic read,
// which searches all graphs in scope. Unbound and non-ref values
// resolve the property access to Null, which for every leaf operator
// behaves exactly like the empty set.
func (b *colBind) evalRef(v value.Value, bound bool) (pass, handled bool) {
	if !bound || !v.IsRef() {
		return b.absentKeep, true
	}
	id, _ := v.RefID()
	switch v.Kind() {
	case value.KindNode:
		if u, ok := b.snap.Ord(ppg.NodeID(id)); ok {
			return b.node.test(u, b), true
		}
	case value.KindEdge:
		if e, ok := b.snap.EdgeOrd(ppg.EdgeID(id)); ok {
			return b.edge.test(e, b), true
		}
	}
	return false, false
}

// typedEval compiles the predicate against a column's typed payload
// array, or nil when only the generic set path is safe. The rules are
// deliberately narrow — the typed comparison must agree with
// value.Compare on every input:
//
//   - the literal's (scalarized) kind must equal the column kind
//     exactly; cross-kind numeric comparisons go through value ops,
//   - a NaN float literal goes through value ops (value.Compare sorts
//     NaNs before everything and equal to each other, which `<` on
//     float64 does not),
//   - IN and SUBSET always use the set mirrors.
func typedEval(snap *csr.Snapshot, col *csr.PropCol, l *colLeaf, lit value.Value) func(int32) bool {
	if col == nil || col.Kind() == csr.ColOverflow {
		return nil
	}
	// Normalise to "prop OP lit" by flipping the comparison when the
	// property is the right operand; IN and SUBSET are not symmetric.
	op := l.op
	if op == ast.OpIn || op == ast.OpSubset {
		return nil
	}
	if !l.propLeft {
		switch op {
		case ast.OpLt:
			op = ast.OpGt
		case ast.OpLe:
			op = ast.OpGe
		case ast.OpGt:
			op = ast.OpLt
		case ast.OpGe:
			op = ast.OpLe
		}
	}
	lit = lit.Scalarize()
	switch col.Kind() {
	case csr.ColInt:
		l, ok := lit.AsInt()
		if !ok {
			return nil
		}
		return intEval(col.Ints(), op, l)
	case csr.ColDate:
		l, ok := lit.AsDateDays()
		if !ok {
			return nil
		}
		return intEval(col.Ints(), op, l)
	case csr.ColFloat:
		if lit.Kind() != value.KindFloat {
			return nil
		}
		l, _ := lit.AsFloat()
		if math.IsNaN(l) {
			return nil
		}
		return floatEval(col.Floats(), op, l)
	case csr.ColString:
		l, ok := lit.AsString()
		if !ok {
			return nil
		}
		return stringEval(col.StrIDs(), snap.Strings(), op, l)
	case csr.ColBool:
		l, ok := lit.AsBool()
		if !ok {
			return nil
		}
		return boolEval(col, op, l)
	}
	return nil
}

func intEval(vals []int64, op ast.BinaryOp, l int64) func(int32) bool {
	switch op {
	case ast.OpEq:
		return func(o int32) bool { return vals[o] == l }
	case ast.OpNeq:
		return func(o int32) bool { return vals[o] != l }
	case ast.OpLt:
		return func(o int32) bool { return vals[o] < l }
	case ast.OpLe:
		return func(o int32) bool { return vals[o] <= l }
	case ast.OpGt:
		return func(o int32) bool { return vals[o] > l }
	case ast.OpGe:
		return func(o int32) bool { return vals[o] >= l }
	}
	return nil
}

// floatEval mirrors value.Compare's NaN ordering: a NaN payload sorts
// before every non-NaN literal, so it satisfies < and <= but never >,
// >= or =.
func floatEval(vals []float64, op ast.BinaryOp, l float64) func(int32) bool {
	switch op {
	case ast.OpEq:
		return func(o int32) bool { return vals[o] == l }
	case ast.OpNeq:
		return func(o int32) bool { return vals[o] != l }
	case ast.OpLt:
		return func(o int32) bool { return vals[o] < l || math.IsNaN(vals[o]) }
	case ast.OpLe:
		return func(o int32) bool { return vals[o] <= l || math.IsNaN(vals[o]) }
	case ast.OpGt:
		return func(o int32) bool { return vals[o] > l }
	case ast.OpGe:
		return func(o int32) bool { return vals[o] >= l }
	}
	return nil
}

// stringEval compares interned identifiers against the literal's
// position in the sorted string table: identifier order is
// lexicographic order, so every comparison is one or two integer
// tests.
func stringEval(ids []int32, in *csr.Interner, op ast.BinaryOp, l string) func(int32) bool {
	switch op {
	case ast.OpEq:
		id, ok := in.Lookup(l)
		if !ok {
			return func(int32) bool { return false }
		}
		return func(o int32) bool { return ids[o] == id }
	case ast.OpNeq:
		id, ok := in.Lookup(l)
		if !ok {
			return func(int32) bool { return true }
		}
		return func(o int32) bool { return ids[o] != id }
	}
	pos, exact := in.Bound(l)
	switch op {
	case ast.OpLt:
		return func(o int32) bool { return ids[o] < pos }
	case ast.OpLe:
		// ids[o] <= pos when the literal itself is interned, else the
		// string at pos already exceeds the literal.
		hi := pos
		if !exact {
			hi = pos - 1
		}
		return func(o int32) bool { return ids[o] <= hi }
	case ast.OpGt:
		lo := pos
		if exact {
			lo = pos + 1
		}
		return func(o int32) bool { return ids[o] >= lo }
	case ast.OpGe:
		return func(o int32) bool { return ids[o] >= pos }
	}
	return nil
}

func boolEval(col *csr.PropCol, op ast.BinaryOp, l bool) func(int32) bool {
	// FALSE < TRUE, per value.Compare.
	switch op {
	case ast.OpEq:
		return func(o int32) bool { return col.BoolAt(o) == l }
	case ast.OpNeq:
		return func(o int32) bool { return col.BoolAt(o) != l }
	case ast.OpLt:
		return func(o int32) bool { return !col.BoolAt(o) && l }
	case ast.OpLe:
		return func(o int32) bool { return !col.BoolAt(o) || l }
	case ast.OpGt:
		return func(o int32) bool { return col.BoolAt(o) && !l }
	case ast.OpGe:
		return func(o int32) bool { return col.BoolAt(o) || !l }
	}
	return nil
}

// prefilterConjuncts selects the WHERE conjuncts that may be evaluated
// directly on the ordinal of the node varName binds, before any row
// carrying it is materialised — by a node scan on its candidates, by a
// path step on its destinations — with their column leaves. usable says
// whether a leaf's constant is bound: the execution's bindings, or
// EXPLAIN's static view, where every parameter counts as bound. schema
// reports the variables bound once the step's rows exist. Consuming a
// conjunct there is safe only when no evaluation the filter loop would
// have run EARLIER on a dropped row can raise an error; the gates are
// therefore:
//
//   - the pattern has no {key = expr} filter specs (their expressions
//     are evaluated per candidate and may error),
//   - walking the conjuncts that the applyReady after the step would
//     find ready, in order: usable leaves on varName alone are
//     selected, other usable leaves and label tests (both error-free)
//     are left to applyReady, and the first conjunct that may error
//     stops the walk — nothing after it pre-filters.
func prefilterConjuncts(np *ast.NodePattern, varName string, schema func(string) bool, conjs []*conjunct, usable func(*colLeaf) bool) (picked []*conjunct, leaves []*colLeaf) {
	if len(conjs) == 0 {
		return nil, nil
	}
	for _, ps := range np.Props {
		if ps.Mode == ast.PropFilter {
			return nil, nil
		}
	}
	for _, cj := range conjs {
		if cj.applied || !cj.pushable || !allBound(cj.vars, schema) {
			// Not evaluated at this step at all — irrelevant to the
			// per-row evaluation order here.
			continue
		}
		if _, isLabel := cj.ev.(*labelNode); isLabel {
			continue // error-free; commutes with the prefilter
		}
		l, isLeaf := cj.ev.(*colLeaf)
		if !isLeaf || !usable(l) {
			break // may error: nothing after it may filter earlier
		}
		if cj.vars[0] == varName {
			picked = append(picked, cj)
			leaves = append(leaves, l)
		}
		// Leaves on other variables are error-free too; leave them to
		// applyReady and keep walking.
	}
	return picked, leaves
}

func allBound(vars []string, schema func(string) bool) bool {
	for _, v := range vars {
		if !schema(v) {
			return false
		}
	}
	return true
}

// shapeOnly is the planner's and EXPLAIN's view of a leaf: the shape
// alone, every parameter counting as bound.
func shapeOnly(*colLeaf) bool { return true }

// prefilterPreds binds the prefilter conjuncts of varName's node to the
// snapshot and marks them applied.
func (c *evalCtx) prefilterPreds(snap *csr.Snapshot, np *ast.NodePattern, varName string, schema func(string) bool, conjs []*conjunct) []*colBind {
	bound := func(l *colLeaf) bool { _, ok := l.constant(c); return ok }
	picked, leaves := prefilterConjuncts(np, varName, schema, conjs, bound)
	binds := make([]*colBind, len(leaves))
	for i, l := range leaves {
		lit, _ := l.constant(c)
		binds[i] = l.bind(snap, lit)
		picked[i].applied = true
	}
	return binds
}

// seekCandidates narrows a node scan through the columns' equality
// indexes: among the prefilter's `=` leaves it returns the shortest
// posting list and that leaf's property key, or ok=false when no leaf
// can seek (csr.PropCol.SeekEq decides, from the column and constant
// kinds alone); builds counts the indexes this call had to build.
// Postings are a superset of the ordinals the leaf accepts, ascending
// like the label partitions, so a scan that takes them as its
// candidates and still applies every test emits exactly the rows, in
// exactly the order, of the scan it replaces.
func seekCandidates(snap *csr.Snapshot, binds []*colBind) (ords []int32, key string, builds int64, ok bool) {
	for _, b := range binds {
		if b.l.op != ast.OpEq || b.node.col == nil {
			continue
		}
		post, built, seekable := b.node.col.SeekEq(b.lit, snap.Strings())
		if built {
			builds++
		}
		if seekable && (!ok || len(post) < len(ords)) {
			ords, key, ok = post, b.l.key, true
		}
	}
	return ords, key, builds, ok
}
