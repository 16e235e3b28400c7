package core

import (
	"math"

	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Columnar predicate compilation. A WHERE conjunct of the shape
//
//	x.key OP constant        or        constant OP x.key
//
// with OP one of = <> < <= > >= IN SUBSET, where a constant is a
// literal or a $name parameter the execution binds, depends on nothing
// but one property of one bound element, so it can be answered straight
// from the snapshot's property columns (csr/props.go): presence bit,
// typed payload array, interned-string bound — no environment, no map
// probes, no per-row evaluation tree walk. The compiled form is
// error-free by construction (the comparison operators of value/ops.go
// return FALSE for nulls and unordered kinds instead of raising), so
// replacing the interpreter evaluation of such a conjunct can never
// change error behaviour, and pre-filtering scan candidates with a
// prefix of error-free conjuncts can never suppress an error another
// conjunct would have raised. A parameter the execution does NOT bind
// is the one operand that raises ("unbound parameter $x"): such a
// conjunct does not compile and reaches the interpreter where it
// always did.
//
// The compiled form carries the bound value, so it lives on the
// per-execution conjunct clone (prepareConjunctsCached) and never on
// the cached statement: concurrent executions of one plan-cache entry
// with different bindings each compile their own.
//
// Every answer the compiled form produces is defined to be what the
// interpreter produces: typed fast paths exist only where the Go
// comparison provably agrees with value.Compare (same-kind payloads,
// non-NaN float constants), and everything else falls back first to the
// mirrored FSET(V) sets and ultimately to the interpreter itself (refs
// the snapshot does not know). The golden suite and FuzzPropColumns
// enforce the equivalence against Ablation.NoPropColumns, under which
// pushdown filters, residual filters and property lookups fall back to
// the row-at-a-time ppg.Properties map reads and node scans never seek
// the columns' value indexes (snapshots still build their columns: the
// ablation gates use, not construction).

// colPred is the compiled, snapshot-independent form of one conjunct.
type colPred struct {
	v        string       // the single free variable
	key      string       // the property key
	op       ast.BinaryOp // Eq..Ge, In, Subset
	propLeft bool         // the property is the left operand
	lit      value.Value  // the constant operand: a literal or a bound parameter's value
	// absentKeep is the conjunct's value when the property resolves to
	// the empty set (absent property, unbound or non-ref variable):
	// FALSE for every comparison and IN, but TRUE for `x.k SUBSET s`
	// (the empty set is a subset of everything) — absent rows are KEPT
	// by such a filter, which is why this is precomputed rather than
	// assumed false.
	absentKeep bool
}

// compileColPred recognises the compilable conjunct shape, or nil.
// params are the execution's bindings; static is EXPLAIN's view, which
// has no bindings and asks only about the shape — every parameter then
// counts as bound (to Null, never evaluated).
func compileColPred(e ast.Expr, params map[string]value.Value, static bool) *colPred {
	b, ok := e.(*ast.Binary)
	if !ok {
		return nil
	}
	switch b.Op {
	case ast.OpEq, ast.OpNeq, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe, ast.OpIn, ast.OpSubset:
	default:
		return nil
	}
	constant := func(x ast.Expr) (value.Value, bool) {
		switch c := x.(type) {
		case *ast.Literal:
			return c.Val, true
		case *ast.Param:
			if static {
				return value.Null, true
			}
			v, bound := params[c.Name]
			return v, bound
		}
		return value.Null, false
	}
	if pa, ok := b.L.(*ast.PropAccess); ok {
		if v, ok := constant(b.R); ok {
			return newColPred(pa, b.Op, v, true)
		}
		return nil
	}
	if pa, ok := b.R.(*ast.PropAccess); ok {
		if v, ok := constant(b.L); ok {
			return newColPred(pa, b.Op, v, false)
		}
	}
	return nil
}

func newColPred(pa *ast.PropAccess, op ast.BinaryOp, lit value.Value, propLeft bool) *colPred {
	p := &colPred{v: pa.Var, key: pa.Key, op: op, propLeft: propLeft, lit: lit}
	p.absentKeep = p.apply(value.EmptySet)
	return p
}

// apply evaluates the conjunct on a property value through the exact
// value/ops.go operators — the generic, always-correct path. The
// comparison operators, IN and SUBSET never return an error and always
// yield a boolean.
func (p *colPred) apply(prop value.Value) bool {
	a, b := prop, p.lit
	if !p.propLeft {
		a, b = p.lit, prop
	}
	var res value.Value
	switch p.op {
	case ast.OpEq:
		res = value.Eq(a, b)
	case ast.OpNeq:
		res = value.Neq(a, b)
	case ast.OpLt:
		res = value.Lt(a, b)
	case ast.OpLe:
		res = value.Le(a, b)
	case ast.OpGt:
		res = value.Gt(a, b)
	case ast.OpGe:
		res = value.Ge(a, b)
	case ast.OpIn:
		res = value.In(a, b)
	case ast.OpSubset:
		res = value.Subset(a, b)
	}
	ok, _ := res.AsBool()
	return ok
}

// colPred returns the conjunct's compiled form under the execution's
// parameter bindings, caching the (possibly nil) result after the first
// attempt — a conjunct belongs to one execution, whose bindings are
// fixed.
func (cj *conjunct) colPred(params map[string]value.Value) *colPred {
	if !cj.colTried {
		cj.colTried = true
		cj.col = compileColPred(cj.expr, params, false)
	}
	return cj.col
}

// colEval is one side (node or edge) of a predicate bound to a
// snapshot: the key's column and, when the column's typed array and
// the literal's kind line up, a specialised test over the payloads.
type colEval struct {
	col  *csr.PropCol
	fast func(ord int32) bool
}

func (ce *colEval) test(ord int32, p *colPred) bool {
	if ce.col == nil || !ce.col.Present(ord) {
		return p.absentKeep
	}
	if ce.fast != nil {
		return ce.fast(ord)
	}
	return p.apply(ce.col.SetAt(ord))
}

// boundPred is a colPred bound to one snapshot.
type boundPred struct {
	p    *colPred
	snap *csr.Snapshot
	node colEval
	edge colEval
}

func bindColPred(snap *csr.Snapshot, p *colPred) *boundPred {
	bp := &boundPred{p: p, snap: snap}
	bp.node.col = snap.NodeCol(p.key)
	bp.edge.col = snap.EdgeCol(p.key)
	bp.node.fast = typedEval(snap, bp.node.col, p)
	bp.edge.fast = typedEval(snap, bp.edge.col, p)
	return bp
}

// evalRef answers the conjunct for one row value of the variable.
// handled is false when the value is a ref the snapshot does not know
// (another graph's element, a path): the caller falls back to the
// interpreter, which searches all graphs in scope. Unbound and
// non-ref values resolve the property access to Null, which for every
// compilable operator behaves exactly like the empty set.
func (bp *boundPred) evalRef(v value.Value, bound bool) (pass, handled bool) {
	if !bound || !v.IsRef() {
		return bp.p.absentKeep, true
	}
	id, _ := v.RefID()
	switch v.Kind() {
	case value.KindNode:
		if u, ok := bp.snap.Ord(ppg.NodeID(id)); ok {
			return bp.node.test(u, bp.p), true
		}
	case value.KindEdge:
		if e, ok := bp.snap.EdgeOrd(ppg.EdgeID(id)); ok {
			return bp.edge.test(e, bp.p), true
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
func typedEval(snap *csr.Snapshot, col *csr.PropCol, p *colPred) func(int32) bool {
	if col == nil || col.Kind() == csr.ColOverflow {
		return nil
	}
	// Normalise to "prop OP lit" by flipping the comparison when the
	// property is the right operand; IN and SUBSET are not symmetric.
	op := p.op
	if op == ast.OpIn || op == ast.OpSubset {
		return nil
	}
	if !p.propLeft {
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
	lit := p.lit.Scalarize()
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
// tests. Identifiers at or past SortedCount — strings appended by
// incremental snapshot applies, outside the order invariant — fall
// back to direct string comparison; a snapshot from a full build has
// no such region and keeps the pure integer closures.
func stringEval(ids []int32, in *csr.Interner, op ast.BinaryOp, l string) func(int32) bool {
	sorted := in.SortedCount()
	allSorted := int(sorted) == in.Count()
	// Equality resolves through Lookup, which covers the extension
	// region too: string identity is interning identity everywhere.
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
		if allSorted {
			return func(o int32) bool { return ids[o] < pos }
		}
		return func(o int32) bool {
			if ids[o] < sorted {
				return ids[o] < pos
			}
			return in.Name(ids[o]) < l
		}
	case ast.OpLe:
		// ids[o] <= pos when the literal itself is interned, else the
		// string at pos already exceeds the literal.
		hi := pos
		if !exact {
			hi = pos - 1
		}
		if allSorted {
			return func(o int32) bool { return ids[o] <= hi }
		}
		return func(o int32) bool {
			if ids[o] < sorted {
				return ids[o] <= hi
			}
			return in.Name(ids[o]) <= l
		}
	case ast.OpGt:
		lo := pos
		if exact {
			lo = pos + 1
		}
		if allSorted {
			return func(o int32) bool { return ids[o] >= lo }
		}
		return func(o int32) bool {
			if ids[o] < sorted {
				return ids[o] >= lo
			}
			return in.Name(ids[o]) > l
		}
	case ast.OpGe:
		if allSorted {
			return func(o int32) bool { return ids[o] >= pos }
		}
		return func(o int32) bool {
			if ids[o] < sorted {
				return ids[o] >= pos
			}
			return in.Name(ids[o]) >= l
		}
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
// path step on its destinations — paired with their compiled forms
// (compiled supplies them: the execution's, or EXPLAIN's static view).
// schema reports the variables bound once the step's rows exist.
// Consuming a conjunct there is safe only when no evaluation the
// interpreter would have run EARLIER on a dropped row can raise an
// error; the gates are therefore:
//
//   - the pattern has no {key = expr} filter specs (their expressions
//     are evaluated per candidate and may error),
//   - walking the conjuncts that the applyReady after the step would
//     find ready, in order: compiled conjuncts on varName alone are
//     selected, other compiled conjuncts and label tests (both
//     error-free) are left to applyReady, and the first conjunct that
//     may error stops the walk — nothing after it pre-filters.
func prefilterConjuncts(ab Ablation, np *ast.NodePattern, varName string, schema func(string) bool, conjs []*conjunct, compiled func(*conjunct) *colPred) (picked []*conjunct, preds []*colPred) {
	if ab.NoPropColumns || ab.NoPushdown || len(conjs) == 0 {
		return nil, nil
	}
	for _, ps := range np.Props {
		if ps.Mode == ast.PropFilter {
			return nil, nil
		}
	}
	for _, cj := range conjs {
		if cj.applied || !cj.pushable {
			continue
		}
		ready := true
		for _, v := range cj.vars {
			if !schema(v) {
				ready = false
				break
			}
		}
		if !ready {
			// Not evaluated at this step at all — irrelevant to the
			// per-row evaluation order here.
			continue
		}
		if _, isLabel := cj.expr.(*ast.LabelTest); isLabel {
			continue // error-free; commutes with the prefilter
		}
		p := compiled(cj)
		if p == nil {
			break // may error: nothing after it may filter earlier
		}
		if p.v == varName && len(cj.vars) == 1 {
			picked = append(picked, cj)
			preds = append(preds, p)
		}
		// Compiled conjuncts on other variables are error-free too;
		// leave them to applyReady and keep walking.
	}
	return picked, preds
}

// prefilterPreds binds the prefilter conjuncts of varName's node to the
// snapshot and marks them applied.
func (c *evalCtx) prefilterPreds(snap *csr.Snapshot, np *ast.NodePattern, varName string, schema func(string) bool, conjs []*conjunct) []*boundPred {
	picked, ps := prefilterConjuncts(c.ev.ablation, np, varName, schema, conjs,
		func(cj *conjunct) *colPred { return cj.colPred(c.params) })
	preds := make([]*boundPred, len(ps))
	for i, p := range ps {
		preds[i] = bindColPred(snap, p)
		picked[i].applied = true
	}
	return preds
}

// seekCandidates narrows a node scan through the columns' equality
// indexes: among the prefilter's `=` predicates it returns the shortest
// posting list and that predicate's property key, or ok=false when no
// predicate can seek (csr.PropCol.SeekEq decides, from the column and
// constant kinds alone); builds counts the indexes this call had to
// build. Postings are a superset of the ordinals the predicate accepts,
// ascending like the label partitions, so a scan that takes them as its
// candidates and still applies every test emits exactly the rows, in
// exactly the order, of the scan it replaces.
func seekCandidates(snap *csr.Snapshot, preds []*boundPred) (ords []int32, key string, builds int64, ok bool) {
	for _, pr := range preds {
		if pr.p.op != ast.OpEq || pr.node.col == nil {
			continue
		}
		post, built, seekable := pr.node.col.SeekEq(pr.p.lit, snap.Strings())
		if built {
			builds++
		}
		if seekable && (!ok || len(post) < len(ords)) {
			ords, key, ok = post, pr.p.key, true
		}
	}
	return ords, key, builds, ok
}
