package core

import (
	"math"
	"sort"
	"strings"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Expressions (§A.1) are compiled once per cache entry (compile.go)
// into trees of immutable evaluator nodes: variables become
// statement-wide ids, parameters execution-bound slots, operators and
// builtins the functions that implement them, and `x.k OP constant`
// comparisons column leaves (propcols.go). A tree evaluates over an
// env, which holds what one execution adds: the current binding µ and
// the slots its variables resolve to, the group of an aggregation, the
// graph under construction, and the leaves' snapshot bindings. Nodes
// hold no execution state, so concurrent executions share them.

// evaluator is one compiled expression node.
type evaluator interface {
	eval(e *env) (value.Value, error)
}

// env is the evaluation environment of an expression (§A.1): the
// current binding µ, the graphs whose σ and λ resolve element
// references, the computed temp paths, and — inside CONSTRUCT and an
// aggregating SELECT — the group for aggregation and the
// under-construction graph for WHEN conditions that inspect
// just-assigned properties.
type env struct {
	c            *evalCtx
	s            *scope
	graphs       []*ppg.Graph
	patternGraph *ppg.Graph

	// The current µ is row rowIdx of rowTab; a nil rowTab is µ∅, with
	// rowIdx 0, its row in {µ∅}. slots maps the statement's variable
	// ids to rowTab's slots, each resolved on first use (setTable).
	rowTab *bindings.Table
	rowIdx int
	slots  []int

	// Aggregation context: the group is rows groupRows of rowTab (nil
	// outside a grouped context, empty for the empty group). COUNT(*)
	// counts the group rows that bind every variable of groupSchema,
	// whose slots groupSlots caches.
	groupRows   []int
	groupSchema []string
	groupSlots  []int

	// The graph being constructed, consulted first for property, label
	// and path lookups so WHEN can see fresh assignments.
	constructed *builder

	// snap is the snapshot of graphs[0] that property reads, label
	// tests and column leaves answer from (fast), and leaves holds the
	// leaves' bindings to it; colHits and colFalls count the column
	// leaf rows it answered and the ones that fell back.
	snap              *csr.Snapshot
	snapDone          bool
	leaves            []leafBind
	colHits, colFalls int64

	args    []value.Value // the argument stack of builtin calls
	aggVals []value.Value // an aggregate's inputs

	masks map[subquery]rowMask // each subquery node's value on the table it last ran over
}

// leafBind is one leaf bound to the env's snapshot: a column leaf's
// column, or a label test's interned labels.
type leafBind struct {
	col  *colBind
	lids []int32
}

const unresolved = -2

func (c *evalCtx) newEnv(s *scope, graphs []*ppg.Graph, patternGraph *ppg.Graph) *env {
	return &env{c: c, s: s, graphs: graphs, patternGraph: patternGraph}
}

// setTable makes the rows of t the bindings the env evaluates over (nil
// for µ∅), starting at its first row. The variable slots of a new schema
// resolve lazily; a table sharing the previous one's schema keeps them.
func (e *env) setTable(t *bindings.Table) {
	prev := e.rowTab
	e.rowTab, e.rowIdx = t, 0
	if t == nil || prev != nil && e.slots != nil && sameSchema(prev.Vars(), t.Vars()) {
		return
	}
	if e.slots == nil {
		e.slots = make([]int, len(e.c.cached.vars))
	}
	for i := range e.slots {
		e.slots[i] = unresolved
	}
	e.groupSlots = nil
}

func sameSchema(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// value resolves variable id in the current binding µ.
func (e *env) value(id int) (value.Value, bool) {
	if e.rowTab == nil {
		return value.Null, false
	}
	s := e.slots[id]
	if s == unresolved {
		s = e.rowTab.SlotOf(e.c.cached.vars[id])
		e.slots[id] = s
	}
	if s < 0 {
		return value.Null, false
	}
	if v := e.rowTab.RowAt(e.rowIdx)[s]; !v.IsAbsent() {
		return v, true
	}
	return value.Null, false
}

// lookup resolves a variable by name in the current binding µ.
func (e *env) lookup(name string) (value.Value, bool) {
	if e.rowTab == nil {
		return value.Null, false
	}
	return e.rowTab.Value(e.rowIdx, name)
}

// fast returns the snapshot the leaves and property reads answer from:
// graphs[0]'s, which resolves every ref it knows exactly like the walk
// of allGraphs (the first LabelsOf hit wins, and the columns mirror
// Properties.Get), or nil when a graph is under construction (it is
// consulted first).
func (e *env) fast() *csr.Snapshot {
	if !e.snapDone {
		e.snapDone = true
		if e.constructed == nil && len(e.graphs) > 0 {
			// csr.Of, not snapOf: the cache counters record the
			// operators' acquisitions, not one per environment.
			e.snap = csr.Of(e.graphs[0])
		}
	}
	return e.snap
}

// leaf returns the env's binding of leaf id.
func (e *env) leaf(id int) *leafBind {
	if e.leaves == nil {
		e.leaves = make([]leafBind, e.c.cached.leaves)
	}
	return &e.leaves[id]
}

// scope is the env's scope, or a fresh one for a subquery of a
// scopeless env.
func (e *env) scope() *scope {
	if e.s == nil {
		return newScope(nil)
	}
	return e.s
}

// allGraphs yields the graphs to consult for element lookups, nearest
// first — after the graph under construction, which the lookups ask
// before it: the graphs of the current match, query-local GRAPH
// bindings, views staged earlier in the same write, and finally every
// catalog graph.
// Identifiers are engine-unique, so the first hit is the only one —
// the fallback matters for correlated subqueries whose outer bindings
// reference elements of other graphs.
func (e *env) allGraphs(yield func(*ppg.Graph) bool) {
	for _, g := range e.graphs {
		if !yield(g) {
			return
		}
	}
	for s := e.s; s != nil; s = s.parent {
		names := make([]string, 0, len(s.graphs))
		for name := range s.graphs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !yield(s.graphs[name]) {
				return
			}
		}
	}
	if views := e.c.views; views != nil {
		for i := len(views.staged) - 1; i >= 0; i-- {
			if !yield(views.staged[i]) {
				return
			}
		}
	}
	for _, name := range e.c.ev.cat.GraphNames() {
		if g, ok := e.c.ev.cat.Graph(name); ok {
			if !yield(g) {
				return
			}
		}
	}
}

// lookupLabels resolves λ(x) across the graphs in scope.
func (e *env) lookupLabels(ref value.Value) (ppg.Labels, bool) {
	if ls, _, ok := e.constructed.element(ref); ok {
		return ls, true
	}
	var out ppg.Labels
	found := false
	e.allGraphs(func(g *ppg.Graph) bool {
		if ls, ok := g.LabelsOf(ref); ok {
			out, found = ls, true
			return false
		}
		return true
	})
	if found {
		return out, true
	}
	if e.c.tempPathOf(ref) != nil {
		return nil, true // computed paths carry no labels
	}
	return nil, false
}

// lookupProp resolves σ(x, k) across the graphs in scope, from the
// snapshot's property columns when fast knows the ref.
func (e *env) lookupProp(ref value.Value, key string) value.Value {
	if snap := e.fast(); snap != nil {
		if id, ok := ref.RefID(); ok {
			switch ref.Kind() {
			case value.KindNode:
				if u, ok := snap.Ord(ppg.NodeID(id)); ok {
					return snap.NodeProp(u, key)
				}
			case value.KindEdge:
				if ed, ok := snap.EdgeOrd(ppg.EdgeID(id)); ok {
					return snap.EdgeProp(ed, key)
				}
			}
		}
	}
	if _, ps, ok := e.constructed.element(ref); ok {
		return ps.Get(key)
	}
	var out value.Value
	found := false
	e.allGraphs(func(g *ppg.Graph) bool {
		if _, ok := g.LabelsOf(ref); ok {
			out, _ = g.PropOf(ref, key)
			found = true
			return false
		}
		return true
	})
	if found {
		return out
	}
	return value.EmptySet // also for computed paths, which carry no properties
}

// lookupPath resolves a path reference to a stored path of a graph in
// scope or, failing that, to a computed path of this statement.
func (e *env) lookupPath(ref value.Value) (*ppg.Path, *tempPath) {
	id, ok := ref.RefID()
	if !ok || ref.Kind() != value.KindPath {
		return nil, nil
	}
	if p, ok := e.constructed.path(ppg.PathID(id)); ok {
		return p, nil
	}
	var out *ppg.Path
	e.allGraphs(func(g *ppg.Graph) bool {
		if p, ok := g.Path(ppg.PathID(id)); ok {
			out = p
			return false
		}
		return true
	})
	if out != nil {
		return out, nil
	}
	return nil, e.c.tempPathOf(ref)
}

// The nodes. Unbound variables and missing properties evaluate to the
// absent value, so WHERE silently filters incomplete bindings (§3).

// litNode is the AST literal itself, so a constant costs no node.
type litNode ast.Literal

var nullNode = &litNode{Val: value.Null}

func (n *litNode) eval(*env) (value.Value, error) { return n.Val, nil }

type errNode struct{ err error }

func (n *errNode) eval(*env) (value.Value, error) { return value.Null, n.err }

// paramNode reads $name from the execution's bindings (evalCtx.params,
// value.Absent when unbound).
type paramNode struct {
	id   int
	name string
}

func (n *paramNode) eval(e *env) (value.Value, error) {
	if v := e.c.params[n.id]; !v.IsAbsent() {
		return v, nil
	}
	return value.Null, errf("unbound parameter $%s", n.name)
}

// varNode is a variable's id: a value, which an evaluator holds
// without an allocation.
type varNode int

func (n varNode) eval(e *env) (value.Value, error) {
	v, _ := e.value(int(n))
	return v, nil
}

type propNode struct {
	v   int
	key string
}

func (n *propNode) eval(e *env) (value.Value, error) {
	ref, ok := e.value(n.v)
	if !ok || !ref.IsRef() {
		return value.Null, nil
	}
	return e.lookupProp(ref, n.key), nil
}

// labelNode is x:A|B. Over fast's snapshot it is an interned-label
// probe; refs the snapshot does not know search the graphs in scope.
type labelNode struct {
	v, leaf int
	labels  []string
}

func (n *labelNode) eval(e *env) (value.Value, error) {
	ref, ok := e.value(n.v)
	if !ok || !ref.IsRef() {
		return value.False, nil
	}
	if snap := e.fast(); snap != nil {
		lb := e.leaf(n.leaf)
		if lb.lids == nil {
			lb.lids = make([]int32, len(n.labels))
			for i, l := range n.labels {
				lb.lids[i] = snap.LabelID(l)
			}
		}
		if pass, handled := labelTestFast(snap, lb.lids, ref); handled {
			return value.Bool(pass), nil
		}
	}
	ls, ok := e.lookupLabels(ref)
	if !ok {
		return value.False, nil
	}
	for _, l := range n.labels {
		if ls.Has(l) {
			return value.True, nil
		}
	}
	return value.False, nil
}

type unaryNode struct {
	x  evaluator
	op func(value.Value) (value.Value, error)
}

func (n *unaryNode) eval(e *env) (value.Value, error) {
	v, err := n.x.eval(e)
	if err != nil {
		return value.Null, err
	}
	return n.op(v)
}

// binaryNode evaluates both operands, AND and OR included (no
// short-circuit is needed: the language is side-effect free), so
// errors stay precise.
type binaryNode struct {
	l, r evaluator
	op   func(a, b value.Value) (value.Value, error)
}

func (n *binaryNode) eval(e *env) (value.Value, error) {
	l, err := n.l.eval(e)
	if err != nil {
		return value.Null, err
	}
	r, err := n.r.eval(e)
	if err != nil {
		return value.Null, err
	}
	return n.op(l, r)
}

// comparisons are the operators that never raise and always yield a
// boolean; the column leaves are made of them.
var comparisons = map[ast.BinaryOp]func(a, b value.Value) value.Value{
	ast.OpEq: value.Eq, ast.OpNeq: value.Neq,
	ast.OpLt: value.Lt, ast.OpLe: value.Le, ast.OpGt: value.Gt, ast.OpGe: value.Ge,
	ast.OpIn: value.In, ast.OpSubset: value.Subset,
}

var binaryOps = map[ast.BinaryOp]func(a, b value.Value) (value.Value, error){
	ast.OpOr: value.Or, ast.OpAnd: value.And,
	ast.OpAdd: value.Add, ast.OpSub: value.Sub, ast.OpMul: value.Mul,
	ast.OpDiv: value.Div, ast.OpMod: value.Mod,
}

func init() {
	for op, f := range comparisons {
		binaryOps[op] = func(a, b value.Value) (value.Value, error) { return f(a, b), nil }
	}
}

// index is base[i].
func index(base, idx value.Value) (value.Value, error) {
	i, ok := idx.Scalarize().AsInt()
	if !ok {
		return value.Null, errf("index must be an integer, got %s", idx.Kind())
	}
	return base.Index(int(i)), nil
}

type caseArm struct{ cond, then evaluator }

// caseNode is CASE: with an operand (nil for a searched CASE) the arms
// compare for equality, else they test their conditions; a nil els is
// ELSE NULL.
type caseNode struct {
	operand evaluator
	arms    []caseArm
	els     evaluator
}

func (n *caseNode) eval(e *env) (value.Value, error) {
	var operand value.Value
	if n.operand != nil {
		v, err := n.operand.eval(e)
		if err != nil {
			return value.Null, err
		}
		operand = v
	}
	for _, arm := range n.arms {
		cond, err := arm.cond.eval(e)
		if err != nil {
			return value.Null, err
		}
		var hit bool
		if n.operand != nil {
			hit, _ = value.Eq(operand, cond).AsBool()
		} else if hit, err = value.Truth(cond); err != nil {
			return value.Null, err
		}
		if hit {
			return arm.then.eval(e)
		}
	}
	if n.els != nil {
		return n.els.eval(e)
	}
	return value.Null, nil
}

// funcNode applies a builtin; fn is nil for an unknown name, which
// raises once the arguments are evaluated. Arguments go on the env's
// stack, so a call allocates nothing.
type funcNode struct {
	name string
	args []evaluator
	fn   *builtin
}

func (n *funcNode) eval(e *env) (value.Value, error) {
	base := len(e.args)
	defer func() { e.args = e.args[:base] }()
	for _, a := range n.args {
		v, err := a.eval(e)
		if err != nil {
			return value.Null, err
		}
		e.args = append(e.args, v)
	}
	args := e.args[base:]
	switch {
	case n.fn == nil:
		return value.Null, errf("unknown function %s", n.name)
	case n.fn.arity >= 0 && len(args) != n.fn.arity:
		return value.Null, errf("%s expects %d argument(s), got %d", n.name, n.fn.arity, len(args))
	}
	return n.fn.fn(e, n.name, args)
}

// aggNode folds its argument over the group rows (§A.3). COUNT(*)
// counts the bindings of the group that bind every variable of the
// match schema: a row produced by an unmatched OPTIONAL block leaves
// the optional variables unbound and therefore does not count — which
// is how the paper's nr_messages comes out 0 for people who never
// exchanged a message (§3, Fig. 5).
type aggNode struct {
	name string
	kind value.AggKind
	star bool
	args []evaluator
}

func (n *aggNode) eval(e *env) (value.Value, error) {
	if e.groupRows == nil {
		return value.Null, errf("aggregation %s used outside a grouped CONSTRUCT context", strings.ToUpper(n.name))
	}
	if n.star {
		if n.kind != value.AggCount {
			return value.Null, errf("only COUNT accepts *")
		}
		return value.Int(e.countBound()), nil
	}
	if len(n.args) != 1 {
		return value.Null, errf("%s expects exactly one argument", strings.ToUpper(n.name))
	}
	saved, vals := e.rowIdx, e.aggVals[:0] // arguments hold no aggregate (analyzeStatement)
	defer func() { e.rowIdx, e.aggVals = saved, vals[:0] }()
	for _, r := range e.groupRows {
		e.rowIdx = r
		v, err := n.args[0].eval(e)
		if err != nil {
			return value.Null, err
		}
		vals = append(vals, v)
	}
	return value.Aggregate(n.kind, vals)
}

// countBound counts the group rows binding every groupSchema variable.
func (e *env) countBound() int64 {
	if len(e.groupRows) == 0 {
		return 0
	}
	if e.groupSlots == nil {
		e.groupSlots = make([]int, len(e.groupSchema))
		for i, v := range e.groupSchema {
			e.groupSlots[i] = e.rowTab.SlotOf(v)
		}
	}
	count := int64(0)
rows:
	for _, r := range e.groupRows {
		row := e.rowTab.RowAt(r)
		for _, s := range e.groupSlots {
			if s < 0 || row[s].IsAbsent() {
				continue rows
			}
		}
		count++
	}
	return count
}

// subquery is an expression node that asks a query of its row (§A.1:
// EXISTS and pattern predicates). Appendix A correlates the query with
// a whole table, ⟦γ⟧Ω,G = ⟦γ⟧G ⋉ Ω, so the node answers for every row
// of the table at once.
type subquery interface {
	evaluator
	// matched returns the node's value on every row of outer.
	matched(e *env, outer *bindings.Table) ([]bool, error)
}

// rowMask is a subquery node's value on every row of one table.
type rowMask struct {
	tab *bindings.Table // nil: µ∅
	hit []bool
}

// subqueryValue returns n's value on the current row µ. The first row
// of a table evaluates n over the whole table ({µ∅} for µ∅); every
// later row reads the mask.
func (e *env) subqueryValue(n subquery) (value.Value, error) {
	m, ok := e.masks[n]
	if !ok || m.tab != e.rowTab {
		outer := e.rowTab
		if outer == nil {
			outer = bindings.Unit()
		}
		// Subquery operators record one level down, so plan annotation
		// matches only top-level spans.
		e.c.col.EnterSub()
		hit, err := n.matched(e, outer)
		e.c.col.ExitSub()
		if err != nil {
			return value.Null, err
		}
		if e.masks == nil {
			e.masks = map[subquery]rowMask{}
		}
		m = rowMask{e.rowTab, hit}
		e.masks[n] = m
	}
	return value.Bool(m.hit[e.rowIdx]), nil
}

// existsNode is EXISTS (query): true on a row iff the subquery's graph
// for that row, with the row as its outer bindings, is non-empty.
type existsNode struct{ q ast.Query }

func (n *existsNode) eval(e *env) (value.Value, error) { return e.subqueryValue(n) }

func (n *existsNode) matched(e *env, outer *bindings.Table) ([]bool, error) {
	res, err := e.c.evalQuery(e.scope(), n.q, outer)
	if err != nil {
		return nil, err
	}
	hit := make([]bool, len(res))
	for i, r := range res {
		if r.Graph == nil {
			return nil, errf("EXISTS subquery must be a graph query")
		}
		hit[i] = !r.Graph.IsEmpty()
	}
	return hit, nil
}

// patternNode is an implicit existential pattern in WHERE (§3): the
// pattern is matched once on the enclosing pattern's graph, and a row
// holds iff some match is compatible with it (⋉).
type patternNode struct{ gp *ast.GraphPattern }

func (n *patternNode) eval(e *env) (value.Value, error) { return e.subqueryValue(n) }

func (n *patternNode) matched(e *env, outer *bindings.Table) ([]bool, error) {
	if e.patternGraph == nil {
		return nil, errf("no graph in scope for pattern predicate")
	}
	tbl, _, err := e.c.evalGraphPattern(e.scope(), n.gp, e.patternGraph)
	if err != nil {
		return nil, err
	}
	return bindings.Matched(outer, tbl), nil
}

// builtin is a scalar function of arity arguments (-1: fn checks),
// called with its evaluated arguments, which it must not retain.
type builtin struct {
	arity int
	fn    func(e *env, name string, args []value.Value) (value.Value, error)
}

var builtins = map[string]*builtin{
	"labels": {1, func(e *env, _ string, a []value.Value) (value.Value, error) {
		ls, ok := e.lookupLabels(a[0])
		if !ok {
			return value.Null, nil
		}
		vals := make([]value.Value, len(ls))
		for i, l := range ls {
			vals[i] = value.Str(l)
		}
		return value.Set(vals...), nil
	}},
	"nodes":  {1, pathElements},
	"edges":  {1, pathElements},
	"size":   {1, size},
	"length": {1, size},
	"cost": {1, func(e *env, _ string, a []value.Value) (value.Value, error) {
		if a[0].Kind() != value.KindPath {
			return value.Null, errf("cost expects a path")
		}
		if tp := e.c.tempPathOf(a[0]); tp != nil {
			return value.Float(tp.cost), nil
		}
		if p, _ := e.lookupPath(a[0]); p != nil {
			return value.Int(int64(p.Length())), nil
		}
		return value.Null, nil
	}},
	"id": {1, func(_ *env, _ string, a []value.Value) (value.Value, error) {
		if id, ok := a[0].RefID(); ok {
			return value.Int(int64(id)), nil
		}
		return value.Null, errf("id expects a graph element")
	}},
	"tostring": {1, func(_ *env, _ string, a []value.Value) (value.Value, error) {
		v := a[0].Scalarize()
		if s, ok := v.AsString(); ok {
			return value.Str(s), nil
		}
		return value.Str(v.String()), nil
	}},
	"tointeger": {1, func(_ *env, _ string, a []value.Value) (value.Value, error) {
		v := a[0].Scalarize()
		if i, ok := v.AsInt(); ok {
			return value.Int(i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return value.Int(int64(f)), nil
		}
		return value.Null, nil
	}},
	"tofloat": {1, func(_ *env, _ string, a []value.Value) (value.Value, error) {
		if f, ok := a[0].Scalarize().AsFloat(); ok {
			return value.Float(f), nil
		}
		return value.Null, nil
	}},
	"upper":      strFunc(1, func(s, _, _ string) value.Value { return value.Str(strings.ToUpper(s)) }),
	"lower":      strFunc(1, func(s, _, _ string) value.Value { return value.Str(strings.ToLower(s)) }),
	"trim":       strFunc(1, func(s, _, _ string) value.Value { return value.Str(strings.TrimSpace(s)) }),
	"contains":   strFunc(2, func(s, sub, _ string) value.Value { return value.Bool(strings.Contains(s, sub)) }),
	"startswith": strFunc(2, func(s, sub, _ string) value.Value { return value.Bool(strings.HasPrefix(s, sub)) }),
	"endswith":   strFunc(2, func(s, sub, _ string) value.Value { return value.Bool(strings.HasSuffix(s, sub)) }),
	"replace":    strFunc(3, func(s, old, nw string) value.Value { return value.Str(strings.ReplaceAll(s, old, nw)) }),
	"substring":  {-1, substring},
	"abs":        numFunc(func(f float64) (value.Value, error) { return value.Float(math.Abs(f)), nil }),
	"floor":      numFunc(func(f float64) (value.Value, error) { return value.Int(int64(math.Floor(f))), nil }),
	"ceil":       numFunc(func(f float64) (value.Value, error) { return value.Int(int64(math.Ceil(f))), nil }),
	"round":      numFunc(func(f float64) (value.Value, error) { return value.Int(int64(math.Round(f))), nil }),
	"sqrt": numFunc(func(f float64) (value.Value, error) {
		if f < 0 {
			return value.Null, errf("sqrt of a negative number")
		}
		return value.Float(math.Sqrt(f)), nil
	}),
}

// pathElements is nodes() and edges(), for stored and computed paths —
// the point where a computed walk gets built.
func pathElements(e *env, name string, a []value.Value) (value.Value, error) {
	p, tp := e.lookupPath(a[0])
	if tp != nil {
		var err error
		if p, err = tp.walk(); err != nil {
			return value.Null, err
		}
	}
	if p == nil {
		return value.Null, nil
	}
	var vals []value.Value
	if name == "nodes" {
		for _, id := range p.Nodes {
			vals = append(vals, value.NodeRef(uint64(id)))
		}
	} else {
		for _, id := range p.Edges {
			vals = append(vals, value.EdgeRef(uint64(id)))
		}
	}
	return value.List(vals...), nil
}

func size(e *env, name string, a []value.Value) (value.Value, error) {
	if a[0].Kind() == value.KindPath {
		switch p, tp := e.lookupPath(a[0]); {
		case p != nil:
			return value.Int(int64(p.Length())), nil
		case tp != nil:
			return value.Int(int64(tp.length)), nil
		}
	}
	if l := a[0].Len(); l >= 0 {
		return value.Int(int64(l)), nil
	}
	return value.Null, errf("%s is not defined for %s", name, a[0].Kind())
}

// strFunc is a builtin of k ≤ 3 strings; an argument that is not a
// string makes it NULL.
func strFunc(k int, f func(a, b, c string) value.Value) *builtin {
	return &builtin{k, func(_ *env, _ string, args []value.Value) (value.Value, error) {
		var s [3]string
		for i, a := range args {
			str, ok := a.Scalarize().AsString()
			if !ok {
				return value.Null, nil
			}
			s[i] = str
		}
		return f(s[0], s[1], s[2]), nil
	}}
}

// substring(s, start [, length]) with 0-based start.
func substring(_ *env, _ string, args []value.Value) (value.Value, error) {
	if len(args) != 2 && len(args) != 3 {
		return value.Null, errf("substring expects 2 or 3 arguments, got %d", len(args))
	}
	s, ok := args[0].Scalarize().AsString()
	if !ok {
		return value.Null, nil
	}
	start, ok := args[1].Scalarize().AsInt()
	if !ok || start < 0 {
		return value.Null, errf("substring start must be a non-negative integer")
	}
	if start > int64(len(s)) {
		return value.Str(""), nil
	}
	rest := s[start:]
	if len(args) == 3 {
		ln, ok := args[2].Scalarize().AsInt()
		if !ok || ln < 0 {
			return value.Null, errf("substring length must be a non-negative integer")
		}
		if ln < int64(len(rest)) {
			rest = rest[:ln]
		}
	}
	return value.Str(rest), nil
}

// numFunc is a builtin of one number: NULL stays NULL, abs keeps an
// integer an integer, anything else goes through f as a float.
func numFunc(f func(float64) (value.Value, error)) *builtin {
	return &builtin{1, func(_ *env, name string, a []value.Value) (value.Value, error) {
		v := a[0].Scalarize()
		if v.IsNull() {
			return value.Null, nil
		}
		if i, ok := v.AsInt(); ok && name == "abs" {
			return value.Int(max(i, -i)), nil
		}
		x, ok := v.AsFloat()
		if !ok {
			return value.Null, errf("%s expects a number, got %s", name, v.Kind())
		}
		return f(x)
	}}
}
