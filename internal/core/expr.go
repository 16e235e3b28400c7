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

	// The current µ is row rowIdx of rowTab; a nil rowTab is µ∅.
	rowTab *bindings.Table
	rowIdx int

	// Aggregation context: the group is rows groupRows of rowTab (nil
	// outside a grouped context, empty for the empty group). COUNT(*)
	// counts the group rows that bind every variable of groupSchema.
	groupRows   []int
	groupSchema []string

	// The graph being constructed, consulted first for property and
	// label lookups so WHEN can see fresh assignments.
	constructed *ppg.Graph

	// Cached CSR snapshot of graphs[0] for columnar property reads
	// (lookupProp); resolved lazily on the first property access.
	colSnap *csr.Snapshot
}

func (c *evalCtx) newEnv(s *scope, graphs []*ppg.Graph, patternGraph *ppg.Graph) *env {
	return &env{c: c, s: s, graphs: graphs, patternGraph: patternGraph}
}

// lookup resolves a variable in the current binding µ.
func (e *env) lookup(name string) (value.Value, bool) {
	if e.rowTab == nil {
		return value.Null, false
	}
	return e.rowTab.Value(e.rowIdx, name)
}

// outerRowTable materialises the current µ as a one-row table — the
// outer table Ω′ of a correlated subquery.
func (e *env) outerRowTable() *bindings.Table {
	if e.rowTab == nil {
		return bindings.Unit()
	}
	return e.rowTab.RowTable(e.rowIdx)
}

// allGraphs yields the graphs to consult for element lookups, nearest
// first: the graph under construction, the graphs of the current
// match, query-local GRAPH bindings, views staged earlier in the same
// write, and finally every catalog graph.
// Identifiers are engine-unique, so the first hit is the only one —
// the fallback matters for correlated subqueries whose outer bindings
// reference elements of other graphs.
func (e *env) allGraphs(yield func(*ppg.Graph) bool) {
	if e.constructed != nil && !yield(e.constructed) {
		return
	}
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

// lookupProp resolves σ(x, k) across the graphs in scope. When the
// ref belongs to the first graph consulted — no graph is under
// construction and the element is in graphs[0]'s snapshot — the read
// comes from the frozen property columns, which resolve identically
// to the interpreter walk (the first LabelsOf hit wins, and the
// columns mirror Properties.Get exactly); any other ref falls through
// to the walk.
func (e *env) lookupProp(ref value.Value, key string) value.Value {
	if !e.c.ev.ablation.NoPropColumns && e.constructed == nil && len(e.graphs) > 0 {
		if e.colSnap == nil {
			// snapshot, not snapOf: the cache counters record the
			// operators' acquisitions, not one per environment.
			e.colSnap, _ = e.c.ev.snapshot(e.graphs[0])
		}
		if id, ok := ref.RefID(); ok {
			switch ref.Kind() {
			case value.KindNode:
				if u, ok := e.colSnap.Ord(ppg.NodeID(id)); ok {
					return e.colSnap.NodeProp(u, key)
				}
			case value.KindEdge:
				if ed, ok := e.colSnap.EdgeOrd(ppg.EdgeID(id)); ok {
					return e.colSnap.EdgeProp(ed, key)
				}
			}
		}
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

// lookupPathElements resolves nodes()/edges() for stored and computed
// paths — the point where a computed walk gets built.
func (e *env) lookupPathElements(ref value.Value) (*ppg.Path, bool) {
	p, tp := e.lookupPath(ref)
	if tp != nil {
		p = tp.walk()
	}
	return p, p != nil
}

// eval evaluates an expression under the environment. Unbound
// variables and missing properties evaluate to the absent value, so
// WHERE silently filters incomplete bindings (§3).
func (e *env) eval(x ast.Expr) (value.Value, error) {
	switch n := x.(type) {
	case nil:
		return value.Null, nil
	case *ast.Literal:
		return n.Val, nil
	case *ast.Param:
		if v, ok := e.c.params[n.Name]; ok {
			return v, nil
		}
		return value.Null, errf("unbound parameter $%s", n.Name)
	case *ast.VarRef:
		if v, ok := e.lookup(n.Name); ok {
			return v, nil
		}
		return value.Null, nil
	case *ast.PropAccess:
		ref, ok := e.lookup(n.Var)
		if !ok {
			return value.Null, nil
		}
		if !ref.IsRef() {
			return value.Null, nil
		}
		return e.lookupProp(ref, n.Key), nil
	case *ast.LabelTest:
		ref, ok := e.lookup(n.Var)
		if !ok || !ref.IsRef() {
			return value.False, nil
		}
		ls, ok := e.lookupLabels(ref)
		if !ok {
			return value.False, nil
		}
		for _, l := range n.Labels {
			if ls.Has(l) {
				return value.True, nil
			}
		}
		return value.False, nil
	case *ast.Unary:
		v, err := e.eval(n.X)
		if err != nil {
			return value.Null, err
		}
		if n.Op == ast.OpNot {
			return value.Not(v)
		}
		return value.Neg(v)
	case *ast.Binary:
		return e.evalBinary(n)
	case *ast.FuncCall:
		return e.evalFunc(n)
	case *ast.Index:
		base, err := e.eval(n.Base)
		if err != nil {
			return value.Null, err
		}
		idx, err := e.eval(n.Idx)
		if err != nil {
			return value.Null, err
		}
		i, ok := idx.Scalarize().AsInt()
		if !ok {
			return value.Null, errf("index must be an integer, got %s", idx.Kind())
		}
		return base.Index(int(i)), nil
	case *ast.Case:
		return e.evalCase(n)
	case *ast.Exists:
		return e.evalExists(n.Query)
	case *ast.PatternPred:
		return e.evalPatternPred(n.Pattern)
	}
	return value.Null, errf("unknown expression node %T", x)
}

func (e *env) evalBinary(n *ast.Binary) (value.Value, error) {
	l, err := e.eval(n.L)
	if err != nil {
		return value.Null, err
	}
	// AND/OR evaluate both sides (no short-circuit needed: the
	// language is side-effect free), but keep errors precise.
	r, err := e.eval(n.R)
	if err != nil {
		return value.Null, err
	}
	switch n.Op {
	case ast.OpOr:
		return value.Or(l, r)
	case ast.OpAnd:
		return value.And(l, r)
	case ast.OpEq:
		return value.Eq(l, r), nil
	case ast.OpNeq:
		return value.Neq(l, r), nil
	case ast.OpLt:
		return value.Lt(l, r), nil
	case ast.OpLe:
		return value.Le(l, r), nil
	case ast.OpGt:
		return value.Gt(l, r), nil
	case ast.OpGe:
		return value.Ge(l, r), nil
	case ast.OpIn:
		return value.In(l, r), nil
	case ast.OpSubset:
		return value.Subset(l, r), nil
	case ast.OpAdd:
		return value.Add(l, r)
	case ast.OpSub:
		return value.Sub(l, r)
	case ast.OpMul:
		return value.Mul(l, r)
	case ast.OpDiv:
		return value.Div(l, r)
	case ast.OpMod:
		return value.Mod(l, r)
	}
	return value.Null, errf("unknown binary operator %v", n.Op)
}

func (e *env) evalCase(n *ast.Case) (value.Value, error) {
	var operand value.Value
	if n.Operand != nil {
		v, err := e.eval(n.Operand)
		if err != nil {
			return value.Null, err
		}
		operand = v
	}
	for _, w := range n.Whens {
		cond, err := e.eval(w.Cond)
		if err != nil {
			return value.Null, err
		}
		var hit bool
		if n.Operand != nil {
			hit, _ = value.Eq(operand, cond).AsBool()
		} else {
			hit, err = value.Truth(cond)
			if err != nil {
				return value.Null, err
			}
		}
		if hit {
			return e.eval(w.Then)
		}
	}
	if n.Else != nil {
		return e.eval(n.Else)
	}
	return value.Null, nil
}

// aggName resolves an aggregation function name.
func aggName(name string) (value.AggKind, bool) {
	return value.ParseAggKind(name)
}

func (e *env) evalFunc(n *ast.FuncCall) (value.Value, error) {
	if kind, isAgg := aggName(n.Name); isAgg {
		return e.evalAggregate(n, kind)
	}
	args := make([]value.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := e.eval(a)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	need := func(k int) error {
		if len(args) != k {
			return errf("%s expects %d argument(s), got %d", n.Name, k, len(args))
		}
		return nil
	}
	switch n.Name {
	case "labels":
		if err := need(1); err != nil {
			return value.Null, err
		}
		ls, ok := e.lookupLabels(args[0])
		if !ok {
			return value.Null, nil
		}
		vals := make([]value.Value, len(ls))
		for i, l := range ls {
			vals[i] = value.Str(l)
		}
		return value.Set(vals...), nil
	case "nodes", "edges":
		if err := need(1); err != nil {
			return value.Null, err
		}
		p, ok := e.lookupPathElements(args[0])
		if !ok {
			return value.Null, nil
		}
		var vals []value.Value
		if n.Name == "nodes" {
			for _, id := range p.Nodes {
				vals = append(vals, value.NodeRef(uint64(id)))
			}
		} else {
			for _, id := range p.Edges {
				vals = append(vals, value.EdgeRef(uint64(id)))
			}
		}
		return value.List(vals...), nil
	case "size", "length":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() == value.KindPath {
			switch p, tp := e.lookupPath(args[0]); {
			case p != nil:
				return value.Int(int64(p.Length())), nil
			case tp != nil:
				return value.Int(int64(tp.length)), nil
			}
		}
		if l := args[0].Len(); l >= 0 {
			return value.Int(int64(l)), nil
		}
		return value.Null, errf("%s is not defined for %s", n.Name, args[0].Kind())
	case "cost":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if args[0].Kind() != value.KindPath {
			return value.Null, errf("cost expects a path")
		}
		if tp := e.c.tempPathOf(args[0]); tp != nil {
			return value.Float(tp.cost), nil
		}
		if p, _ := e.lookupPath(args[0]); p != nil {
			return value.Int(int64(p.Length())), nil
		}
		return value.Null, nil
	case "id":
		if err := need(1); err != nil {
			return value.Null, err
		}
		id, ok := args[0].RefID()
		if !ok {
			return value.Null, errf("id expects a graph element")
		}
		return value.Int(int64(id)), nil
	case "tostring":
		if err := need(1); err != nil {
			return value.Null, err
		}
		v := args[0].Scalarize()
		if s, ok := v.AsString(); ok {
			return value.Str(s), nil
		}
		return value.Str(v.String()), nil
	case "tointeger":
		if err := need(1); err != nil {
			return value.Null, err
		}
		v := args[0].Scalarize()
		if i, ok := v.AsInt(); ok {
			return value.Int(i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return value.Int(int64(f)), nil
		}
		return value.Null, nil
	case "tofloat":
		if err := need(1); err != nil {
			return value.Null, err
		}
		if f, ok := args[0].Scalarize().AsFloat(); ok {
			return value.Float(f), nil
		}
		return value.Null, nil
	case "upper", "lower", "trim":
		if err := need(1); err != nil {
			return value.Null, err
		}
		s, ok := args[0].Scalarize().AsString()
		if !ok {
			return value.Null, nil
		}
		switch n.Name {
		case "upper":
			return value.Str(strings.ToUpper(s)), nil
		case "lower":
			return value.Str(strings.ToLower(s)), nil
		default:
			return value.Str(strings.TrimSpace(s)), nil
		}
	case "contains", "startswith", "endswith":
		if err := need(2); err != nil {
			return value.Null, err
		}
		s, ok1 := args[0].Scalarize().AsString()
		sub, ok2 := args[1].Scalarize().AsString()
		if !ok1 || !ok2 {
			return value.Null, nil
		}
		switch n.Name {
		case "contains":
			return value.Bool(strings.Contains(s, sub)), nil
		case "startswith":
			return value.Bool(strings.HasPrefix(s, sub)), nil
		default:
			return value.Bool(strings.HasSuffix(s, sub)), nil
		}
	case "replace":
		if err := need(3); err != nil {
			return value.Null, err
		}
		s, ok1 := args[0].Scalarize().AsString()
		old, ok2 := args[1].Scalarize().AsString()
		nw, ok3 := args[2].Scalarize().AsString()
		if !ok1 || !ok2 || !ok3 {
			return value.Null, nil
		}
		return value.Str(strings.ReplaceAll(s, old, nw)), nil
	case "substring":
		// substring(s, start [, length]) with 0-based start.
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
	case "abs", "floor", "ceil", "round", "sqrt":
		if err := need(1); err != nil {
			return value.Null, err
		}
		v := args[0].Scalarize()
		if v.IsNull() {
			return value.Null, nil
		}
		if i, ok := v.AsInt(); ok && n.Name == "abs" {
			if i < 0 {
				return value.Int(-i), nil
			}
			return value.Int(i), nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return value.Null, errf("%s expects a number, got %s", n.Name, v.Kind())
		}
		switch n.Name {
		case "abs":
			return value.Float(math.Abs(f)), nil
		case "floor":
			return value.Int(int64(math.Floor(f))), nil
		case "ceil":
			return value.Int(int64(math.Ceil(f))), nil
		case "round":
			return value.Int(int64(math.Round(f))), nil
		default:
			if f < 0 {
				return value.Null, errf("sqrt of a negative number")
			}
			return value.Float(math.Sqrt(f)), nil
		}
	}
	return value.Null, errf("unknown function %s", n.Name)
}

// evalAggregate folds over the group rows (§A.3). COUNT(*) counts the
// bindings of the group that bind every variable of the match schema:
// a row produced by an unmatched OPTIONAL block leaves the optional
// variables unbound and therefore does not count — which is how the
// paper's nr_messages comes out 0 for people who never exchanged a
// message (§3, Fig. 5).
func (e *env) evalAggregate(n *ast.FuncCall, kind value.AggKind) (value.Value, error) {
	if e.groupRows == nil {
		return value.Null, errf("aggregation %s used outside a grouped CONSTRUCT context", strings.ToUpper(n.Name))
	}
	if n.Star {
		if kind != value.AggCount {
			return value.Null, errf("only COUNT accepts *")
		}
		count := int64(0)
		for _, r := range e.groupRows {
			full := true
			for _, v := range e.groupSchema {
				if _, ok := e.rowTab.Value(r, v); !ok {
					full = false
					break
				}
			}
			if full {
				count++
			}
		}
		return value.Int(count), nil
	}
	if len(n.Args) != 1 {
		return value.Null, errf("%s expects exactly one argument", strings.ToUpper(n.Name))
	}
	saved := e.rowIdx
	defer func() { e.rowIdx = saved }()
	var vals []value.Value
	for _, r := range e.groupRows {
		e.rowIdx = r
		v, err := e.eval(n.Args[0])
		if err != nil {
			return value.Null, err
		}
		vals = append(vals, v)
	}
	return value.Aggregate(kind, vals)
}

// evalExists evaluates EXISTS (query): true iff the subquery's graph
// is non-empty, with the current row as correlated outer bindings.
func (e *env) evalExists(q ast.Query) (value.Value, error) {
	s := e.s
	if s == nil {
		s = newScope(nil)
	}
	outer := e.outerRowTable()
	// Subquery operators record one level down (they run per row and
	// would otherwise swamp the top-level plan annotation).
	e.c.col.EnterSub()
	res, err := e.c.evalQuery(s, q, outer)
	e.c.col.ExitSub()
	if err != nil {
		return value.Null, err
	}
	if res.Graph == nil {
		return value.Null, errf("EXISTS subquery must be a graph query")
	}
	return value.Bool(!res.Graph.IsEmpty()), nil
}

// evalPatternPred evaluates an implicit existential pattern in WHERE
// (§3): the pattern is matched on the enclosing pattern's graph,
// correlated with the current row.
func (e *env) evalPatternPred(gp *ast.GraphPattern) (value.Value, error) {
	if e.patternGraph == nil {
		return value.Null, errf("no graph in scope for pattern predicate")
	}
	s := e.s
	if s == nil {
		s = newScope(nil)
	}
	e.c.col.EnterSub()
	tbl, _, err := e.c.evalGraphPattern(s, gp, e.patternGraph)
	e.c.col.ExitSub()
	if err != nil {
		return value.Null, err
	}
	outer := e.outerRowTable()
	joined := bindings.Join(tbl, outer)
	return value.Bool(joined.Len() > 0), nil
}
