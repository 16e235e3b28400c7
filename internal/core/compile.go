package core

import (
	"slices"

	"gcore/internal/ast"
	"gcore/internal/value"
)

// Expression compilation. One pass over a statement — its PATH views,
// GRAPH bodies, queries, subqueries and patterns — compiles every
// expression the evaluator will meet into an evaluator tree (expr.go)
// and records what later stages need to know about it: the AND-split of
// each WHERE, free variables, pushability and aggregates. The result
// depends on the AST alone — never on parameter values or graphs —
// and compiling never raises: an expression that cannot be
// evaluated compiles into a node that raises when it is, so a statement
// that matches no rows still succeeds.

// cexpr is one compiled expression — or, for a WHERE condition, the
// list of its compiled AND-factors (conjs).
type cexpr struct {
	src       ast.Expr
	ev        evaluator
	vars      []string // a conjunct's sorted free variables
	pushable  bool     // no subquery and no aggregate: evaluable on any row binding vars
	agg       bool     // contains an aggregate
	raiseFree bool     // never raises once the parameters are bound (sip.go)
	conjs     []*cexpr
}

func (ce *cexpr) eval(e *env) (value.Value, error) { return ce.ev.eval(e) }

// conjunct is one AND-factor of a WHERE condition in one execution,
// which marks it applied once a filter has consumed it.
type conjunct struct {
	*cexpr
	applied bool
}

type compiler struct {
	cs      *CachedStatement
	free    []string // a stack of the free variables met, per expression being compiled
	varsBuf []string // backs the conjuncts' vars
}

// compile fills cs's expression table from its statement.
func (cs *CachedStatement) compile() {
	cp := &compiler{cs: cs}
	cp.statement(cs.stmt)
}

// expr returns the compiled form of an expression of the statement.
func (c *evalCtx) expr(x ast.Expr) *cexpr {
	ce := c.cached.exprs[x]
	if ce == nil {
		panic("core: expression not compiled: " + ast.ExprString(x))
	}
	return ce
}

// exprs is expr over a list.
func (c *evalCtx) exprs(xs []ast.Expr) []*cexpr {
	out := make([]*cexpr, len(xs))
	for i, x := range xs {
		out[i] = c.expr(x)
	}
	return out
}

// conjuncts returns fresh execution state for the conjuncts of a WHERE
// condition (nil: none).
func (cs *CachedStatement) conjuncts(where ast.Expr) []*conjunct {
	var parts []*cexpr
	if where != nil {
		parts = cs.exprs[where].conjs
	}
	buf := make([]conjunct, len(parts))
	out := make([]*conjunct, len(parts))
	for i, p := range parts {
		buf[i].cexpr = p
		out[i] = &buf[i]
	}
	return out
}

// bind resolves the statement's parameters against one execution's
// bindings; value.Absent marks an unbound one.
func (cs *CachedStatement) bind(params map[string]value.Value) []value.Value {
	out := make([]value.Value, len(cs.params))
	for i, name := range cs.params {
		if v, ok := params[name]; ok {
			out[i] = v
		} else {
			out[i] = value.Absent
		}
	}
	return out
}

func (cp *compiler) statement(st *ast.Statement) {
	for _, pc := range st.Paths {
		for _, gp := range pc.Patterns {
			cp.pattern(gp)
		}
		cp.root(pc.Where)
		cp.root(pc.Cost)
	}
	for _, gc := range st.Graphs {
		cp.statement(gc.Body)
	}
	if st.Query != nil {
		cp.query(st.Query)
	}
}

func (cp *compiler) query(q ast.Query) {
	switch x := q.(type) {
	case *ast.SetQuery:
		cp.query(x.Left)
		cp.query(x.Right)
	case *ast.BasicQuery:
		if m := x.Match; m != nil {
			cp.located(m.Patterns)
			cp.where(m.Where)
			for _, ob := range m.Optionals {
				cp.located(ob.Patterns)
				cp.where(ob.Where)
			}
		}
		if x.Construct != nil {
			for _, it := range x.Construct.Items {
				if it.Pattern != nil {
					cp.pattern(it.Pattern)
				}
				for _, si := range it.Sets {
					cp.root(si.Expr)
				}
				cp.root(it.When)
			}
		}
		if x.Select != nil {
			for _, it := range x.Select.Items {
				cp.root(it.Expr)
			}
			for _, oi := range x.Select.OrderBy {
				cp.root(oi.Expr)
			}
		}
	}
}

func (cp *compiler) located(lps []*ast.LocatedPattern) {
	for _, lp := range lps {
		cp.pattern(lp.Pattern)
		if lp.OnQuery != nil {
			cp.query(lp.OnQuery)
		}
	}
}

// pattern compiles the property-map expressions and GROUP keys of a
// pattern's elements.
func (cp *compiler) pattern(gp *ast.GraphPattern) {
	props := func(specs []*ast.PropSpec) {
		for _, ps := range specs {
			cp.root(ps.Expr)
		}
	}
	for _, n := range gp.Nodes {
		props(n.Props)
		for _, g := range n.Group {
			cp.root(g)
		}
	}
	for _, l := range gp.Links {
		switch x := l.(type) {
		case *ast.EdgePattern:
			props(x.Props)
			for _, g := range x.Group {
				cp.root(g)
			}
		case *ast.PathPattern:
			props(x.Props)
		}
	}
}

// where compiles a WHERE condition as its AND-factors.
func (cp *compiler) where(x ast.Expr) {
	if x == nil {
		return
	}
	xs := splitAnd(x, nil)
	block, parts := make([]cexpr, len(xs)), make([]*cexpr, len(xs))
	for i, p := range xs {
		parts[i] = cp.compile(&block[i], p, true)
	}
	cp.cs.exprs[x] = &cexpr{src: x, conjs: parts}
}

func splitAnd(x ast.Expr, out []ast.Expr) []ast.Expr {
	if b, ok := x.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return splitAnd(b.R, splitAnd(b.L, out))
	}
	return append(out, x)
}

func (cp *compiler) root(x ast.Expr) {
	if x != nil && cp.cs.exprs[x] == nil {
		cp.cs.exprs[x] = cp.compile(&cexpr{}, x, false)
	}
}

// compile compiles x into ce, recording its free variables when
// withVars (a conjunct's, for pushdown).
func (cp *compiler) compile(ce *cexpr, x ast.Expr, withVars bool) *cexpr {
	ce.src, ce.pushable, ce.raiseFree = x, true, raiseFree(x, withVars)
	base := len(cp.free)
	ce.ev = cp.node(x, ce)
	if free := cp.free[base:]; withVars && len(free) > 0 {
		slices.Sort(free)
		start := len(cp.varsBuf)
		cp.varsBuf = append(cp.varsBuf, slices.Compact(free)...)
		ce.vars = cp.varsBuf[start:len(cp.varsBuf):len(cp.varsBuf)]
	}
	cp.free = cp.free[:base]
	return ce
}

func (cp *compiler) variable(name string) int {
	cp.free = append(cp.free, name)
	return intern(&cp.cs.vars, name)
}

// intern returns name's index in names, appending it if new. A
// statement names few variables and parameters.
func intern(names *[]string, name string) int {
	if i := slices.Index(*names, name); i >= 0 {
		return i
	}
	*names = append(*names, name)
	return len(*names) - 1
}

func (cp *compiler) leaf() int {
	cp.cs.leaves++
	return cp.cs.leaves - 1
}

func (cp *compiler) nodes(xs []ast.Expr, ce *cexpr) []evaluator {
	out := make([]evaluator, len(xs))
	for i, x := range xs {
		out[i] = cp.node(x, ce)
	}
	return out
}

func (cp *compiler) node(x ast.Expr, ce *cexpr) evaluator {
	switch n := x.(type) {
	case nil:
		return nullNode
	case *ast.Literal:
		return (*litNode)(n)
	case *ast.Param:
		return &paramNode{id: intern(&cp.cs.params, n.Name), name: n.Name}
	case *ast.VarRef:
		return varNode(cp.variable(n.Name))
	case *ast.PropAccess:
		return &propNode{v: cp.variable(n.Var), key: n.Key}
	case *ast.LabelTest:
		return &labelNode{v: cp.variable(n.Var), leaf: cp.leaf(), labels: n.Labels}
	case *ast.Unary:
		if n.Op == ast.OpNot {
			return &unaryNode{cp.node(n.X, ce), value.Not}
		}
		return &unaryNode{cp.node(n.X, ce), value.Neg}
	case *ast.Binary:
		if l := cp.colLeaf(n, ce); l != nil {
			return l
		}
		op, ok := binaryOps[n.Op]
		if !ok {
			err := errf("unknown binary operator %v", n.Op)
			op = func(value.Value, value.Value) (value.Value, error) { return value.Null, err }
		}
		return &binaryNode{l: cp.node(n.L, ce), r: cp.node(n.R, ce), op: op}
	case *ast.FuncCall:
		args := cp.nodes(n.Args, ce)
		kind, isAgg := value.ParseAggKind(n.Name)
		if isAgg || n.Star {
			ce.pushable, ce.agg = false, true // aggregates need the group context
		}
		if isAgg {
			return &aggNode{name: n.Name, kind: kind, star: n.Star, args: args}
		}
		return &funcNode{name: n.Name, args: args, fn: builtins[n.Name]}
	case *ast.Index:
		return &binaryNode{l: cp.node(n.Base, ce), r: cp.node(n.Idx, ce), op: index}
	case *ast.Case:
		cn := &caseNode{arms: make([]caseArm, len(n.Whens))}
		if n.Operand != nil {
			cn.operand = cp.node(n.Operand, ce)
		}
		for i, w := range n.Whens {
			cn.arms[i] = caseArm{cond: cp.node(w.Cond, ce), then: cp.node(w.Then, ce)}
		}
		if n.Else != nil {
			cn.els = cp.node(n.Else, ce)
		}
		return cn
	case *ast.Exists:
		// Correlated variables are not statically known; never push.
		ce.pushable = false
		cp.query(n.Query)
		return &existsNode{n.Query}
	case *ast.PatternPred:
		ce.pushable = false
		cp.pattern(n.Pattern)
		return &patternNode{n.Pattern}
	}
	ce.pushable = false
	return &errNode{errf("unknown expression node %T", x)}
}

// colLeaf compiles `x.k OP constant` or `constant OP x.k` — OP a
// comparison, IN or SUBSET, the constant a literal or a parameter —
// into a column leaf, or returns nil for any other shape.
func (cp *compiler) colLeaf(b *ast.Binary, ce *cexpr) evaluator {
	cmp, ok := comparisons[b.Op]
	if !ok {
		return nil
	}
	pa, k, propLeft := b.L, b.R, true
	if _, isProp := pa.(*ast.PropAccess); !isProp {
		pa, k, propLeft = b.R, b.L, false
	}
	prop, isProp := pa.(*ast.PropAccess)
	if !isProp {
		return nil
	}
	switch k.(type) {
	case *ast.Literal, *ast.Param:
	default:
		return nil
	}
	return &colLeaf{v: cp.variable(prop.Var), leaf: cp.leaf(), key: prop.Key, op: b.Op,
		propLeft: propLeft, k: cp.node(k, ce), cmp: cmp}
}
