package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// The reference oracle for expressions: a literal reading of §A.1. A
// binding µ is a map from variable to value (a variable µ leaves
// unbound is not in it), σ and λ are lookups on the ppg graph, and every
// operator is the value package's — no slots, snapshots, columns or
// compiled nodes. TestExpressionOracle evaluates randomly generated
// WHERE and SELECT expressions with the engine and with the oracle and
// compares values, kept rows and error texts.
//
// Not covered: EXISTS and pattern predicates (they match patterns),
// computed paths (the oracle sees only stored ones), and CONSTRUCT
// expressions; the golden suite holds those.

type binding map[string]value.Value

type oracle struct {
	g      *ppg.Graph
	params map[string]value.Value
	schema []string // COUNT(*) counts the bindings that bind all of these
}

func oerr(format string, args ...any) error {
	return &core.Error{Msg: fmt.Sprintf(format, args...)}
}

// eval evaluates x under µ; group is the group of an aggregation (nil
// outside one).
func (o *oracle) eval(x ast.Expr, mu binding, group []binding) (value.Value, error) {
	switch n := x.(type) {
	case nil:
		return value.Null, nil
	case *ast.Literal:
		return n.Val, nil
	case *ast.Param:
		if v, ok := o.params[n.Name]; ok {
			return v, nil
		}
		return value.Null, oerr("unbound parameter $%s", n.Name)
	case *ast.VarRef:
		if v, ok := mu[n.Name]; ok {
			return v, nil
		}
		return value.Null, nil
	case *ast.PropAccess:
		ref, ok := mu[n.Var]
		if !ok || !ref.IsRef() {
			return value.Null, nil
		}
		if v, ok := o.g.PropOf(ref, n.Key); ok {
			return v, nil
		}
		return value.EmptySet, nil
	case *ast.LabelTest:
		ref, ok := mu[n.Var]
		if !ok {
			return value.False, nil
		}
		ls, _ := o.g.LabelsOf(ref)
		for _, l := range n.Labels {
			if ls.Has(l) {
				return value.True, nil
			}
		}
		return value.False, nil
	case *ast.Unary:
		v, err := o.eval(n.X, mu, group)
		if err != nil {
			return value.Null, err
		}
		if n.Op == ast.OpNot {
			return value.Not(v)
		}
		return value.Neg(v)
	case *ast.Binary:
		l, err := o.eval(n.L, mu, group)
		if err != nil {
			return value.Null, err
		}
		r, err := o.eval(n.R, mu, group)
		if err != nil {
			return value.Null, err
		}
		return binary(n.Op, l, r)
	case *ast.FuncCall:
		if kind, ok := value.ParseAggKind(n.Name); ok {
			return o.aggregate(n, kind, group)
		}
		args := make([]value.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := o.eval(a, mu, group)
			if err != nil {
				return value.Null, err
			}
			args[i] = v
		}
		return o.builtin(n.Name, args)
	case *ast.Index:
		base, err := o.eval(n.Base, mu, group)
		if err != nil {
			return value.Null, err
		}
		idx, err := o.eval(n.Idx, mu, group)
		if err != nil {
			return value.Null, err
		}
		i, ok := idx.Scalarize().AsInt()
		if !ok {
			return value.Null, oerr("index must be an integer, got %s", idx.Kind())
		}
		return base.Index(int(i)), nil
	case *ast.Case:
		var operand value.Value
		if n.Operand != nil {
			v, err := o.eval(n.Operand, mu, group)
			if err != nil {
				return value.Null, err
			}
			operand = v
		}
		for _, w := range n.Whens {
			cond, err := o.eval(w.Cond, mu, group)
			if err != nil {
				return value.Null, err
			}
			hit := false
			if n.Operand != nil {
				hit, _ = value.Eq(operand, cond).AsBool()
			} else if hit, err = value.Truth(cond); err != nil {
				return value.Null, err
			}
			if hit {
				return o.eval(w.Then, mu, group)
			}
		}
		return o.eval(n.Else, mu, group)
	}
	return value.Null, fmt.Errorf("oracle: no semantics for %T", x)
}

func binary(op ast.BinaryOp, l, r value.Value) (value.Value, error) {
	switch op {
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
	return value.Null, fmt.Errorf("oracle: no operator %v", op)
}

// aggregate folds an aggregation over the group: Σ(ξ) of §A.1, with
// COUNT(*) counting the bindings that bind the whole schema.
func (o *oracle) aggregate(n *ast.FuncCall, kind value.AggKind, group []binding) (value.Value, error) {
	name := strings.ToUpper(n.Name)
	switch {
	case group == nil:
		return value.Null, oerr("aggregation %s used outside a grouped CONSTRUCT context", name)
	case n.Star && kind != value.AggCount:
		return value.Null, oerr("only COUNT accepts *")
	case n.Star:
		count := 0
		for _, mu := range group {
			if len(mu) == len(o.schema) {
				count++
			}
		}
		return value.Int(int64(count)), nil
	case len(n.Args) != 1:
		return value.Null, oerr("%s expects exactly one argument", name)
	}
	vals := make([]value.Value, len(group))
	for i, mu := range group {
		v, err := o.eval(n.Args[0], mu, group)
		if err != nil {
			return value.Null, err
		}
		vals[i] = v
	}
	return value.Aggregate(kind, vals)
}

// builtin applies a scalar function of §A.1 to evaluated arguments.
func (o *oracle) builtin(name string, args []value.Value) (value.Value, error) {
	if name != "substring" {
		arity := 1
		if n, ok := funcArity[name]; ok {
			arity = n
		}
		if len(args) != arity {
			return value.Null, oerr("%s expects %d argument(s), got %d", name, arity, len(args))
		}
	}
	str := func(i int) (string, bool) { return args[i].Scalarize().AsString() }
	switch name {
	case "labels":
		ls, ok := o.g.LabelsOf(args[0])
		if !ok {
			return value.Null, nil
		}
		vals := []value.Value{}
		for _, l := range ls {
			vals = append(vals, value.Str(l))
		}
		return value.Set(vals...), nil
	case "nodes", "edges":
		id, _ := args[0].RefID()
		p, ok := o.g.Path(ppg.PathID(id))
		if !ok || args[0].Kind() != value.KindPath {
			return value.Null, nil
		}
		var vals []value.Value
		for _, n := range p.Nodes {
			if name == "nodes" {
				vals = append(vals, value.NodeRef(uint64(n)))
			}
		}
		for _, e := range p.Edges {
			if name == "edges" {
				vals = append(vals, value.EdgeRef(uint64(e)))
			}
		}
		return value.List(vals...), nil
	case "size", "length":
		if id, _ := args[0].RefID(); args[0].Kind() == value.KindPath {
			if p, ok := o.g.Path(ppg.PathID(id)); ok {
				return value.Int(int64(p.Length())), nil
			}
		}
		if l := args[0].Len(); l >= 0 {
			return value.Int(int64(l)), nil
		}
		return value.Null, oerr("%s is not defined for %s", name, args[0].Kind())
	case "cost":
		if args[0].Kind() != value.KindPath {
			return value.Null, oerr("cost expects a path")
		}
		id, _ := args[0].RefID()
		if p, ok := o.g.Path(ppg.PathID(id)); ok {
			return value.Int(int64(p.Length())), nil
		}
		return value.Null, nil
	case "id":
		id, ok := args[0].RefID()
		if !ok {
			return value.Null, oerr("id expects a graph element")
		}
		return value.Int(int64(id)), nil
	case "tostring":
		if s, ok := str(0); ok {
			return value.Str(s), nil
		}
		return value.Str(args[0].Scalarize().String()), nil
	case "tointeger":
		v := args[0].Scalarize()
		if i, ok := v.AsInt(); ok {
			return value.Int(i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return value.Int(int64(f)), nil
		}
		return value.Null, nil
	case "tofloat":
		if f, ok := args[0].Scalarize().AsFloat(); ok {
			return value.Float(f), nil
		}
		return value.Null, nil
	case "upper", "lower", "trim":
		s, ok := str(0)
		if !ok {
			return value.Null, nil
		}
		f := map[string]func(string) string{"upper": strings.ToUpper, "lower": strings.ToLower, "trim": strings.TrimSpace}[name]
		return value.Str(f(s)), nil
	case "contains", "startswith", "endswith":
		s, ok1 := str(0)
		sub, ok2 := str(1)
		if !ok1 || !ok2 {
			return value.Null, nil
		}
		f := map[string]func(string, string) bool{"contains": strings.Contains, "startswith": strings.HasPrefix, "endswith": strings.HasSuffix}[name]
		return value.Bool(f(s, sub)), nil
	case "replace":
		s, ok1 := str(0)
		old, ok2 := str(1)
		nw, ok3 := str(2)
		if !ok1 || !ok2 || !ok3 {
			return value.Null, nil
		}
		return value.Str(strings.ReplaceAll(s, old, nw)), nil
	case "substring":
		if len(args) != 2 && len(args) != 3 {
			return value.Null, oerr("substring expects 2 or 3 arguments, got %d", len(args))
		}
		s, ok := str(0)
		if !ok {
			return value.Null, nil
		}
		start, ok := args[1].Scalarize().AsInt()
		if !ok || start < 0 {
			return value.Null, oerr("substring start must be a non-negative integer")
		}
		if start > int64(len(s)) {
			return value.Str(""), nil
		}
		s = s[start:]
		if len(args) == 3 {
			n, ok := args[2].Scalarize().AsInt()
			if !ok || n < 0 {
				return value.Null, oerr("substring length must be a non-negative integer")
			}
			s = s[:min(n, int64(len(s)))]
		}
		return value.Str(s), nil
	case "abs", "floor", "ceil", "round", "sqrt":
		v := args[0].Scalarize()
		if v.IsNull() {
			return value.Null, nil
		}
		if i, ok := v.AsInt(); ok && name == "abs" {
			if i < 0 {
				i = -i
			}
			return value.Int(i), nil
		}
		f, ok := v.AsFloat()
		if !ok {
			return value.Null, oerr("%s expects a number, got %s", name, v.Kind())
		}
		switch name {
		case "abs":
			return value.Float(math.Abs(f)), nil
		case "floor":
			return value.Int(int64(math.Floor(f))), nil
		case "ceil":
			return value.Int(int64(math.Ceil(f))), nil
		case "round":
			return value.Int(int64(math.Round(f))), nil
		}
		if f < 0 {
			return value.Null, oerr("sqrt of a negative number")
		}
		return value.Float(math.Sqrt(f)), nil
	}
	return value.Null, oerr("unknown function %s", name)
}

// oracleGraph holds every value kind the columns type — ints, floats
// (NaN, -0, 1e308), strings, bools, dates — next to multi-valued and
// absent properties, on nodes, edges and stored paths with overlapping
// labels.
func oracleGraph(t *testing.T) *ppg.Graph {
	t.Helper()
	props := func(kv ...any) ppg.Properties {
		m := map[string]value.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(value.Value)
		}
		return ppg.NewProperties(m)
	}
	I, F, S := value.Int, value.Float, value.Str
	nodes := []*ppg.Node{
		{ID: 9101, Labels: ppg.NewLabels("A"), Props: props("i", I(1), "f", F(1.5), "s", S("Acme"), "m", value.Set(I(1), S("a")), "b", value.True, "d", value.Date(16071))},
		{ID: 9102, Labels: ppg.NewLabels("A", "B"), Props: props("i", I(2), "f", F(math.NaN()), "s", S(""), "m", S("Acme"), "b", value.False)},
		{ID: 9103, Labels: ppg.NewLabels("B"), Props: props("i", I(-7), "f", F(math.Copysign(0, -1)), "s", S("HAL"), "m", F(2), "d", value.Date(16072))},
		{ID: 9104, Labels: ppg.NewLabels("C"), Props: props("f", F(1e308), "s", S("acme"), "m", value.Set(I(2), F(2.5)))},
		{ID: 9105, Labels: ppg.NewLabels("A"), Props: props("i", I(math.MaxInt64), "f", F(2), "s", S("a"), "b", value.True)},
		{ID: 9106},
	}
	edges := []*ppg.Edge{
		{ID: 9201, Src: 9101, Dst: 9102, Labels: ppg.NewLabels("r"), Props: props("w", I(1))},
		{ID: 9202, Src: 9102, Dst: 9103, Labels: ppg.NewLabels("r"), Props: props("w", F(2.5), "s", S("HAL"))},
		{ID: 9203, Src: 9103, Dst: 9101, Labels: ppg.NewLabels("q"), Props: props("w", F(math.NaN()))},
		{ID: 9204, Src: 9101, Dst: 9104, Labels: ppg.NewLabels("r", "q")},
		{ID: 9205, Src: 9104, Dst: 9104, Labels: ppg.NewLabels("q"), Props: props("w", S("x"))},
		{ID: 9206, Src: 9105, Dst: 9102, Labels: ppg.NewLabels("r"), Props: props("w", I(-1), "i", I(3))},
	}
	paths := []*ppg.Path{
		{ID: 9301, Nodes: []ppg.NodeID{9101, 9102, 9103}, Edges: []ppg.EdgeID{9201, 9202}, Labels: ppg.NewLabels("P"), Props: props("i", I(2), "s", S("Acme"))},
		{ID: 9302, Nodes: []ppg.NodeID{9104}, Labels: ppg.NewLabels("P", "Q")},
		{ID: 9303, Nodes: []ppg.NodeID{9105, 9102}, Edges: []ppg.EdgeID{9206}, Labels: ppg.NewLabels("Q"), Props: props("f", F(0.5))},
	}
	// Assembled, not inserted: the mutators refuse the NaN properties,
	// which CONSTRUCT still stores from a NaN parameter.
	g := ppg.Assemble("oracle_graph", nodes, edges, paths)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// exprGen builds random expression text over a vocabulary of
// variables: literals of every kind, bound and unbound parameters,
// properties (present, absent, multi-valued), label tests, every
// operator, every builtin — now and then with the wrong number of
// arguments — index, both CASE forms and, where allowed, aggregates.
type exprGen struct {
	r    *rand.Rand
	vars []string
}

var (
	genLiterals = []string{"0", "1", "2", "-3", "7", "2.5", "0.5", "1e308", "'Acme'", "''", "'a'", "'HAL'", "' Acme '",
		"TRUE", "FALSE", "NULL", "DATE '1/12/2014'"}
	genKeys     = []string{"i", "f", "s", "m", "b", "d", "w", "zz"}
	keyLiterals = map[string][]string{
		"i": {"0", "1", "2", "-7", "3", "9223372036854775807"},
		"f": {"1.5", "2.0", "0.0", "1e308", "2"},
		"s": {"'Acme'", "'HAL'", "''", "'a'", "'acme'", "'B'", "'Acmf'", "'zz'"},
		"b": {"TRUE", "FALSE"},
		"d": {"DATE '1/1/2014'", "DATE '2/1/2014'", "DATE '1/12/2014'"},
		"w": {"1", "2.5", "-1", "'x'"},
	}
	genLabels  = []string{"A", "B", "C", "P", "Q", "r", "q"}
	genOps     = []string{"OR", "AND", "=", "<>", "<", "<=", ">", ">=", "IN", "SUBSET", "+", "-", "*", "/", "%"}
	genCmps    = genOps[2:10]
	genFuncs   = []string{"labels", "nodes", "edges", "size", "length", "cost", "id", "tostring", "tointeger", "tofloat", "upper", "lower", "trim", "contains", "startswith", "endswith", "replace", "substring", "abs", "floor", "ceil", "round", "sqrt"}
	genAggs    = []string{"COUNT", "SUM", "MIN", "MAX", "AVG", "COLLECT"}
	funcArity  = map[string]int{"contains": 2, "startswith": 2, "endswith": 2, "replace": 3}
	paramBinds = []value.Value{value.Int(2), value.Float(2.5), value.Float(math.NaN()), value.Str("Acme"), value.True,
		value.Set(value.Int(1), value.Str("a")), value.Date(16071), value.Null, value.Float(1e308)}
)

func (g *exprGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// colShape returns `x.key OP constant` or its mirror, the constant
// mostly of the key's kind so that the typed column tests get exercised.
func (g *exprGen) colShape() string {
	key := g.pick(genKeys)
	prop, c := g.pick(g.vars)+"."+key, g.constant()
	if kind, ok := keyLiterals[key]; ok && g.r.Intn(3) > 0 {
		c = g.pick(kind)
	}
	if g.r.Intn(3) == 0 {
		return "(" + c + " " + g.pick(genCmps) + " " + prop + ")"
	}
	return "(" + prop + " " + g.pick(genCmps) + " " + c + ")"
}

func (g *exprGen) constant() string {
	switch g.r.Intn(30) {
	case 0:
		return "$u"
	case 1, 2, 3, 4, 5, 6, 7:
		return "$a"
	}
	return g.pick(genLiterals)
}

func (g *exprGen) leaf() string {
	v := g.pick(g.vars)
	switch g.r.Intn(5) {
	case 0:
		return g.constant()
	case 1:
		return v
	case 2:
		return fmt.Sprintf("(%s:%s)", v, strings.Join(g.labelDisjunction(), "|"))
	}
	return v + "." + g.pick(genKeys)
}

func (g *exprGen) labelDisjunction() []string {
	ls := []string{g.pick(genLabels)}
	if g.r.Intn(3) == 0 {
		ls = append(ls, g.pick(genLabels))
	}
	return ls
}

// expr returns an expression of at most depth levels; agg admits
// aggregates at this level (never inside their arguments).
func (g *exprGen) expr(depth int, agg bool) string {
	if depth == 0 || g.r.Intn(5) == 0 {
		return g.leaf()
	}
	sub := func() string { return g.expr(depth-1, agg) }
	switch g.r.Intn(9) {
	case 0:
		return g.cond(depth - 1)
	case 1:
		if g.r.Intn(4) == 0 {
			return "(-" + sub() + ")"
		}
		return "(-" + g.pick(g.vars) + "." + g.pick([]string{"i", "f", "w"}) + ")"
	case 2, 3:
		return "(" + sub() + " " + g.pick(genOps) + " " + sub() + ")"
	case 4:
		return g.colShape()
	case 5:
		f := g.pick(genFuncs)
		n, ok := funcArity[f]
		switch {
		case g.r.Intn(10) == 0 && f != "cost": // cost(…) parses one argument only
			n = g.r.Intn(4)
		case f == "substring":
			n = 2 + g.r.Intn(2)
		case !ok:
			n = 1
		}
		args := make([]string, n)
		for i := range args {
			args[i] = g.expr(depth-1, false) // analysis admits no aggregate in an argument
		}
		return f + "(" + strings.Join(args, ", ") + ")"
	case 6:
		idx := g.pick([]string{"0", "1", "-1", "2"})
		if g.r.Intn(8) == 0 {
			idx = sub()
		}
		return "(" + sub() + ")[" + idx + "]"
	case 7:
		var sb strings.Builder
		sb.WriteString("CASE ")
		if g.r.Intn(2) == 0 {
			sb.WriteString(sub() + " ")
		}
		for i := 0; i <= g.r.Intn(2); i++ {
			sb.WriteString("WHEN " + g.cond(depth-1) + " THEN " + sub() + " ")
		}
		if g.r.Intn(2) == 0 {
			sb.WriteString("ELSE " + sub() + " ")
		}
		return sb.String() + "END"
	}
	if !agg {
		return g.leaf()
	}
	a := g.pick(genAggs)
	switch g.r.Intn(6) {
	case 0:
		return a + "(*)"
	case 1:
		return "COUNT(*)"
	}
	return a + "(" + g.expr(depth-1, false) + ")"
}

// cond returns a condition: mostly boolean-valued — comparisons,
// column-leaf shapes, label tests, string tests and their boolean
// combinations — and now and then any expression, whose truth value may
// be a type error.
func (g *exprGen) cond(depth int) string {
	if depth <= 0 {
		return g.leaf()
	}
	sub := func() string { return g.cond(depth - 1) }
	switch g.r.Intn(8) {
	case 0, 1:
		return "(" + g.expr(depth-1, false) + " " + g.pick(genCmps) + " " + g.expr(depth-1, false) + ")"
	case 2, 3:
		return g.colShape()
	case 4:
		return "(" + sub() + " " + g.pick([]string{"AND", "OR"}) + " " + sub() + ")"
	case 5:
		return "(NOT " + sub() + ")"
	case 6:
		return g.pick([]string{"contains", "startswith", "endswith"}) + "(" + g.expr(depth-1, false) + ", " + g.pick([]string{"'a'", "''", "'A'", "$a"}) + ")"
	}
	return g.expr(depth, false)
}

// oracleEngine evaluates statements on the oracle graph.
type oracleEngine struct {
	t    *testing.T
	ev   *core.Evaluator
	memo map[string][]binding
}

func (oe oracleEngine) run(src string, params map[string]value.Value) (*core.Result, error) {
	ex, err := oe.ev.PrepareExec(src, params, core.ExecOpts{})
	if err != nil {
		oe.t.Fatalf("prepare %s: %v", src, err)
	}
	return oe.ev.EvalExec(context.Background(), ex)
}

// bindings returns the rows of a projection of vars as bindings, in
// output order.
func (oe oracleEngine) bindings(src string, vars []string) []binding {
	if mus, ok := oe.memo[src]; ok {
		return mus
	}
	res, err := oe.run(src, nil)
	if err != nil {
		oe.t.Fatalf("%s: %v", src, err)
	}
	out := make([]binding, len(res.Table.Rows))
	for i, row := range res.Table.Rows {
		out[i] = binding{}
		for j, v := range vars {
			if !row[j].IsNull() {
				out[i][v] = row[j]
			}
		}
	}
	oe.memo[src] = out
	return out
}

func sameValue(a, b value.Value) bool { return a.Kind() == b.Kind() && value.Compare(a, b) == 0 }

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// oracleShapes are the matches expressions run over: an edge with an
// OPTIONAL step, which leaves e2 and o unbound on some rows, and the
// stored paths.
var oracleShapes = []struct {
	vars  []string
	match string
}{
	{[]string{"a", "e", "b", "e2", "o"}, "MATCH (a)-[e]->(b) OPTIONAL (b)-[e2]->(o)"},
	{[]string{"a", "p", "b"}, "MATCH (a)-/@p/->(b)"},
}

// TestExpressionOracle runs, on the default engine and on the one that
// never reads property columns: every column-leaf shape over every key,
// in WHERE and in SELECT; every one-argument builtin over every
// property; then a fixed-seed batch of random SELECT expressions, with
// and without aggregates, and random WHERE conditions.
func TestExpressionOracle(t *testing.T) {
	g := oracleGraph(t)
	for _, engine := range []struct {
		name string
		ab   core.Ablation
	}{{"default", core.Ablation{}}, {"interpreter", core.Ablation{NoPropColumns: true}}} {
		name, r := engine.name, rand.New(rand.NewSource(1)) // both engines see the same batch
		cat := catalog.New()
		if err := cat.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
		if err := cat.SetDefault(g.Name()); err != nil {
			t.Fatal(err)
		}
		oe := oracleEngine{t, core.NewAblated(cat, engine.ab), map[string][]binding{}}
		edge := oracleShapes[0]
		params := map[string]value.Value{"a": value.Str("Acme")}
		for _, key := range genKeys {
			for _, c := range append(slices.Clone(keyLiterals[key]), "$a", "NULL") {
				for _, op := range genCmps {
					for _, shape := range []string{"x.%s %s %s", "%[3]s %[2]s x.%[1]s"} {
						leaf := fmt.Sprintf(shape, key, op, c)
						oracleWhere(t, name, oe, "MATCH (a)", []string{strings.ReplaceAll(leaf, "x.", "a.")}, params)
						oracleSelect(t, name, oe, edge.vars, edge.match, strings.ReplaceAll(leaf, "x.", "e."), params)
					}
				}
			}
		}
		for _, f := range genFuncs {
			if _, twoArgs := funcArity[f]; twoArgs || f == "substring" {
				continue
			}
			for _, v := range edge.vars {
				for _, key := range genKeys {
					oracleSelect(t, name, oe, edge.vars, edge.match, fmt.Sprintf("%s(%s.%s)", f, v, key), params)
				}
			}
		}
		for i := 0; i < 1500; i++ {
			sh := oracleShapes[i%len(oracleShapes)]
			gen := &exprGen{r: r, vars: append(slices.Clone(sh.vars), "zz")}
			params := map[string]value.Value{"a": paramBinds[r.Intn(len(paramBinds))]}
			switch i % 3 {
			case 0:
				oracleSelect(t, name, oe, sh.vars, sh.match, gen.expr(3, false), params)
			case 1:
				oracleSelect(t, name, oe, nil, sh.match, gen.expr(3, true), params)
			default:
				gen.vars = []string{"a", "a", "o"}
				conjs := make([]string, 1+gen.r.Intn(3))
				for i := range conjs {
					conjs[i] = gen.cond(2)
				}
				oracleWhere(t, name, oe, gen.pick([]string{"MATCH (a)", "MATCH (a:A)", "MATCH (a:B|C)"}), conjs, params)
			}
		}
	}
}

// oracleSelect projects x over a match, next to the match's variables
// proj (none: x alone, which folds into one group when it aggregates),
// and checks the engine's column x against the oracle row by row — or
// over the one group — or the first failing row's error.
func oracleSelect(t *testing.T, engine string, oe oracleEngine, proj []string, match, x string, params map[string]value.Value) {
	t.Helper()
	vars := oracleShapeVars(match)
	cols := make([]string, len(vars))
	for j, v := range vars {
		cols[j] = v + " AS " + v
	}
	mus := oe.bindings("SELECT "+strings.Join(cols, ", ")+" "+match, vars)
	src := "SELECT " + x + " AS x " + match
	if len(proj) > 0 {
		src = "SELECT " + strings.Join(cols, ", ") + ", " + x + " AS x " + match
	}
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("generated %s: %v", src, err)
	}
	items := stmt.Query.(*ast.BasicQuery).Select.Items
	item := items[len(items)-1].Expr
	agg := len(proj) == 0 && containsAgg(item)
	o := &oracle{g: oe.ev.Catalog().Default(), params: params, schema: vars}
	var want []value.Value
	var wantErr error
	if agg {
		mu := binding{}
		if len(mus) > 0 {
			mu = mus[0]
		}
		v, err := o.eval(item, mu, mus)
		want, wantErr = []value.Value{v}, err
	} else {
		for _, mu := range mus {
			v, err := o.eval(item, mu, nil)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, v)
		}
	}
	res, err := oe.run(src, params)
	if wantErr != nil || err != nil {
		if errText(err) != errText(wantErr) {
			t.Errorf("%s engine, $a = %v:\n%s\nerror %s\noracle %s", engine, params["a"], src, errText(err), errText(wantErr))
		}
		return
	}
	if len(res.Table.Rows) != len(want) {
		t.Errorf("%s engine, $a = %v:\n%s\n%d rows, oracle %d", engine, params["a"], src, len(res.Table.Rows), len(want))
		return
	}
	for i, row := range res.Table.Rows {
		if got := row[len(row)-1]; !sameValue(got, want[i]) {
			t.Errorf("%s engine, $a = %v:\n%s\nrow %d: %v (%s), oracle %v (%s)", engine, params["a"], src, i, got, got.Kind(), want[i], want[i].Kind())
			return
		}
	}
}

// oracleWhere checks a WHERE of conjuncts over a single-node match,
// where every row the engine filters is a row of the result. The oracle
// evaluates every conjunct on every row. Without an error anywhere the
// engine must keep exactly the rows on which all are TRUE. With errors
// the engine may raise any of them, or — when each erring row also has
// a FALSE conjunct, which an evaluation order may meet first — keep
// exactly those rows.
func oracleWhere(t *testing.T, engine string, oe oracleEngine, match string, conjs []string, params map[string]value.Value) {
	t.Helper()
	mus := oe.bindings("SELECT a AS a "+match, []string{"a"})
	src := "SELECT a AS a " + match + " WHERE " + strings.Join(conjs, " AND ")
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("generated %s: %v", src, err)
	}
	where := stmt.Query.(*ast.BasicQuery).Match.Where
	parts := splitConjuncts(where, nil)
	o := &oracle{g: oe.ev.Catalog().Default(), params: params}
	var kept []value.Value
	errs := map[string]bool{}
	undroppable := false
	for _, mu := range mus {
		keep, falsified, erred := true, false, false
		for _, p := range parts {
			v, err := o.eval(p, mu, nil)
			ok := false
			if err == nil {
				ok, err = value.Truth(v)
			}
			switch {
			case err != nil:
				errs[err.Error()] = true
				erred, keep = true, false
			case !ok:
				falsified, keep = true, false
			}
		}
		if keep {
			kept = append(kept, mu["a"])
		}
		undroppable = undroppable || erred && !falsified
	}
	res, err := oe.run(src, params)
	switch {
	case err != nil:
		if !errs[err.Error()] {
			t.Errorf("%s engine, $a = %v:\n%s\nerror %v, oracle errors %v", engine, params["a"], src, err, errs)
		}
		return
	case undroppable:
		t.Errorf("%s engine, $a = %v:\n%s\nsucceeded, oracle errors %v on a row no conjunct drops", engine, params["a"], src, errs)
		return
	}
	var got []value.Value
	for _, row := range res.Table.Rows {
		got = append(got, row[0])
	}
	if !slices.EqualFunc(got, kept, sameValue) {
		t.Errorf("%s engine, $a = %v:\n%s\nkept %v, oracle %v", engine, params["a"], src, got, kept)
	}
}

// containsAgg reports whether an aggregate occurs in x: the item then
// folds over the single group of all rows.
func containsAgg(x ast.Expr) bool {
	switch n := x.(type) {
	case *ast.Unary:
		return containsAgg(n.X)
	case *ast.Binary:
		return containsAgg(n.L) || containsAgg(n.R)
	case *ast.Index:
		return containsAgg(n.Base) || containsAgg(n.Idx)
	case *ast.FuncCall:
		_, isAgg := value.ParseAggKind(n.Name)
		return isAgg || n.Star
	case *ast.Case:
		found := containsAgg(n.Operand) || containsAgg(n.Else)
		for _, w := range n.Whens {
			found = found || containsAgg(w.Cond) || containsAgg(w.Then)
		}
		return found
	}
	return false
}

// oracleShapeVars returns the variables of one of oracleShapes' matches.
func oracleShapeVars(match string) []string {
	for _, sh := range oracleShapes {
		if sh.match == match {
			return sh.vars
		}
	}
	return nil
}

func splitConjuncts(x ast.Expr, out []ast.Expr) []ast.Expr {
	if b, ok := x.(*ast.Binary); ok && b.Op == ast.OpAnd {
		return splitConjuncts(b.R, splitConjuncts(b.L, out))
	}
	return append(out, x)
}
