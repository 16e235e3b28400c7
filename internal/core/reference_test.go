package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// The reference for MATCH: a literal reading of §A.2 over the ppg maps,
// as the conjunctive-pattern semantics of "Foundations of Modern Query
// Languages for Graph Databases" defines it. A binding µ is a map from
// variable to value. Each located pattern is enumerated by nested
// loops, in textual order and ascending identifiers: a node pattern
// ranges over every node, an edge pattern over every edge, a stored
// path pattern @p over every stored path, each kept when it carries the
// labels (a conjunction of disjunctions), passes the {k = expr} filter
// entries (expr ∈ σ(x, k)) and meets what µ already binds — a repeated
// variable is the same element. A {k = x} binding entry unrolls x over
// σ(x, k). The conjunct patterns are joined (⋈) on their shared
// variables, WHERE keeps the rows the §A.1 oracle finds TRUE, and each
// OPTIONAL block, filtered by its own WHERE, is left-outer-joined (⟕)
// in order. Nothing here plans, restricts, pushes down or reads a
// snapshot.
//
// Not covered: computed path patterns (reachability, SHORTEST, ALL —
// the RPQ steps) and stored paths with a regular expression; EXISTS and
// pattern predicates, which oracle.eval has no semantics for; ON
// anything but the oracle's graph; and CONSTRUCT.

// errUncovered marks a construct the reference has no semantics for.
var errUncovered = errors.New("reference: construct not covered")

// match evaluates a MATCH clause on o.g.
func (o *oracle) match(mc *ast.MatchClause) ([]binding, error) {
	anon := 0
	omega, err := o.block(mc.Patterns, mc.Where, &anon)
	if err != nil {
		return nil, err
	}
	for _, ob := range mc.Optionals {
		b, err := o.block(ob.Patterns, ob.Where, &anon)
		if err != nil {
			return nil, err
		}
		omega = leftJoin(omega, b)
	}
	return omega, nil
}

// block is ⟦π1, …, πn WHERE c⟧: the patterns joined, then filtered.
// anon numbers the anonymous elements, so none is shared.
func (o *oracle) block(lps []*ast.LocatedPattern, where ast.Expr, anon *int) ([]binding, error) {
	omega := []binding{{}}
	for _, lp := range lps {
		if lp.OnQuery != nil || lp.OnGraph != "" && lp.OnGraph != o.g.Name() {
			return nil, errUncovered
		}
		mus, err := o.chain(lp.Pattern, anon)
		if err != nil {
			return nil, err
		}
		omega = join(omega, mus)
	}
	if where == nil {
		return omega, nil
	}
	var out []binding
	for _, mu := range omega {
		v, err := o.eval(where, mu, nil)
		if err != nil {
			return nil, err
		}
		if ok, err := value.Truth(v); err != nil {
			return nil, err
		} else if ok {
			out = append(out, mu)
		}
	}
	return out, nil
}

// chain enumerates the bindings of one pattern (n0) l0 (n1) … (nk),
// left to right.
func (o *oracle) chain(gp *ast.GraphPattern, anon *int) ([]binding, error) {
	name := func(v string) string {
		if v == "" {
			*anon++
			return fmt.Sprintf("@ref%d", *anon)
		}
		return v
	}
	nodes := make([]string, len(gp.Nodes))
	for i, np := range gp.Nodes {
		if np.Copy {
			return nil, errUncovered
		}
		nodes[i] = name(np.Var)
	}
	var mus []binding
	for _, id := range o.g.NodeIDs() {
		np := gp.Nodes[0]
		ext, err := o.elem(binding{}, nodes[0], value.NodeRef(uint64(id)), np.Labels, np.Props)
		if err != nil {
			return nil, err
		}
		mus = append(mus, ext...)
	}
	for i, link := range gp.Links {
		var (
			v        string
			labels   ast.LabelSpec
			props    []*ast.PropSpec
			dir      ast.Direction
			costVar  string
			elements []value.Value
		)
		switch x := link.(type) {
		case *ast.EdgePattern:
			if x.Copy {
				return nil, errUncovered
			}
			v, labels, props, dir = x.Var, x.Labels, x.Props, x.Dir
			for _, id := range o.g.EdgeIDs() {
				elements = append(elements, value.EdgeRef(uint64(id)))
			}
		case *ast.PathPattern:
			if !x.Stored || x.Regex != nil {
				return nil, errUncovered
			}
			v, labels, props, dir, costVar = x.Var, x.Labels, x.Props, x.Dir, x.CostVar
			for _, id := range o.g.PathIDs() {
				elements = append(elements, value.PathRef(uint64(id)))
			}
		}
		v = name(v)
		var next []binding
		for _, mu := range mus {
			from := mu[nodes[i]]
			for _, ref := range elements {
				to, ok := o.traverse(ref, from, dir)
				if !ok {
					continue
				}
				linked, err := o.elem(mu, v, ref, labels, props)
				if err != nil {
					return nil, err
				}
				for _, mu := range linked {
					if costVar != "" {
						if mu = o.bindCost(mu, costVar, ref); mu == nil {
							continue
						}
					}
					np := gp.Nodes[i+1]
					ext, err := o.elem(mu, nodes[i+1], to, np.Labels, np.Props)
					if err != nil {
						return nil, err
					}
					next = append(next, ext...)
				}
			}
		}
		mus = next
	}
	return mus, nil
}

// traverse returns the node an edge or a stored path leads to from node
// from in direction dir: its target for ->, its source for <-, and for
// an undirected pattern whichever end from is not — a loop, or a path
// that ends where it starts, is traversed once.
func (o *oracle) traverse(ref, from value.Value, dir ast.Direction) (value.Value, bool) {
	id, _ := ref.RefID()
	var src, dst ppg.NodeID
	if ref.Kind() == value.KindEdge {
		e, _ := o.g.Edge(ppg.EdgeID(id))
		src, dst = e.Src, e.Dst
	} else {
		p, _ := o.g.Path(ppg.PathID(id))
		src, dst = p.Nodes[0], p.Nodes[len(p.Nodes)-1]
	}
	at := func(n ppg.NodeID) bool { return value.Equal(from, value.NodeRef(uint64(n))) }
	switch {
	case dir != ast.DirIn && at(src):
		return value.NodeRef(uint64(dst)), true
	case dir != ast.DirOut && at(dst):
		return value.NodeRef(uint64(src)), true
	}
	return value.Null, false
}

// bindCost binds a stored path's COST variable to its length, or
// returns nil when µ already binds the variable to something else.
func (o *oracle) bindCost(mu binding, v string, ref value.Value) binding {
	id, _ := ref.RefID()
	p, _ := o.g.Path(ppg.PathID(id))
	return bind(mu, v, value.Int(int64(len(p.Edges))))
}

// elem returns the extensions of µ by v ↦ ref: none unless ref carries
// the labels, passes every filter entry and agrees with µ; then one per
// combination of the binding entries' values, later entries varying
// fastest.
func (o *oracle) elem(mu binding, v string, ref value.Value, labels ast.LabelSpec, props []*ast.PropSpec) ([]binding, error) {
	ls, _ := o.g.LabelsOf(ref)
	for _, disj := range labels {
		if !slices.ContainsFunc(disj, ls.Has) {
			return nil, nil
		}
	}
	sigma := func(k string) value.Value {
		got, _ := o.g.PropOf(ref, k)
		return got
	}
	for _, ps := range props {
		if ps.Mode != ast.PropFilter {
			continue
		}
		want, err := o.eval(ps.Expr, binding{}, nil)
		if err != nil {
			return nil, err
		}
		if ok, _ := value.In(want, sigma(ps.Key)).AsBool(); !ok {
			return nil, nil
		}
	}
	if mu = bind(mu, v, ref); mu == nil {
		return nil, nil
	}
	mus := []binding{mu}
	for _, ps := range props {
		if ps.Mode != ast.PropBind {
			continue
		}
		var next []binding
		for _, mu := range mus {
			for _, x := range sigma(ps.Key).Elems() {
				if ext := bind(mu, ps.Var, x); ext != nil {
					next = append(next, ext)
				}
			}
		}
		mus = next
	}
	return mus, nil
}

// bind returns µ extended by v ↦ x, µ itself when it already binds v
// to x, and nil when it binds v to something else.
func bind(mu binding, v string, x value.Value) binding {
	if prev, ok := mu[v]; ok {
		if value.Equal(prev, x) {
			return mu
		}
		return nil
	}
	out := make(binding, len(mu)+1)
	for k, val := range mu {
		out[k] = val
	}
	out[v] = x
	return out
}

// compatible is µ1 ∼ µ2: they agree on every variable both bind.
func compatible(m1, m2 binding) bool {
	for k, v := range m1 {
		if w, ok := m2[k]; ok && !value.Equal(v, w) {
			return false
		}
	}
	return true
}

func union(m1, m2 binding) binding {
	out := make(binding, len(m1)+len(m2))
	for k, v := range m1 {
		out[k] = v
	}
	for k, v := range m2 {
		out[k] = v
	}
	return out
}

// join is Ω1 ⋈ Ω2.
func join(o1, o2 []binding) []binding {
	var out []binding
	for _, m1 := range o1 {
		for _, m2 := range o2 {
			if compatible(m1, m2) {
				out = append(out, union(m1, m2))
			}
		}
	}
	return out
}

// leftJoin is Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2).
func leftJoin(o1, o2 []binding) []binding {
	var out []binding
	for _, m1 := range o1 {
		matched := false
		for _, m2 := range o2 {
			if compatible(m1, m2) {
				out = append(out, union(m1, m2))
				matched = true
			}
		}
		if !matched {
			out = append(out, m1)
		}
	}
	return out
}

// referenceBindings evaluates the MATCH clause of src with the
// reference, projected on the variables a user can name (the anonymous
// elements are numbered @refN).
func referenceBindings(t *testing.T, g *ppg.Graph, src string, params map[string]value.Value) ([]binding, error) {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	mus, err := (&oracle{g: g, params: params}).match(stmt.Query.(*ast.BasicQuery).Match)
	if err == errUncovered {
		t.Fatalf("%s: %v", src, err)
	}
	for i, mu := range mus {
		mus[i] = named(mu)
	}
	return mus, err
}

// named drops the anonymous variables of µ.
func named(mu binding) binding {
	out := binding{}
	for k, v := range mu {
		if !strings.HasPrefix(k, "@") {
			out[k] = v
		}
	}
	return out
}

// tableBindings reads an engine binding table as bindings over the
// variables a user can name (the engine numbers anonymous ones @anonN).
func tableBindings(tbl *bindings.Table) []binding {
	out := make([]binding, tbl.Len())
	for i := range out {
		mu := binding{}
		for s, v := range tbl.Vars() {
			if x := tbl.RowAt(i)[s]; !x.IsAbsent() {
				mu[v] = x
			}
		}
		out[i] = named(mu)
	}
	return out
}

// bag renders bindings as a sorted multiset of canonical lines.
func bag(mus []binding) string {
	lines := make([]string, len(mus))
	for i, mu := range mus {
		keys := make([]string, 0, len(mu))
		for k := range mu {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cells := make([]string, len(keys))
		for j, k := range keys {
			cells[j] = fmt.Sprintf("%s=%s:%s", k, mu[k].Kind(), mu[k])
		}
		lines[i] = strings.Join(cells, " ")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestReferenceMatch holds the engine's MATCH to the reference on the
// oracle graph, pattern by pattern, as row multisets: label
// disjunctions, filter and binding entries over multi-valued and NaN
// properties, every direction, the self-loop, repeated variables,
// stored paths in every direction, conjunct patterns and OPTIONAL.
func TestReferenceMatch(t *testing.T) {
	g := oracleGraph(t)
	ev := oracleEvaluator(t, g)
	params := map[string]value.Value{"s": value.Str("Acme"), "n": value.Int(2)}
	for _, q := range []string{
		`MATCH (a)`,
		`MATCH (a:A|C)`,
		`MATCH (a:A:B)`,
		`MATCH (a {s = 'Acme'})`,
		`MATCH (a {m = $s})`,
		`MATCH (a {i = $n, m = x})`,
		`MATCH (a {m = x, f = y})`,
		`MATCH (a)-[e]->(b)`,
		`MATCH (a)<-[e:q]-(b)`,
		`MATCH (a)-[e]-(b)`,
		`MATCH (a)-[e:r|q {w = x}]-(b:A)`,
		`MATCH (a)-[e]->(a)`,
		`MATCH (a)-[e]-(a)`,
		`MATCH (a)-[]->(b)-[]->(c)-[]->(a)`,
		`MATCH (a)-[e]->(b)<-[f]-(c)`,
		`MATCH (a {i = x})-[e {w = x}]->(b)`,
		`MATCH (a {m = x})-[e]-(b {m = x})`,
		`MATCH (a)-[e]->(b), (b)-[f]->(c), (c)`,
		`MATCH (a:A), (b:B)`,
		`MATCH (a)-/@p/->(b)`,
		`MATCH (a)<-/@p/-(b)`,
		`MATCH (a)-/@p/-(b)`,
		`MATCH (a)-/@p:Q {f = y}/-(b)`,
		`MATCH (a)-/@p {s = 'Acme'} COST c/->(b)-[e]->(d)`,
		`MATCH (a)-/@p/->(b) WHERE a.i = 1`,
		`MATCH (a)-[e]->(b) OPTIONAL (b)-[e2]->(o)`,
		`MATCH (a:A) OPTIONAL (a)-[e]->(b:B) WHERE b.i < 0 OPTIONAL (a)-/@p/->(c)`,
		`MATCH (a) WHERE a.f > 1`,
	} {
		src := "SELECT 1 AS one " + q
		tbl, err := core.MatchTable(t, ev, src, -1, params)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := referenceBindings(t, g, src, params)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		if len(want) == 0 {
			t.Errorf("%s: no row on the oracle graph, so the case checks nothing", q)
		}
		if got, want := bag(tableBindings(tbl)), bag(want); got != want {
			t.Errorf("%s\nengine:\n%s\nreference:\n%s", q, got, want)
		}
	}
}

// oracleEvaluator is an evaluator over g alone.
func oracleEvaluator(t *testing.T, g *ppg.Graph) *core.Evaluator {
	t.Helper()
	cat := catalog.New()
	if err := cat.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetDefault(g.Name()); err != nil {
		t.Fatal(err)
	}
	return core.New(cat)
}

// TestPlannedEvalMatchesTextual: the binding table of a MATCH is the
// reference's, as a row multiset, and every start of a chain — forced,
// or the planner's own choice — produces the table of the textual plan
// (start 0), row order included. The fixed queries cover the skewed
// graph's planner choices; the random ones force each start of random
// chains over a random graph with undirected edges and self-loops,
// {k = v} bindings anywhere, repeated variables, WHERE equalities the
// destination gates consume, and OPTIONAL blocks sharing variables with
// the outer pattern.
func TestPlannedEvalMatchesTextual(t *testing.T) {
	rows := 0
	check := func(ev *core.Evaluator, g *ppg.Graph, q string) {
		t.Helper()
		ref, refErr := referenceBindings(t, g, q, nil)
		textual, err := core.MatchTable(t, ev, q, 0, nil)
		if err != nil || refErr != nil {
			t.Fatalf("%s: error %v, reference error %v", q, err, refErr)
		}
		if got, want := bag(tableBindings(textual)), bag(ref); got != want {
			t.Fatalf("%s\nengine:\n%s\nreference:\n%s", q, got, want)
		}
		for _, k := range []int{-1, 1, 2, 3} {
			tbl, err := core.MatchTable(t, ev, q, k, nil)
			if err != nil {
				t.Fatalf("%s from node %d: %v", q, k, err)
			}
			if got, want := tbl.String(), textual.String(); got != want {
				t.Fatalf("start %d changed the bindings of %q\nplanned:\n%s\ntextual:\n%s", k, q, got, want)
			}
		}
		rows += textual.Len()
	}
	g := core.PlanGraph(t)
	ev := oracleEvaluator(t, g)
	for _, q := range []string{
		`SELECT p.nr AS nr MATCH (p:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[:knows]->(q:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(q:Person)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)<-[:knows]-(q:Person)`,
		`SELECT p.nr AS a, q.nr AS b MATCH (p:Person)-[e]-(q)`,
		`SELECT p.nr AS a, c.nr AS b MATCH (p:Person), (c:City)`,
		`SELECT a.nr AS x MATCH (a:Person)-[:knows]->(b:Person), (c:City)<-[:isLocatedIn]-(b)`,
		`SELECT p.nr AS a, c.nr AS b MATCH (p:Person) OPTIONAL (p)-[:isLocatedIn]->(c:City), (m:Manager)`,
	} {
		check(ev, g, q)
	}

	rng := rand.New(rand.NewSource(27))
	for round := 0; round < 12; round++ {
		g := randomPlanGraph(t, rng)
		ev := oracleEvaluator(t, g)
		for i := 0; i < 25; i++ {
			check(ev, g, randomChainQuery(rng))
		}
	}
	if rows < 1000 {
		t.Errorf("the queries bound only %d rows in all", rows)
	}
}

// randomPlanGraph builds a small graph of A/B nodes and r/s edges —
// self-loops included — whose k and w properties are absent, scalar or
// two-element sets.
func randomPlanGraph(t *testing.T, rng *rand.Rand) *ppg.Graph {
	t.Helper()
	g := ppg.New("random_plan_graph")
	labels := [][]string{nil, {"A"}, {"B"}, {"A", "B"}}
	prop := func(props map[string]value.Value, key string) {
		switch rng.Intn(4) {
		case 0:
		case 1:
			props[key] = value.Set(value.Int(int64(rng.Intn(3))), value.Int(int64(3+rng.Intn(2))))
		default:
			props[key] = value.Int(int64(rng.Intn(3)))
		}
	}
	const nodes = 9
	for id := 1; id <= nodes; id++ {
		props := map[string]value.Value{}
		prop(props, "k")
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(id), Labels: ppg.NewLabels(labels[rng.Intn(len(labels))]...),
			Props: ppg.NewProperties(props)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 22; i++ {
		props := map[string]value.Value{}
		prop(props, "w")
		src := ppg.NodeID(1 + rng.Intn(nodes))
		dst := src // a self-loop now and then
		if rng.Intn(6) > 0 {
			dst = ppg.NodeID(1 + rng.Intn(nodes))
		}
		if err := g.AddEdge(&ppg.Edge{ID: ppg.EdgeID(100 + i), Src: src, Dst: dst,
			Labels: ppg.NewLabels([]string{"r", "s"}[rng.Intn(2)]), Props: ppg.NewProperties(props)}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// randomChainQuery writes a SELECT over one random chain of one to
// three edge patterns, sometimes behind an outer pattern it shares its
// first variable with through OPTIONAL.
func randomChainQuery(rng *rand.Rand) string {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var sel []string
	seen := map[string]bool{}
	out := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			sel = append(sel, v+" AS "+v)
		}
	}
	var sb strings.Builder
	var named []string
	node := func(i int) {
		v := pick("n0", "n1", "n2", "n3", "")
		if i > 1 && rng.Intn(4) == 0 {
			v = "n0" // a variable bound earlier in the chain
		}
		sb.WriteString("(" + v + pick("", "", ":A", ":B"))
		if rng.Intn(3) == 0 {
			b := pick("x", "y")
			sb.WriteString(" {k=" + b + "}")
			out(b)
		}
		sb.WriteString(")")
		out(v)
		if v != "" {
			named = append(named, v)
		}
	}
	links := 1 + rng.Intn(3)
	node(0)
	for i := 1; i <= links; i++ {
		ev := pick(fmt.Sprintf("e%d", i), "")
		body := ev + pick("", ":r", ":s")
		if rng.Intn(4) == 0 {
			b := pick("y", "z")
			body += " {w=" + b + "}"
			out(b)
		}
		out(ev)
		switch rng.Intn(3) {
		case 0:
			sb.WriteString("-[" + body + "]->")
		case 1:
			sb.WriteString("<-[" + body + "]-")
		default:
			sb.WriteString("-[" + body + "]-")
		}
		node(i)
	}
	chain := sb.String()
	where := ""
	if len(named) > 0 && rng.Intn(2) == 0 {
		where = fmt.Sprintf(" WHERE %s.k = %d", named[rng.Intn(len(named))], rng.Intn(3))
	}
	if len(sel) == 0 {
		sel = append(sel, "1 AS one")
	}
	if rng.Intn(4) == 0 {
		return fmt.Sprintf("SELECT o AS o, %s MATCH (o:A) OPTIONAL (o)-[:r]->%s%s", strings.Join(sel, ", "), chain, where)
	}
	return fmt.Sprintf("SELECT %s MATCH %s%s", strings.Join(sel, ", "), chain, where)
}
