package parser

import (
	"sort"
	"strings"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/lexer"
)

// TestParseAllPaperQueries parses every numbered example of the paper
// and round-trips it through the canonical printer.
func TestParseAllPaperQueries(t *testing.T) {
	keys := make([]string, 0, len(PaperQueries))
	for k := range PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		src := PaperQueries[k]
		t.Run(k, func(t *testing.T) {
			stmt, err := Parse(src)
			if err != nil {
				t.Fatalf("parse: %v\nquery:\n%s", err, src)
			}
			// Round trip: the canonical rendering must parse to the
			// same canonical rendering.
			printed := stmt.String()
			again, err := Parse(printed)
			if err != nil {
				t.Fatalf("reparse of printed form: %v\nprinted:\n%s", err, printed)
			}
			if again.String() != printed {
				t.Fatalf("round trip unstable:\nfirst:\n%s\nsecond:\n%s", printed, again.String())
			}
		})
	}
}

func mustParse(t *testing.T, src string) *ast.Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseSimpleConstructMatch(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L01"])
	bq, ok := stmt.Query.(*ast.BasicQuery)
	if !ok {
		t.Fatalf("query type %T", stmt.Query)
	}
	if len(bq.Construct.Items) != 1 || bq.Construct.Items[0].Pattern == nil {
		t.Fatal("construct shape wrong")
	}
	m := bq.Match
	if len(m.Patterns) != 1 {
		t.Fatal("match shape wrong")
	}
	lp := m.Patterns[0]
	if lp.OnGraph != "social_graph" {
		t.Errorf("ON = %q", lp.OnGraph)
	}
	n := lp.Pattern.Nodes[0]
	if n.Var != "n" || !hasLabel(n.Labels, "Person") {
		t.Errorf("node = %+v", n)
	}
	if m.Where == nil {
		t.Error("WHERE lost")
	}
}

func hasLabel(ls ast.LabelSpec, name string) bool {
	for _, disj := range ls {
		for _, l := range disj {
			if l == name {
				return true
			}
		}
	}
	return false
}

func TestParseSetOpQuery(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L05"])
	sq, ok := stmt.Query.(*ast.SetQuery)
	if !ok {
		t.Fatalf("top query is %T, want SetQuery", stmt.Query)
	}
	if sq.Op != ast.SetUnion {
		t.Errorf("op = %v", sq.Op)
	}
	right, ok := sq.Right.(*ast.BasicQuery)
	if !ok || right.Construct.Items[0].GraphName != "social_graph" {
		t.Error("UNION graph-name shorthand lost")
	}
	left := sq.Left.(*ast.BasicQuery)
	if len(left.Match.Patterns) != 2 {
		t.Error("two located patterns expected")
	}
	if left.Match.Patterns[0].OnGraph != "company_graph" {
		t.Error("per-pattern ON lost")
	}
	// The construct pattern (c)<-[:worksAt]-(n) has an inward edge.
	gp := left.Construct.Items[0].Pattern
	e := gp.Links[0].(*ast.EdgePattern)
	if e.Dir != ast.DirIn || !hasLabel(e.Labels, "worksAt") {
		t.Errorf("edge = %+v", e)
	}
}

func TestParsePropertyBinding(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L15"])
	bq := stmt.Query.(*ast.SetQuery).Left.(*ast.BasicQuery)
	n := bq.Match.Patterns[1].Pattern.Nodes[0]
	if len(n.Props) != 1 {
		t.Fatalf("props = %+v", n.Props)
	}
	p := n.Props[0]
	if p.Mode != ast.PropBind || p.Key != "employer" || p.Var != "e" {
		t.Errorf("prop = %+v", p)
	}
}

func TestParseGroupConstruct(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L20"])
	bq := stmt.Query.(*ast.BasicQuery)
	if bq.Construct.Items[0].GraphName != "social_graph" {
		t.Error("graph-name construct item lost")
	}
	gp := bq.Construct.Items[1].Pattern
	x := gp.Nodes[0]
	if x.Var != "x" || len(x.Group) != 1 {
		t.Fatalf("group node = %+v", x)
	}
	if v, ok := x.Group[0].(*ast.VarRef); !ok || v.Name != "e" {
		t.Errorf("group expr = %+v", x.Group[0])
	}
	if len(x.Props) != 1 || x.Props[0].Mode != ast.PropAssign {
		t.Errorf("assign prop = %+v", x.Props)
	}
}

func TestParsePathPatterns(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L23"])
	bq := stmt.Query.(*ast.BasicQuery)

	// CONSTRUCT side: stored path with label and assignment.
	cp := bq.Construct.Items[0].Pattern.Links[0].(*ast.PathPattern)
	if !cp.Stored || cp.Var != "p" || !hasLabel(cp.Labels, "localPeople") {
		t.Errorf("construct path = %+v", cp)
	}
	if len(cp.Props) != 1 || cp.Props[0].Key != "distance" || cp.Props[0].Mode != ast.PropAssign {
		t.Errorf("construct path props = %+v", cp.Props)
	}

	// MATCH side: 3 SHORTEST with COST.
	mp := bq.Match.Patterns[0].Pattern.Links[0].(*ast.PathPattern)
	if mp.K != 3 || mp.Mode != ast.PathShortest || mp.Var != "p" || mp.CostVar != "c" {
		t.Errorf("match path = %+v", mp)
	}
	if mp.Regex == nil || mp.Regex.String() != "(:knows)*" {
		t.Errorf("regex = %v", mp.Regex)
	}
	// WHERE contains label tests and an existential pattern.
	found := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.Binary:
			walk(x.L)
			walk(x.R)
		case *ast.PatternPred:
			found = true
		}
	}
	walk(bq.Match.Where)
	if !found {
		t.Error("implicit existential pattern not recognised in WHERE")
	}
}

func TestParseReachabilityAndAll(t *testing.T) {
	r := mustParse(t, PaperQueries["L28"]).Query.(*ast.BasicQuery)
	rp := r.Match.Patterns[0].Pattern.Links[0].(*ast.PathPattern)
	if rp.Mode != ast.PathReach || rp.Var != "" {
		t.Errorf("reach path = %+v", rp)
	}
	a := mustParse(t, PaperQueries["L32"]).Query.(*ast.BasicQuery)
	ap := a.Match.Patterns[0].Pattern.Links[0].(*ast.PathPattern)
	if ap.Mode != ast.PathAll || ap.Var != "p" {
		t.Errorf("all path = %+v", ap)
	}
	// The construct side projects p without storing: -/p/->.
	cp := a.Construct.Items[0].Pattern.Links[0].(*ast.PathPattern)
	if cp.Stored || cp.Var != "p" || cp.Regex != nil {
		t.Errorf("projection path = %+v", cp)
	}
}

func TestParseViewWithOptional(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L39"])
	if len(stmt.Graphs) != 1 || !stmt.Graphs[0].View || stmt.Graphs[0].Name != "social_graph1" {
		t.Fatalf("graph clause = %+v", stmt.Graphs)
	}
	body := stmt.Graphs[0].Body
	bq := body.Query.(*ast.BasicQuery)
	if len(bq.Match.Optionals) != 1 {
		t.Fatalf("optionals = %d", len(bq.Match.Optionals))
	}
	ob := bq.Match.Optionals[0]
	if len(ob.Patterns) != 3 || ob.Where == nil {
		t.Errorf("optional block = %+v", ob)
	}
	// Disjunctive label: msg1:Post|Comment.
	msg1 := ob.Patterns[0].Pattern.Nodes[1]
	if len(msg1.Labels) != 1 || len(msg1.Labels[0]) != 2 {
		t.Errorf("disjunctive label = %+v", msg1.Labels)
	}
	// SET sub-clause with aggregate.
	sets := bq.Construct.Items[1].Sets
	if len(sets) != 1 || sets[0].Var != "e" || sets[0].Key != "nr_messages" {
		t.Fatalf("sets = %+v", sets)
	}
	if fc, ok := sets[0].Expr.(*ast.FuncCall); !ok || !fc.Star || fc.Name != "count" {
		t.Errorf("aggregate = %+v", sets[0].Expr)
	}
}

func TestParsePathClauseAndWeighted(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L57"])
	if len(stmt.Graphs) != 1 {
		t.Fatal("view lost")
	}
	body := stmt.Graphs[0].Body
	if len(body.Paths) != 1 {
		t.Fatal("PATH clause lost")
	}
	pc := body.Paths[0]
	if pc.Name != "wKnows" || pc.Where == nil || pc.Cost == nil {
		t.Fatalf("path clause = %+v", pc)
	}
	bq := body.Query.(*ast.BasicQuery)
	mp := bq.Match.Patterns[0].Pattern.Links[0].(*ast.PathPattern)
	if mp.Regex == nil || mp.Regex.String() != "(~wKnows)*" {
		t.Errorf("weighted regex = %v", mp.Regex)
	}
	if len(mp.Regex.Views()) != 1 || mp.Regex.Views()[0] != "wKnows" {
		t.Errorf("views = %v", mp.Regex.Views())
	}
	if bq.Match.Patterns[0].OnGraph != "social_graph1" {
		t.Errorf("ON = %q", bq.Match.Patterns[0].OnGraph)
	}
}

func TestParseStoredPathQuery(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L67"])
	bq := stmt.Query.(*ast.BasicQuery)
	item := bq.Construct.Items[0]
	if item.When == nil {
		t.Error("WHEN lost")
	}
	ep := item.Pattern.Links[0].(*ast.EdgePattern)
	if ep.Var != "e" || !hasLabel(ep.Labels, "wagnerFriend") {
		t.Errorf("edge = %+v", ep)
	}
	mp := bq.Match.Patterns[0].Pattern.Links[0].(*ast.PathPattern)
	if !mp.Stored || mp.Var != "p" || !hasLabel(mp.Labels, "toWagner") {
		t.Errorf("stored path = %+v", mp)
	}
	// WHERE n = nodes(p)[1]
	b := bq.Match.Where.(*ast.Binary)
	if b.Op != ast.OpEq {
		t.Errorf("where op = %v", b.Op)
	}
	if _, ok := b.R.(*ast.Index); !ok {
		t.Errorf("index expr = %T", b.R)
	}
}

func TestParseSelect(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L72"])
	bq := stmt.Query.(*ast.BasicQuery)
	if bq.Select == nil || bq.Construct != nil {
		t.Fatal("SELECT shape wrong")
	}
	if len(bq.Select.Items) != 1 || bq.Select.Items[0].As != "friendName" {
		t.Errorf("select items = %+v", bq.Select.Items)
	}
}

func TestParseFrom(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L76"])
	bq := stmt.Query.(*ast.BasicQuery)
	if bq.From != "orders" || bq.Match != nil {
		t.Errorf("FROM = %q", bq.From)
	}
	if len(bq.Construct.Items) != 3 {
		t.Errorf("items = %d", len(bq.Construct.Items))
	}
}

func TestParseTableAsGraph(t *testing.T) {
	stmt := mustParse(t, PaperQueries["L81"])
	bq := stmt.Query.(*ast.BasicQuery)
	cust := bq.Construct.Items[0].Pattern.Nodes[0]
	if len(cust.Group) != 1 {
		t.Fatalf("group = %+v", cust.Group)
	}
	if pa, ok := cust.Group[0].(*ast.PropAccess); !ok || pa.Var != "o" || pa.Key != "custName" {
		t.Errorf("group expr = %+v", cust.Group[0])
	}
}

func TestParseRegexVariants(t *testing.T) {
	cases := map[string]string{
		`CONSTRUCT (a) MATCH (a)-/<:knows->/->(b)`:           "(:knows-)",
		`CONSTRUCT (a) MATCH (a)-/<_>/->(b)`:                 "(_)",
		`CONSTRUCT (a) MATCH (a)-/<_->/->(b)`:                "(_-)",
		`CONSTRUCT (a) MATCH (a)-/<!:Person>/->(b)`:          "(!:Person)",
		`CONSTRUCT (a) MATCH (a)-/<:a :b>/->(b)`:             "(:a :b)",
		`CONSTRUCT (a) MATCH (a)-/<:a|:b>/->(b)`:             "((:a|:b))",
		`CONSTRUCT (a) MATCH (a)-/<(:a :b)+>/->(b)`:          "((:a :b)+)",
		`CONSTRUCT (a) MATCH (a)-/<:a?>/->(b)`:               "((:a)?)",
		`CONSTRUCT (a) MATCH (a)-/<(:knows|:knows-)*>/->(b)`: "(((:knows|:knows-))*)",
	}
	for src, want := range cases {
		stmt := mustParse(t, src)
		bq := stmt.Query.(*ast.BasicQuery)
		pp := bq.Match.Patterns[0].Pattern.Links[0].(*ast.PathPattern)
		got := "(" + pp.Regex.String() + ")"
		if got != want {
			t.Errorf("%s: regex = %s, want %s", src, got, want)
		}
	}
}

func TestParseEdgeDirections(t *testing.T) {
	stmt := mustParse(t, `CONSTRUCT (a) MATCH (a)-[x]->(b)<-[y]-(c)-[z]-(d)--(e)->(f)`)
	gp := stmt.Query.(*ast.BasicQuery).Match.Patterns[0].Pattern
	dirs := []ast.Direction{ast.DirOut, ast.DirIn, ast.DirBoth, ast.DirBoth, ast.DirOut}
	if len(gp.Links) != 5 {
		t.Fatalf("links = %d", len(gp.Links))
	}
	for i, want := range dirs {
		e := gp.Links[i].(*ast.EdgePattern)
		if e.Dir != want {
			t.Errorf("link %d dir = %v, want %v", i, e.Dir, want)
		}
	}
}

func TestParseCopyForms(t *testing.T) {
	stmt := mustParse(t, `CONSTRUCT (=n)-[=y]->(m) MATCH (n)-[y]->(m)`)
	gp := stmt.Query.(*ast.BasicQuery).Construct.Items[0].Pattern
	if !gp.Nodes[0].Copy || gp.Nodes[0].Var != "n" {
		t.Error("node copy form lost")
	}
	if e := gp.Links[0].(*ast.EdgePattern); !e.Copy || e.Var != "y" {
		t.Error("edge copy form lost")
	}
}

func TestParseCaseExpr(t *testing.T) {
	e, err := ParseExpr(`CASE WHEN size(n.employer) = 0 THEN 'none' ELSE n.employer END`)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := e.(*ast.Case)
	if !ok || len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("case = %+v", e)
	}
	// Operand form.
	e2, err := ParseExpr(`CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END`)
	if err != nil {
		t.Fatal(err)
	}
	c2 := e2.(*ast.Case)
	if c2.Operand == nil || len(c2.Whens) != 2 || c2.Else != nil {
		t.Fatalf("case2 = %+v", c2)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr(`1 + 2 * 3 = 7 AND NOT FALSE OR x IN y`)
	if err != nil {
		t.Fatal(err)
	}
	got := ast.ExprString(e)
	want := `(((1 + (2 * 3)) = 7) AND NOT FALSE) OR (x IN y)`
	// The printer parenthesises every binary, so compare structure.
	if !strings.Contains(got, "(2 * 3)") || !strings.Contains(got, "OR") {
		t.Errorf("precedence wrong: %s (want shape %s)", got, want)
	}
	or := e.(*ast.Binary)
	if or.Op != ast.OpOr {
		t.Fatalf("top op = %v", or.Op)
	}
	and := or.L.(*ast.Binary)
	if and.Op != ast.OpAnd {
		t.Fatalf("left op = %v", and.Op)
	}
}

func TestParseDateLiteral(t *testing.T) {
	e, err := ParseExpr(`DATE '1/12/2014'`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ast.Literal); !ok {
		t.Fatalf("date literal = %T", e)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`MATCH (n)`,                                        // missing CONSTRUCT
		`CONSTRUCT (n MATCH (n)`,                           // unclosed node
		`CONSTRUCT (n) MATCH (n:)`,                         // missing label
		`CONSTRUCT (n) MATCH (n)-[e](m)`,                   // malformed edge
		`CONSTRUCT (n) MATCH (n)<-[e]->(m)`,                // both directions
		`CONSTRUCT (n) MATCH (n)-/<:a/->(m)`,               // unclosed regex
		`CONSTRUCT (n) MATCH (n) WHERE`,                    // missing expression
		`CONSTRUCT (n) MATCH (n) WHERE foo(1)`,             // unknown function
		`SELECT 1`,                                         // SELECT without MATCH/FROM
		`CONSTRUCT (n) MATCH (n) WHERE CASE END`,           // CASE without WHEN
		`GRAPH g AS ()`,                                    // empty view body
		`CONSTRUCT (n) MATCH (n)-/@/->(m)`,                 // @ without variable
		`CONSTRUCT (n) MATCH (n) extra`,                    // trailing tokens
		`CONSTRUCT (n) MATCH (n)-/0 SHORTEST q<:a*>/->(m)`, // k < 1
		`PATH p = (a)-[e]->(b)`,                            // path clause alone: no query — allowed? see below
	}
	for _, src := range cases[:len(cases)-1] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	// A statement with only a PATH clause is a definition-only
	// statement and must parse.
	if _, err := Parse(cases[len(cases)-1]); err != nil {
		t.Errorf("definition-only PATH statement should parse: %v", err)
	}
}

func TestParseAllStatements(t *testing.T) {
	stmts, err := ParseAll(`CONSTRUCT (n) MATCH (n); CONSTRUCT (m) MATCH (m:Tag);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("statements = %d", len(stmts))
	}
	// A missing semicolon fails with Parse's error text, so a single
	// statement reports the same error whichever way it is parsed.
	const missing = `CONSTRUCT (n) MATCH (n) CONSTRUCT (m)`
	_, err = ParseAll(missing)
	_, want := Parse(missing)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("ParseAll error = %v, Parse error = %v", err, want)
	}
}

// TestParseAllStatementText: each statement's text is the exact source
// from its first token to its last, and its position is the one it has
// in the whole script.
func TestParseAllStatementText(t *testing.T) {
	type want struct {
		text string
		pos  lexer.Pos
	}
	for _, c := range []struct {
		src  string
		want []want
	}{
		{"CONSTRUCT (n) MATCH (n);\nSELECT n.x MATCH (n);\n", []want{
			{"CONSTRUCT (n) MATCH (n)", lexer.Pos{Line: 1, Col: 1}},
			{"SELECT n.x MATCH (n)", lexer.Pos{Line: 2, Col: 1}},
		}},
		// No trailing semicolon: the last statement is still returned.
		{"CONSTRUCT (n) MATCH (n)", []want{{"CONSTRUCT (n) MATCH (n)", lexer.Pos{Line: 1, Col: 1}}}},
		// Comments and blanks around a statement are not its text;
		// comments inside it are.
		{"# lead\n  CONSTRUCT (n) /* in */ MATCH (n) # trail\n ;\n\tSELECT n.x MATCH (n)  ", []want{
			{"CONSTRUCT (n) /* in */ MATCH (n)", lexer.Pos{Line: 2, Col: 3}},
			{"SELECT n.x MATCH (n)", lexer.Pos{Line: 4, Col: 2}},
		}},
		// Empty and comment-only sources hold no statement.
		{"", nil},
		{"  \n", nil},
		{"# just a comment\n", nil},
		{"/* block */", nil},
	} {
		stmts, err := ParseAll(c.src)
		if err != nil {
			t.Fatalf("ParseAll(%q): %v", c.src, err)
		}
		if len(stmts) != len(c.want) {
			t.Fatalf("ParseAll(%q) = %d statements, %v; want %d", c.src, len(stmts), stmts, len(c.want))
		}
		for i, w := range c.want {
			st := stmts[i]
			if st.Text != w.text || st.AST.Pos() != w.pos {
				t.Errorf("ParseAll(%q) statement %d = %q at %v, want %q at %v", c.src, i, st.Text, st.AST.Pos(), w.text, w.pos)
			}
			// Each text parses on its own to the same statement.
			alone, err := Parse(st.Text)
			if err != nil || alone.String() != st.AST.String() {
				t.Errorf("Parse(%q) = %v, %v; want %s", st.Text, alone, err, st.AST)
			}
		}
	}
}

func TestParseIntersectMinus(t *testing.T) {
	stmt := mustParse(t, `CONSTRUCT (n) MATCH (n:A) INTERSECT CONSTRUCT (n) MATCH (n:B) MINUS g3`)
	sq := stmt.Query.(*ast.SetQuery)
	if sq.Op != ast.SetMinus {
		t.Fatalf("top op = %v (left-assoc expected)", sq.Op)
	}
	inner := sq.Left.(*ast.SetQuery)
	if inner.Op != ast.SetIntersect {
		t.Fatalf("inner op = %v", inner.Op)
	}
}

func TestParseOnSubquery(t *testing.T) {
	stmt := mustParse(t, `CONSTRUCT (n) MATCH (n:Person) ON (CONSTRUCT (m) MATCH (m:Person) ON g2)`)
	lp := stmt.Query.(*ast.BasicQuery).Match.Patterns[0]
	if lp.OnQuery == nil {
		t.Fatal("ON (subquery) lost")
	}
}
