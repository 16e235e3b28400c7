package gcore_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"gcore"
)

func newEngine(t *testing.T, opts ...gcore.Option) *gcore.Engine {
	t.Helper()
	eng := gcore.NewEngine(opts...)
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterGraph(gcore.SampleCompanyGraph()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterTable(gcore.SampleOrdersTable()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEngineQuickstart(t *testing.T) {
	eng := newEngine(t)
	res, err := eng.Eval(`
		CONSTRUCT (n)
		MATCH (n:Person) ON social_graph
		WHERE n.employer = 'Acme'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph == nil || res.Graph.NumNodes() != 2 {
		t.Fatalf("result = %v", res.Graph)
	}
}

func TestEngineViewsPersist(t *testing.T) {
	eng := newEngine(t)
	if _, err := eng.Eval(`GRAPH VIEW acme AS (
		CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme')`); err != nil {
		t.Fatal(err)
	}
	g, ok := eng.Graph("acme")
	if !ok || g.NumNodes() != 2 {
		t.Fatalf("view = %v, %v", g, ok)
	}
	names := eng.GraphNames()
	if !contains(names, "acme") || !contains(names, "social_graph") {
		t.Errorf("names = %v", names)
	}
	// The view is queryable.
	res, err := eng.Eval(`CONSTRUCT (n) MATCH (n) ON acme WHERE n.firstName = 'John'`)
	if err != nil || res.Graph.NumNodes() != 1 {
		t.Fatalf("query over view: %v, %v", res, err)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestEngineEvalScript(t *testing.T) {
	eng := newEngine(t)
	results, err := eng.EvalScript(`
		GRAPH VIEW acme AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme');
		SELECT n.firstName AS name MATCH (n) ON acme ORDER BY name;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	tbl := results[1].Table
	if tbl == nil || tbl.Len() != 2 {
		t.Fatalf("table = %v", tbl)
	}
	if v, _ := tbl.Rows[0][0].Scalarize().AsString(); v != "Alice" {
		t.Errorf("first = %q", v)
	}
	// Errors carry the statement number.
	_, err = eng.EvalScript(`CONSTRUCT (n) MATCH (n); CONSTRUCT (n) MATCH (n) ON nope;`)
	if err == nil || !strings.Contains(err.Error(), "statement 2") {
		t.Errorf("err = %v", err)
	}
}

func TestEngineRejectsInvalidGraph(t *testing.T) {
	eng := gcore.NewEngine()
	g := gcore.NewGraph("bad")
	// A path with a missing node cannot even be built via AddPath, so
	// build a valid graph and corrupt nothing — instead check the
	// nameless-graph rejection path.
	if err := eng.RegisterGraph(gcore.NewGraph("")); err == nil {
		t.Error("nameless graph must be rejected")
	}
	_ = g
}

func TestEngineJSONRoundTrip(t *testing.T) {
	eng := newEngine(t)
	g, _ := eng.Graph("social_graph")
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	eng2 := gcore.NewEngine()
	loaded, err := eng2.LoadGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Error("JSON round trip changed the graph")
	}
	// Loaded graph is queryable and is the default.
	res, err := eng2.Eval(`CONSTRUCT (n) MATCH (n:Person)`)
	if err != nil || res.Graph.NumNodes() != 5 {
		t.Fatalf("query on loaded graph: %v, %v", res, err)
	}
}

func TestValueConstructors(t *testing.T) {
	if gcore.Int(3).IsNull() || !gcore.Null.IsNull() {
		t.Error("constructors misbehave")
	}
	d, err := gcore.Date("1/12/2014")
	if err != nil || d.IsNull() {
		t.Error("date constructor failed")
	}
	if _, err := gcore.Date("bogus"); err == nil {
		t.Error("bad date must fail")
	}
	s := gcore.SetOf(gcore.Str("a"), gcore.Str("a"))
	if s.Len() != 1 {
		t.Error("SetOf must deduplicate")
	}
	l := gcore.ListOf(gcore.Int(1), gcore.Int(1))
	if l.Len() != 2 {
		t.Error("ListOf must preserve duplicates")
	}
	if b, ok := gcore.Bool(true).AsBool(); !ok || !b {
		t.Error("booleans misbehave")
	}
	if gcore.Float(0.5).IsNull() {
		t.Error("float constructor failed")
	}
}

func TestGraphSetOpsPublic(t *testing.T) {
	a := gcore.SampleSocialGraph()
	b := gcore.SampleSocialGraph()
	u := gcore.GraphUnion("u", a, b)
	if u.NumNodes() != a.NumNodes() {
		t.Error("union of identical graphs must be idempotent")
	}
	i := gcore.GraphIntersect("i", a, b)
	if i.NumNodes() != a.NumNodes() {
		t.Error("intersection of identical graphs must be identity")
	}
	m := gcore.GraphMinus("m", a, b)
	if !m.IsEmpty() {
		t.Error("difference with itself must be empty")
	}
}

func TestIDAllocation(t *testing.T) {
	eng := newEngine(t)
	n1 := eng.NextNodeID()
	e1 := eng.NextEdgeID()
	p1 := eng.NextPathID()
	if uint64(n1) == uint64(e1) || uint64(e1) == uint64(p1) {
		t.Error("identifier collision")
	}
	// Fresh ids never collide with dataset ids.
	g, _ := eng.Graph("social_graph")
	if _, ok := g.Node(n1); ok {
		t.Error("fresh id collides with dataset")
	}
}

func TestGenerateSNB(t *testing.T) {
	social, companies := gcore.GenerateSNB(gcore.SNBConfig{Persons: 40, Seed: 1})
	if social.NumNodes() == 0 || companies.NumNodes() == 0 {
		t.Fatal("generator produced empty graphs")
	}
	eng := gcore.NewEngine()
	s2, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 40, Seed: 1})
	if err := eng.RegisterGraph(s2); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person)`)
	if err != nil || res.Graph.NumNodes() != 40 {
		t.Fatalf("generated persons = %v, %v", res, err)
	}
}

func TestParsePublic(t *testing.T) {
	stmt, err := gcore.Parse(`CONSTRUCT (n) MATCH (n:Person)`)
	if err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	res, err := eng.EvalStatement(stmt)
	if err != nil || res.Graph.NumNodes() != 5 {
		t.Fatalf("EvalStatement: %v, %v", res, err)
	}
	if _, err := gcore.Parse(`MATCH`); err == nil {
		t.Error("parse error expected")
	}
}

func TestEngineConcurrentEval(t *testing.T) {
	eng := newEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'`)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicHelpers(t *testing.T) {
	ls := gcore.NewLabels("B", "A", "B")
	if len(ls) != 2 || !ls.Has("A") {
		t.Errorf("NewLabels = %v", ls)
	}
	props := gcore.NewProperties(map[string]gcore.Value{"k": gcore.Int(1)})
	if props.Get("k").Len() != 1 {
		t.Errorf("NewProperties = %v", props)
	}
	tbl, err := gcore.ReadTableCSV("t", strings.NewReader("a,b\n1,x\n"))
	if err != nil || tbl.Len() != 1 {
		t.Fatalf("ReadTableCSV: %v, %v", tbl, err)
	}
	eng := newEngine(t)
	names := eng.TableNames()
	if len(names) != 1 || names[0] != "orders" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestExplainPublic(t *testing.T) {
	eng := newEngine(t)
	plan, err := eng.Explain(`CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'`)
	if err != nil || !strings.Contains(plan, "node scan") {
		t.Errorf("plan = %q, %v", plan, err)
	}
	if _, err := eng.Explain(`MATCH`); err == nil {
		t.Error("bad query must fail to explain")
	}
}

func TestMaxBindingsBudget(t *testing.T) {
	eng := newEngine(t, gcore.WithLimits(gcore.Limits{MaxBindings: 100}))
	// Five disconnected unlabeled patterns: a cartesian monster.
	_, err := eng.Eval(`CONSTRUCT (a) MATCH (a), (b), (c), (d), (e)`)
	if err == nil || !strings.Contains(err.Error(), "binding limit") {
		t.Fatalf("budget not enforced: %v", err)
	}
	// Normal queries still fit.
	res, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person)`)
	if err != nil || res.Graph.NumNodes() != 5 {
		t.Fatalf("normal query under budget: %v, %v", res, err)
	}
	// A session lifts the limit for its own statements.
	sess := eng.NewSession()
	sess.SetLimits(gcore.Limits{})
	if _, err := sess.EvalContext(context.Background(), `CONSTRUCT (a) MATCH (a:Tag), (b:Tag), (c:Tag), (d:Tag), (e:Tag)`); err != nil {
		t.Fatalf("unlimited: %v", err)
	}
}
