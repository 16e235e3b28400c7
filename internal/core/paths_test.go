package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gcore/internal/core"
	"gcore/internal/ppg"
	"gcore/internal/snb"
	"gcore/internal/value"
)

// Path-pattern corner cases: directions, stored-path regex
// conformance, non-linear PATH views, k-shortest semantics.

func TestPathPatternBackward(t *testing.T) {
	ev := newToy(t)
	// (m)<-/p<:knows*>/-(n): paths INTO m — evaluated by reversing
	// the regex. Celine reached from John via Peter.
	g := run(t, ev, `CONSTRUCT (m)-/@p:rev/->(n)
MATCH (m:Person)<-/p<:knows*>/-(n:Person)
WHERE m.firstName = 'Celine' AND n.firstName = 'John'`).Graph
	if g.NumPaths() != 1 {
		t.Fatalf("paths = %d", g.NumPaths())
	}
	p, _ := g.Path(g.PathIDs()[0])
	// The stored walk runs in the arrow's direction: from n (John)
	// to m (Celine), per the formal x –w in r→ y semantics.
	if p.Nodes[0] != snb.John || p.Nodes[len(p.Nodes)-1] != snb.Celine {
		t.Errorf("walk = %v, want John…Celine", p.Nodes)
	}
	if len(p.Nodes) != 3 || p.Nodes[1] != snb.Peter {
		t.Errorf("walk = %v, want via Peter", p.Nodes)
	}
}

func TestPathPatternUndirected(t *testing.T) {
	ev := newToy(t)
	// An undirected path pattern matches both orientations; on the
	// bidirectional knows edges the same persons are reached.
	res := run(t, ev, `SELECT DISTINCT m.firstName AS name
MATCH (n:Person)-/<:knows+>/-(m:Person)
WHERE n.firstName = 'Celine'
ORDER BY name`)
	if res.Table.Len() != 5 {
		t.Fatalf("reached = %d, want 5\n%s", res.Table.Len(), res.Table)
	}
}

func TestInverseLabelRegex(t *testing.T) {
	ev := newToy(t)
	// hasInterest edges point Person→Tag; from the Tag side the
	// inverse atom walks them backwards.
	res := run(t, ev, `SELECT m.firstName AS fan
MATCH (w:Tag)-/<:hasInterest->/->(m:Person)
WHERE w.name = 'Wagner'
ORDER BY fan`)
	if res.Table.Len() != 2 {
		t.Fatalf("fans = %d\n%s", res.Table.Len(), res.Table)
	}
	first, _ := res.Table.Rows[0][0].Scalarize().AsString()
	if first != "Celine" {
		t.Errorf("first fan = %q", first)
	}
}

func TestNodeLabelTestInRegex(t *testing.T) {
	ev := newToy(t)
	// knows-walks whose intermediate node is a Person who likes
	// Wagner: John → (Peter fails !:… test)… use the Tag test:
	// a two-hop walk whose midpoint carries the Person label always
	// holds; whose midpoint carries the Tag label never does.
	resOK := run(t, ev, `SELECT DISTINCT m.firstName AS name
MATCH (n:Person)-/<:knows !:Person :knows>/->(m:Person)
WHERE n.firstName = 'John'
ORDER BY name`)
	if resOK.Table.Len() == 0 {
		t.Fatal("two-hop walks through a Person must exist")
	}
	resBad := run(t, ev, `SELECT DISTINCT m.firstName AS name
MATCH (n:Person)-/<:knows !:Tag :knows>/->(m:Person)
WHERE n.firstName = 'John'`)
	if resBad.Table.Len() != 0 {
		t.Fatalf("no knows-midpoint is a Tag; got %d rows", resBad.Table.Len())
	}
}

func TestStoredPathRegexConformance(t *testing.T) {
	ev := newToy(t)
	// The example graph's stored path 301 uses knows edges with mixed
	// directions: it conforms to (knows|knows⁻)* but not to knows*
	// read forward.
	res := run(t, ev, `SELECT id(p) AS pid
MATCH (a)-/@p<(:knows|:knows-)*>/->(b) ON example_graph`)
	if res.Table.Len() != 1 {
		t.Fatalf("conforming stored paths = %d, want 1", res.Table.Len())
	}
	res = run(t, ev, `SELECT id(p) AS pid
MATCH (a)-/@p<:hasInterest*>/->(b) ON example_graph`)
	if res.Table.Len() != 0 {
		t.Fatalf("path 301 must not conform to hasInterest*")
	}
}

func TestStoredPathBackwardMatch(t *testing.T) {
	ev := newToy(t)
	// Path 301 runs 105→103→102. Matching <-/@p/-(…) binds the left
	// node to the path's END.
	res := run(t, ev, `SELECT id(a) AS endpoint
MATCH (a)<-/@p:toWagner/-(b) ON example_graph`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	got, _ := res.Table.Rows[0][0].Scalarize().AsInt()
	if got != 102 {
		t.Errorf("left endpoint = %d, want 102 (path end)", got)
	}
}

func TestStoredPathCostVar(t *testing.T) {
	ev := newToy(t)
	res := run(t, ev, `SELECT c AS hops
MATCH (a)-/@p:toWagner COST c/->(b) ON example_graph`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d", res.Table.Len())
	}
	if !value.Equal(res.Table.Rows[0][0], value.Int(2)) {
		t.Errorf("stored path cost = %v, want 2 (hop count)", res.Table.Rows[0][0])
	}
}

func TestKShortestWalkSemantics(t *testing.T) {
	ev := newToy(t)
	// Walks may revisit nodes: 3 SHORTEST John→Peter over knows*
	// yields the 1-hop path and two 3-hop walks.
	res := run(t, ev, `SELECT c AS hops
MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'
ORDER BY hops`)
	if res.Table.Len() != 3 {
		t.Fatalf("paths = %d, want 3\n%s", res.Table.Len(), res.Table)
	}
	want := []int64{1, 3, 3}
	for i, w := range want {
		got, _ := res.Table.Rows[i][0].Scalarize().AsInt()
		if got != w {
			t.Errorf("cost[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestPathViewNonLinearPattern(t *testing.T) {
	ev := newToy(t)
	// Footnote 3: a PATH clause may take several comma-separated
	// patterns; joined variables are usable in COST. Here the cost of
	// a knows segment depends on the destination's interest count —
	// a variable (w) bound outside the walk pattern.
	g := run(t, ev, `PATH fanKnows = (x)-[e:knows]->(y), (y)-[:hasInterest]->(w)
     COST 1 / (1 + size(labels(w)))
CONSTRUCT (n)-/@p:viaFans/->(m)
MATCH (n:Person)-/p<~fanKnows*> COST c/->(m:Person)
WHERE n.firstName = 'Peter'`).Graph
	// Segments exist only into persons WITH interests: Celine, Frank.
	if g.NumPaths() != 3 {
		t.Fatalf("paths = %d, want 3 (empty path to Peter, Celine, Frank)", g.NumPaths())
	}
	ends := map[ppg.NodeID]bool{}
	for _, pid := range g.PathIDs() {
		p, _ := g.Path(pid)
		ends[p.Nodes[len(p.Nodes)-1]] = true
	}
	if !ends[snb.Celine] || !ends[snb.Frank] || !ends[snb.Peter] {
		t.Errorf("endpoints = %v", ends)
	}
}

func TestPathViewScopedToStatement(t *testing.T) {
	ev := newToy(t)
	// PATH views are head clauses: visible in the statement, gone
	// afterwards.
	run(t, ev, `PATH w = (x)-[e:knows]->(y)
CONSTRUCT (n) MATCH (n:Person)-/p<~w*>/->(m:Person) WHERE n.firstName = 'John'`)
	runErr(t, ev, `CONSTRUCT (n) MATCH (n:Person)-/p<~w*>/->(m:Person)`)
}

func TestPathViewReferencingEarlierView(t *testing.T) {
	ev := newToy(t)
	// A PATH clause may use views defined before it (§A.4: "can refer
	// to path views defined by other Path clauses appearing before").
	g := run(t, ev, `PATH hop = (x)-[e:knows]->(y) COST 1
PATH twohop = (x)-/q<~hop ~hop>/->(y) COST 2
CONSTRUCT (n)-/@p:pairs/->(m)
MATCH (n:Person)-/p<~twohop>/->(m:Person)
WHERE n.firstName = 'John'`).Graph
	// Two knows hops from John: back to John, or to Celine/Frank.
	if g.NumPaths() == 0 {
		t.Fatal("no two-hop paths found")
	}
	for _, pid := range g.PathIDs() {
		p, _ := g.Path(pid)
		if p.Length() != 2 {
			t.Errorf("path %v has %d hops, want 2", p.Nodes, p.Length())
		}
	}
}

func TestReachabilityWithBoundEndpoints(t *testing.T) {
	ev := newToy(t)
	// Both endpoints bound: the path pattern acts as a filter.
	res := run(t, ev, `SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:hasInterest]->(w:Tag), (m:Person)-[:hasInterest]->(w),
      (n)-/<:knows+>/->(m)
WHERE n.firstName = 'Celine'`)
	// Celine and Frank share the Wagner tag; Frank reachable via
	// Peter; also Celine reaches herself via knows+ (cycle).
	if res.Table.Len() != 2 {
		t.Fatalf("rows = %d\n%s", res.Table.Len(), res.Table)
	}
}

func TestEmptyPathToSelf(t *testing.T) {
	ev := newToy(t)
	// Kleene star admits the empty path: every node reaches itself.
	res := run(t, ev, `SELECT m.firstName AS name
MATCH (n:Person)-/<:nosuchlabel*>/->(m:Person)
WHERE n.firstName = 'John'`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (John himself)", res.Table.Len())
	}
	// Plus (one or more) does not.
	res = run(t, ev, `SELECT m.firstName AS name
MATCH (n:Person)-/<:nosuchlabel+>/->(m:Person)
WHERE n.firstName = 'John'`)
	if res.Table.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Table.Len())
	}
}

func TestDefaultRegexIsAnyEdgeStar(t *testing.T) {
	ev := newToy(t)
	// A path pattern without <…> defaults to _* (any edges).
	res := run(t, ev, `SELECT DISTINCT m.name AS name
MATCH (n:Person)-/SHORTEST p/->(m:Tag)
WHERE n.firstName = 'John'`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (the Wagner tag)\n%s", res.Table.Len(), res.Table)
	}
}

func TestPathsAreFirstClassInResults(t *testing.T) {
	ev := newToy(t)
	// Store paths, register the result, then query the stored paths
	// of the *result* — closure over the path part of the model.
	res := run(t, ev, `CONSTRUCT (n)-/@p:hop{len := c}/->(m)
MATCH (n:Person)-/SHORTEST p<:knows*> COST c/->(m:Person)
WHERE n.firstName = 'John'`)
	g := res.Graph
	g.SetName("hops")
	if err := ev.Catalog().RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	res2 := run(t, ev, `SELECT p.len AS len
MATCH ()-/@p:hop/->() ON hops
ORDER BY len DESC LIMIT 1`)
	if res2.Table.Len() != 1 {
		t.Fatalf("rows = %d", res2.Table.Len())
	}
	if v, _ := res2.Table.Rows[0][0].Scalarize().AsInt(); v != 2 {
		t.Errorf("max hop length = %d, want 2", v)
	}
}

func TestUndirectedReachabilityNoDuplicateRows(t *testing.T) {
	ev := newToy(t)
	// An undirected reachability pattern must not emit a (row, dst)
	// binding once per orientation — Ω is a set.
	res := run(t, ev, `SELECT m.firstName AS name
MATCH (n:Person)-/<:knows*>/-(m:Person)
WHERE n.firstName = 'John'`)
	seen := map[string]int{}
	for _, r := range res.Table.Rows {
		s, _ := r[0].Scalarize().AsString()
		seen[s]++
	}
	for name, cnt := range seen {
		if cnt != 1 {
			t.Errorf("%s appears %d times (duplicate bindings)", name, cnt)
		}
	}
	if len(seen) != 5 {
		t.Errorf("reached %d persons, want 5", len(seen))
	}
	// And COUNT(*) built on such a pattern stays correct.
	res = run(t, ev, `SELECT COUNT(*) AS n
MATCH (a:Person)-/<:knows*>/-(b:Person)
WHERE a.firstName = 'John'`)
	if v, _ := res.Table.Rows[0][0].AsInt(); v != 5 {
		t.Errorf("COUNT over undirected reach = %d, want 5", v)
	}
}

func TestUndirectedKShortestTakesGlobalK(t *testing.T) {
	ev := newToy(t)
	// An undirected 1-SHORTEST must yield ONE path per endpoint pair,
	// the cheapest across both orientations — not one per orientation.
	res := run(t, ev, `SELECT id(p) AS pid, c AS hops
MATCH (n:Person)-/SHORTEST p<:knows*> COST c/-(m:Person)
WHERE n.firstName = 'John' AND m.firstName = 'Peter'`)
	if res.Table.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%s", res.Table.Len(), res.Table)
	}
	if v, _ := res.Table.Rows[0][1].Scalarize().AsInt(); v != 1 {
		t.Errorf("hops = %d, want 1", v)
	}
}

func TestPathViewRejectsNonFiniteCost(t *testing.T) {
	ev := newToy(t)
	// A NaN or infinite COST has no place in the search's cost order:
	// the view must fail with an evaluation error, like a COST ≤ 0.
	// Arithmetic refuses to overflow; a parameter can still carry one.
	const view = `PATH w = (x)-[e:knows]->(y) COST %s
CONSTRUCT (n) MATCH (n:Person)-/p<~w*>/->(m:Person) WHERE n.firstName = 'John'`
	for _, c := range []struct {
		cost, want string
		param      value.Value
	}{
		{"1e308*10.0", "* has no finite result", value.Null},
		{"-(1e308*10.0)", "* has no finite result", value.Null},
		{"$c", "COST must be a finite number", value.Float(math.NaN())},
		{"$c", "COST must be a finite number", value.Float(math.Inf(1))},
	} {
		ex, err := ev.PrepareExec(fmt.Sprintf(view, c.cost), map[string]value.Value{"c": c.param}, core.ExecOpts{})
		if err == nil {
			_, err = ev.EvalExec(context.Background(), ex)
		}
		var ee *core.Error
		if !errors.As(err, &ee) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("COST %s = %v: error %v (%T), want an eval error naming %q", c.cost, c.param, err, err, c.want)
		}
	}
}

func TestPathViewAnonymousElements(t *testing.T) {
	ev := newToy(t)
	// A PATH view whose edge or endpoints are anonymous describes the
	// same segments as its fully named form.
	walks := func(view string) []string {
		g := run(t, ev, view+`
CONSTRUCT (n)-/@p:viaView/->(m)
MATCH (n:Person)-/p<~kk*>/->(m:Person) WHERE n.firstName = 'John'`).Graph
		var out []string
		for _, pid := range g.PathIDs() {
			p, _ := g.Path(pid)
			out = append(out, fmt.Sprint(p.Nodes, p.Edges))
		}
		slices.Sort(out)
		return out
	}
	want := walks(`PATH kk = (a)-[e:knows]->(b)`)
	if len(want) < 2 {
		t.Fatalf("named view found %d walks", len(want))
	}
	for _, view := range []string{
		`PATH kk = (a)-[:knows]->(b)`,
		`PATH kk = ()-[e:knows]->()`,
		`PATH kk = ()-[:knows]->()`,
	} {
		if got := walks(view); !slices.Equal(got, want) {
			t.Errorf("%s: walks %v, want %v", view, got, want)
		}
	}
}
