package gcore_test

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"gcore"
)

// farNodeGraph is two P nodes joined by one knows edge and one stored
// path along it; the far node carries a two-valued emp set.
func farNodeGraph(t *testing.T) *gcore.Engine {
	t.Helper()
	g := gcore.NewGraph("far")
	for _, n := range []*gcore.Node{
		{ID: 1, Labels: gcore.NewLabels("P"), Props: gcore.NewProperties(map[string]gcore.Value{"name": gcore.Str("a")})},
		{ID: 2, Labels: gcore.NewLabels("P"), Props: gcore.NewProperties(map[string]gcore.Value{
			"name": gcore.Str("b"), "emp": gcore.SetOf(gcore.Str("X"), gcore.Str("Y"))})},
	} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(&gcore.Edge{ID: 10, Src: 1, Dst: 2, Labels: gcore.NewLabels("knows")}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPath(&gcore.Path{ID: 100, Nodes: []gcore.NodeID{1, 2}, Edges: []gcore.EdgeID{10}}); err != nil {
		t.Fatal(err)
	}
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(g); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPathPatternFarNodeBind: a {k = v} binding on the node a path
// pattern arrives at binds v once per element of the property's value
// set, exactly as it does after a plain edge.
func TestPathPatternFarNodeBind(t *testing.T) {
	eng := farNodeGraph(t)
	const tmpl = `SELECT e AS e MATCH (n:P)LINK(m:P {emp=e}) WHERE n.name = 'a' ORDER BY e`
	want := renderResult(eng.Eval(strings.Replace(tmpl, "LINK", "-[:knows]->", 1)))
	if !strings.Contains(want, `"X"`) || !strings.Contains(want, `"Y"`) {
		t.Fatalf("edge form does not bind both employers:\n%s", want)
	}
	for _, c := range []struct{ name, link string }{
		{"reach", "-/<:knows*>/->"},
		{"shortest", "-/p<:knows*>/->"},
		{"3-shortest", "-/3 SHORTEST p<:knows*>/->"},
		{"stored", "-/@p/->"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := renderResult(eng.Eval(strings.Replace(tmpl, "LINK", c.link, 1))); got != want {
				t.Fatalf("got:\n%s\nwant (edge form):\n%s", got, want)
			}
		})
	}
}

// TestPathPatternGateErrorOrder: a WHERE conjunct that raises on some
// destinations, placed before or after a column-compilable filter on
// the far node, raises exactly when conjunct-by-conjunct evaluation in
// WHERE order would — a destination filter applied before the path rows
// exist must not swallow an error that an earlier conjunct raises on a
// row the filter drops. Node 1016 is reachable from the anchor and is
// not a Doe, so `10 / (id(m) - 1016)` raises there and nowhere else.
func TestPathPatternGateErrorOrder(t *testing.T) {
	const (
		doe   = `m.lastName = 'Doe'`
		raise = `10 / (id(m) - 1016) > 0`
		// cost and path variables are bound by the same step as m.
		raiseCost = `10 / (c - 1) > 0`
		raisePath = `10 / (size(nodes(p)) - 2) > 0`
	)
	for _, c := range []struct {
		name, match, where string
		wantErr            string // "" = the statement succeeds
	}{
		{"reach/raise-first", `(n:Person)-/<:knows*>/->(m:Person)`, raise + ` AND ` + doe, "division by zero"},
		{"reach/raise-last", `(n:Person)-/<:knows*>/->(m:Person)`, doe + ` AND ` + raise, ""},
		{"shortest3/raise-first", `(n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)`, raise + ` AND ` + doe, "division by zero"},
		{"shortest3/raise-last", `(n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)`, doe + ` AND ` + raise, ""},
		{"shortest3/cost-first", `(n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)`, raiseCost + ` AND ` + doe, "division by zero"},
		{"shortest3/path-first", `(n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)`, raisePath + ` AND ` + doe, "division by zero"},
		{"shortest3-in/raise-first", `(n:Person)<-/3 SHORTEST p<:knows*> COST c/-(m:Person)`, raise + ` AND ` + doe, "division by zero"},
		{"shortest3-both/raise-first", `(n:Person)-/3 SHORTEST p<:knows*> COST c/-(m:Person)`, raise + ` AND ` + doe, "division by zero"},
		{"shortest3-both/raise-last", `(n:Person)-/3 SHORTEST p<:knows*> COST c/-(m:Person)`, doe + ` AND ` + raise, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := `SELECT id(m) AS id MATCH ` + c.match + ` WHERE n.anchor = TRUE AND ` + c.where
			_, err := goldenSNB(t).Eval(q)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected error %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want %q", err, c.wantErr)
			}
		})
	}
}

// TestPathPatternConcurrentDeref runs one cached k-shortest statement that
// dereferences its path variable in WHERE — once where the path is
// bound and once after an expansion has copied each path into several
// rows — from eight goroutines on one engine, which share its cached
// plan and snapshots. Every run must render the single-goroutine
// result. Run under -race.
func TestPathPatternConcurrentDeref(t *testing.T) {
	const q = `SELECT id(m) AS m, id(o) AS o, size(nodes(p)) AS len
MATCH (n:Person)-/3 SHORTEST p<:knows*>/->(m:Person)-[:knows]->(o:Person)
WHERE n.anchor = TRUE AND size(nodes(p)) > 2 AND o IN nodes(p) ORDER BY m, o, len`
	want := renderResult(goldenSNB(t).Eval(q))
	if strings.HasPrefix(want, "ERR") || strings.Count(want, "\n") < 10 {
		t.Fatalf("degenerate oracle:\n%s", want)
	}
	eng := goldenSNB(t)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				got[i] = renderResult(eng.Eval(q))
				if got[i] != want {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d:\n%s\nwant:\n%s", i, g, want)
		}
	}
}

// TestPathPatternWalksBuiltOnDeref: a k-shortest path step builds a
// walk only for a path variable something dereferences — never for
// cost and length, never for a destination the filter drops — and the
// engine counts both sides at /metrics and in the EXPLAIN ANALYZE
// footer.
func TestPathPatternWalksBuiltOnDeref(t *testing.T) {
	const match = `MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.anchor = TRUE`
	eng := goldenSNB(t)
	var found, built int64
	for _, c := range []struct {
		name, query string
		built       func(found, rows int64) int64
	}{
		{"cost-and-length", `SELECT id(m) AS id, c AS c, cost(p) AS w, length(p) AS l ` + match,
			func(int64, int64) int64 { return 0 }},
		{"filtered-construct", `CONSTRUCT (n)-/@p:sp/->(m) ` + match + ` AND m.lastName = 'Doe'`,
			func(_, rows int64) int64 { return rows }},
		// CONSTRUCT reads a stored walk's ordinals off the search, and
		// the assignment builds its node sequence: one walk, built once.
		{"construct-and-nodes", `CONSTRUCT (n)-/@p:sp {hops := size(nodes(p))}/->(m) ` + match + ` AND m.lastName = 'Doe'`,
			func(_, rows int64) int64 { return rows }},
		// A projected walk adds its constituents and stores no path; the
		// filter keeps the 21 walks the footer below reports.
		{"projected-construct", `CONSTRUCT (n)-/p/->(m) ` + match + ` AND m.lastName = 'Doe'`,
			func(int64, int64) int64 { return 21 }},
		{"nodes", `SELECT id(m) AS id, size(nodes(p)) AS s ` + match,
			func(found, _ int64) int64 { return found }},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := eng.Eval(c.query)
			if err != nil {
				t.Fatal(err)
			}
			rows := int64(0)
			if res.Graph != nil {
				rows = int64(res.Graph.NumPaths())
			}
			m := eng.Metrics()
			f, b := m.RPQWalksFound-found, m.RPQWalksBuilt-built
			found, built = m.RPQWalksFound, m.RPQWalksBuilt
			if f == 0 || b != c.built(f, rows) {
				t.Fatalf("walks %d built of %d, want %d built", b, f, c.built(f, rows))
			}
		})
	}
	res, err := eng.Eval(`EXPLAIN ANALYZE CONSTRUCT (n)-/@p:sp/->(m) ` + match + ` AND m.lastName = 'Doe'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "walks 21 built of 180)") {
		t.Fatalf("footer does not report the built walks:\n%s", res.Plan)
	}
}

// TestShortestArrivalCounts pins the k-shortest frontier on SNB-2000
// from pid 42 for the path_analytics shapes: a search queues only
// arrivals that can settle, so it pops each of the 2 000 persons' k
// walks once — 6 000 arrivals for one shortest walk per node, 18 000
// for three — plus the source.
func TestShortestArrivalCounts(t *testing.T) {
	eng := gcore.NewEngine()
	registerSNBWithPids(t, eng)
	footer := regexp.MustCompile(`path kernels: k-shortest ×1 \(pops (\d+), arrivals (\d+),`)
	for _, c := range []struct{ name, query, pops, arrivals string }{
		{"stored_path", `CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.pid = 42`, "6001", "6000"},
		{"shortest3", `CONSTRUCT (n)-/@p:sp {distance := c}/->(m) MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.pid = 42 AND m.lastName = 'Doe'`, "18001", "18000"},
	} {
		plan, err := eng.ExplainAnalyze(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := footer.FindStringSubmatch(plan)
		if m == nil || m[1] != c.pops || m[2] != c.arrivals {
			t.Errorf("%s: want pops %s, arrivals %s; plan:\n%s", c.name, c.pops, c.arrivals, plan)
		}
	}
}

// TestPathPatternConcurrentConstruct runs one cached CONSTRUCT that
// stores k-shortest walks and relabels their ends from eight
// goroutines on one engine. Each execution appends into its own builder
// and cuts its paths from its own arena, so every result must equal the
// single-goroutine one up to the path identifiers, which the goroutines
// draw from one generator. Run under -race.
func TestPathPatternConcurrentConstruct(t *testing.T) {
	const q = `CONSTRUCT (n)-/@p:sp {hops := c}/->(m) SET m:Reached
MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.anchor = TRUE`
	canonical := func(res *gcore.Result, err error) string {
		if err != nil {
			return "ERR: " + err.Error()
		}
		g := res.Graph
		var lines []string
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			lines = append(lines, fmt.Sprintf("node %d %v %v", id, n.Labels, n.Props))
		}
		for _, id := range g.EdgeIDs() {
			e, _ := g.Edge(id)
			lines = append(lines, fmt.Sprintf("edge %d %d→%d %v", id, e.Src, e.Dst, e.Labels))
		}
		for _, id := range g.PathIDs() {
			p, _ := g.Path(id)
			lines = append(lines, fmt.Sprintf("path %v %v %v %v", p.Nodes, p.Edges, p.Labels, p.Props))
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	want := canonical(goldenSNB(t).Eval(q))
	if strings.HasPrefix(want, "ERR") || strings.Count(want, "path ") < 20 {
		t.Fatalf("degenerate oracle:\n%s", want)
	}
	eng := goldenSNB(t)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				if got[i] = canonical(eng.Eval(q)); got[i] != want {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d:\n%s\nwant:\n%s", i, g, want)
		}
	}
}
