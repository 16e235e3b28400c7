package gcore_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gcore"
	"gcore/internal/parser"
)

// Golden results. The engine has one execution path; what pins its
// observable behaviour is the serialized result of every paper query
// on the guided-tour database and of the SNB toy query set, committed
// under testdata/golden. Each file was produced by the last commit
// that still carried the map-based twin kernels, which rendered
// byte-identically to the CSR path, so the goldens stand in for that
// twin. This file uses only API that commit has as well:
//
//	go test -run '^TestGolden$' -update .
//
// regenerates them (there, or here after an intended output change).
var update = flag.Bool("update", false, "rewrite testdata/golden from the current engine output")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

// readGolden returns the content of testdata/golden/<name>.golden.
func readGolden(t *testing.T, name string) string {
	t.Helper()
	want, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("%v (run go test -run '^TestGolden$' -update . to create it)", err)
	}
	return string(want)
}

// checkGolden compares got with testdata/golden/<name>.golden, or
// rewrites the file when pin is set and the run is under -update.
func checkGolden(t *testing.T, name, got string, pin bool) {
	t.Helper()
	if pin && *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(name), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := readGolden(t, name); got != want {
		t.Fatalf("%s diverged from its golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenTour builds the guided-tour toy database: social_graph
// (default), company_graph, the Figure 2 example graph and the orders
// table.
func goldenTour(t testing.TB, newEngine engineMaker, opts ...gcore.Option) *gcore.Engine {
	t.Helper()
	eng := newEngine(append(opts, gcore.WithDefaultGraph("social_graph"))...)
	for _, g := range []*gcore.Graph{
		gcore.SampleSocialGraph(), gcore.SampleCompanyGraph(), gcore.SampleExampleGraph(),
	} {
		if err := eng.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.RegisterTable(gcore.SampleOrdersTable()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenSNB builds the 60-person SNB toy engine; the social graph is
// the first (hence default) graph.
func goldenSNB(t testing.TB, newEngine engineMaker, opts ...gcore.Option) *gcore.Engine {
	t.Helper()
	eng := newEngine(opts...)
	social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 60, Seed: 1})
	if err := eng.RegisterGraph(social); err != nil {
		t.Fatal(err)
	}
	return eng
}

// goldenSNBQueries is the SNB toy query set. The first six exercise
// the hot kernels — indexed scans, multi-hop joins, reachability,
// stored shortest paths, grouped construction; the next five are
// shaped to start chains past their first node (rare label on the
// right end) and to reorder conjuncts (cheap pattern last in textual
// order); the next
// seven put predicates over FSET(V) properties — multi-valued employer
// sets, absent properties, typed range scans — through every branch
// of the column-predicate compiler (the generator leaves ~10% of
// persons without an employer and gives ~10% a two-element set); then
// come the path_analytics shapes and chains started mid-way.
var goldenSNBQueries = []string{
	`SELECT c.name AS name MATCH (c:City) ORDER BY name`,
	`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City)
WHERE c.name = 'City0' ORDER BY a, b`,
	`CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
	`CONSTRUCT (n)-/@p:reach/->(m)
MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
	`CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*)
MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person)`,
	`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)<-[:has_creator]-(msg:Post|Comment)-[:has_creator]->(m:Person)
ORDER BY a, b`,

	`SELECT n.firstName AS a, c.name AS b
MATCH (n:Person)-[:isLocatedIn]->(c:City)`,
	`SELECT n.firstName AS a
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City)`,
	`SELECT n.firstName AS a, c.name AS b
MATCH (n:Person), (c:City)`,
	`SELECT n.firstName AS a
MATCH (n:Person)-[:knows]->(m:Person), (m)-[:isLocatedIn]->(c:City)`,
	`SELECT n.firstName AS a, t.name AS b
MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t:Tag), (c:City)`,

	// Eq on the overflow employer column: multi-valued rows scalarize
	// to NULL (drop), absent rows to the empty set.
	`SELECT p.firstName AS f, p.lastName AS l MATCH (p:Person)
WHERE p.employer = 'Company0' ORDER BY f, l`,
	`SELECT p.firstName AS f MATCH (p:Person)
WHERE p.employer <> 'Company1' ORDER BY f`,
	// IN reaches inside multi-valued sets; absent gives FALSE.
	`SELECT p.firstName AS f, p.lastName AS l MATCH (p:Person)
WHERE 'Company2' IN p.employer ORDER BY f, l`,
	// The empty set is a subset of everything, so rows with no
	// employer are kept.
	`SELECT p.firstName AS f, p.lastName AS l MATCH (p:Person)
WHERE p.employer SUBSET 'Company0' ORDER BY f, l`,
	// Range over the typed string column (interner id order).
	`SELECT p.lastName AS l MATCH (p:Person)
WHERE p.lastName >= 'Mayer' AND p.lastName < 'Reyes' ORDER BY l`,
	// anchor is set on one person only; everyone else must fall out
	// via the presence bitmap, not a zero value.
	`SELECT p.firstName AS f MATCH (p:Person)
WHERE p.anchor = TRUE ORDER BY f`,
	// A property no node defines at all: no column exists.
	`SELECT p.firstName AS f MATCH (p:Person)
WHERE p.nickname = 'none' ORDER BY f`,

	// The three path_analytics statement shapes of the end-to-end
	// benchmark, single-source from the anchor: reachability, 3-shortest
	// walks behind a destination filter, and one stored shortest walk per
	// reached node. They pin which destinations the filter keeps and the
	// path identifiers minted for them, on both executions.
	`SELECT id(m) AS id, m.lastName AS l
MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.anchor = TRUE ORDER BY id`,
	`CONSTRUCT (n)-/@p:sp {distance := c}/->(m)
MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.anchor = TRUE AND m.lastName = 'Doe'`,
	`CONSTRUCT (n)-/@p:sp/->(m)
MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
	// Chains whose most selective node pattern is not an end: the
	// adhoc_match colocated shape, a {k = v} binding on an interior
	// start, an undirected edge past an interior start, and an OPTIONAL
	// block whose chain starts mid-way. Generated before chains could
	// start anywhere but at their ends.
	`CONSTRUCT (n)-[:nearby]->(m)
MATCH (n:Person)-[:knows]->(m:Person), (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person)
WHERE n.employer = 'Company1' AND c.name = 'City1'`,
	`SELECT a.firstName AS a, e AS emp, c.firstName AS c
MATCH (a:Person)-[:knows]->(b:Person {employer=e})-[:knows]->(c:Person)
WHERE b.lastName = 'Doe'`,
	`SELECT a.firstName AS a, b.firstName AS b, d.firstName AS d
MATCH (a:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(b:Person)-[:knows]-(d:Person)
WHERE c.name = 'City2'`,
	`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person) WHERE n.lastName = 'Doe'
OPTIONAL (n)-[:knows]->(x:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person) WHERE c.name = 'City0'`,
}

// goldenConstructCases pin how CONSTRUCT enters walks and stored paths
// into its result: k-shortest walks read along the arrow, against it
// and in both orientations, a walk over PATH-view segments, an ALL
// projection, a kernel walk projected without being stored, a stored
// path read from a graph (shared whole, then relabelled), WHEN dropping
// paths through their end nodes, walk constituents that phase 1 SET
// relabels, and walks from two ON graphs. Generated before CONSTRUCT
// appended into one bulk builder.
var goldenConstructCases = []struct {
	name, query string
	build       func(testing.TB, engineMaker, ...gcore.Option) *gcore.Engine
}{
	{"shortest-out", `CONSTRUCT (n)-/@p:sp {hops := c}/->(m)
MATCH (n:Person)-/2 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.anchor = TRUE AND m.lastName = 'Doe'`, goldenSNB},
	{"shortest-in", `CONSTRUCT (n)-/@p:sp/->(m)
MATCH (n:Person)<-/2 SHORTEST p<:knows*>/-(m:Person) WHERE n.anchor = TRUE AND m.lastName = 'Doe'`, goldenSNB},
	{"shortest-both", `CONSTRUCT (n)-/@p:sp/->(m)
MATCH (n:Person)-/3 SHORTEST p<:knows*>/-(m:Person) WHERE n.firstName = 'John'`, goldenTour},
	{"path-view", `PATH kk = (x)-[:knows]->(z)-[:knows]->(y) COST 2
CONSTRUCT (n)-/@p:twoHop {w := c}/->(m)
MATCH (n:Person)-/2 SHORTEST p<~kk*> COST c/->(m:Person) WHERE n.firstName = 'John'`, goldenTour},
	{"all-projection", `CONSTRUCT (n)-/p/->(m)
MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) WHERE n.firstName = 'Celine'`, goldenTour},
	{"walk-projection", `CONSTRUCT (n)-/p/->(m)
MATCH (n:Person)-/2 SHORTEST p<:knows*>/->(m:Person) WHERE n.anchor = TRUE AND m.lastName = 'Doe'`, goldenSNB},
	{"stored-shared", `CONSTRUCT (n)-/@p/->(m)
MATCH (n)-/@p:toWagner/->(m) ON example_graph`, goldenTour},
	{"stored-relabelled", `CONSTRUCT (n)-/@p:seen {hops := length(p)}/->(m)
MATCH (n)-/@p:toWagner/->(m) ON example_graph`, goldenTour},
	{"when-drops", `CONSTRUCT (n)-/@p:sp {hops := c}/->(m) WHEN p.hops < 2
MATCH (n:Person)-/2 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.firstName = 'John'`, goldenTour},
	{"set-relabels-walk", `CONSTRUCT (n)-/@p:sp/->(m) SET m:Reached SET m.via := n.firstName
MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.firstName = 'John'`, goldenTour},
	{"two-on-graphs", `CONSTRUCT (a)-/@w/->(b), (n)-/@q:sp/->(m)
MATCH (a)-/@w:toWagner/->(b) ON example_graph,
      (n:Person)-/q<:knows*>/->(m:Person) ON social_graph
WHERE n.firstName = 'John'`, goldenTour},
	{"shared-elements", `CONSTRUCT (n)-[k]->(m), (x)-/@q:b/->(y)
MATCH (n:Person)-[k:knows]->(m:Person) ON social_graph,
      (x)-/q<:knows*>/->(y) ON (CONSTRUCT (a)-[e]->(b) SET a:Knower MATCH (a:Person)-[e:knows]->(b:Person) ON social_graph)
WHERE n.firstName = 'Alice' AND x.firstName = 'John' AND y.firstName = 'Frank'`, goldenTour},
	{"edge-merges", `CONSTRUCT (n)-/@p/->(m), (a)-[e:onWalk {w := 1}]->(b), (a)-[e:again]->(b)
MATCH (n:Person)-/p<:knows*>/->(m:Person), (a:Person)-[e:knows]->(b:Person)
WHERE n.firstName = 'John' AND a.firstName = 'Peter'`, goldenTour},
}

// goldenBudgetCases trip a resource budget at a fixed logical point;
// the golden is the rendered error, reached count included. The
// binding budget is checked as each scanned candidate's or extended
// row's output is appended, so the count is the first table size past
// the limit. Each case's golden keeps the -w1 suffix of the files it
// was first pinned in.
var goldenBudgetCases = []struct {
	name   string
	query  string
	limits gcore.Limits
}{
	// Trips inside the node scan (the scan alone overflows).
	{"bindings-scan", `CONSTRUCT (n) MATCH (n)`, gcore.Limits{MaxBindings: 10}},
	// Trips inside the edge expansion (the Person scan fits, the knows
	// expansion does not).
	{"bindings-extend", `CONSTRUCT (n) MATCH (n:Person)-[e:knows]->(m)`, gcore.Limits{MaxBindings: 61}},
	// Trips in the first product expansion of the ALL-paths sweep.
	{"frontier-all", `CONSTRUCT (n)-/p/->(m)
MATCH (n:Person)-/ALL p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`, gcore.Limits{MaxPathFrontier: 1}},
}

// secondExecution separates the two renders of a golden whose
// statement renders differently when run again on the same engine.
const secondExecution = "\n== second execution ==\n"

// goldenSNBName names the golden of goldenSNBQueries[i].
func goldenSNBName(i int) string { return fmt.Sprintf("snb/q%02d", i) }

// engineMaker is gcore.NewEngine or a test-only variant of it.
type engineMaker func(...gcore.Option) *gcore.Engine

// checkGoldens runs every pinned evaluation on engines built by
// newEngine. Result cases run their statement on a fresh engine. With
// twice they run it two times — the compile and the plan-cache-hit
// execution; the second render is pinned too where it differs (a
// CONSTRUCT that mints identifiers draws fresh ones each time) —
// otherwise only the first execution is compared. Only pin
// (TestGolden) honours -update.
func checkGoldens(t *testing.T, newEngine engineMaker, twice, pin bool) {
	run := func(eng *gcore.Engine, query string) string {
		first := renderResult(eng.Eval(query))
		if !twice {
			return first
		}
		if second := renderResult(eng.Eval(query)); second != first {
			return first + secondExecution + second
		}
		return first
	}
	result := func(name, query string, build func(testing.TB, engineMaker, ...gcore.Option) *gcore.Engine) {
		t.Run(name, func(t *testing.T) {
			got := run(build(t, newEngine), query)
			if twice {
				checkGolden(t, name, got, pin)
			} else if want, _, _ := strings.Cut(readGolden(t, name), secondExecution); got != want {
				t.Fatalf("%s diverged from its golden\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		result("paper/"+key, parser.PaperQueries[key], goldenTour)
	}
	for i, query := range goldenSNBQueries {
		result(goldenSNBName(i), query, goldenSNB)
	}
	for _, cc := range goldenConstructCases {
		result("construct/"+cc.name, cc.query, cc.build)
	}
	for _, bc := range goldenBudgetCases {
		name := "budget/" + bc.name + "-w1"
		t.Run(name, func(t *testing.T) {
			eng := goldenSNB(t, newEngine, gcore.WithLimits(bc.limits))
			checkGolden(t, name, renderResult(eng.Eval(bc.query)), pin)
		})
	}
}

// TestGolden: every pinned evaluation renders its golden on the
// default engine.
func TestGolden(t *testing.T) {
	checkGoldens(t, gcore.NewEngine, true, true)
}

// TestConstructGoldensValid: every graph a golden CONSTRUCT case
// builds satisfies Definition 2.1 — no dangling edge, and every stored
// path alternates nodes and edges that join them.
func TestConstructGoldensValid(t *testing.T) {
	for _, cc := range goldenConstructCases {
		t.Run(cc.name, func(t *testing.T) {
			res, err := cc.build(t, gcore.NewEngine).Eval(cc.query)
			if err != nil {
				t.Fatal(err)
			}
			if res.Graph == nil || res.Graph.IsEmpty() {
				t.Fatal("empty result graph")
			}
			if err := res.Graph.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
