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
// shaped to trigger chain reversal (rare label on the right end) and
// conjunct reordering (cheap pattern last in textual order); the last
// seven put predicates over FSET(V) properties — multi-valued employer
// sets, absent properties, typed range scans — through every branch
// of the column-predicate compiler (the generator leaves ~10% of
// persons without an employer and gives ~10% a two-element set).
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
}

// goldenBudgetCases trip a resource budget at a fixed logical point;
// the golden is the rendered error, reached count included. The
// budget is enforced per merged chunk, so the count depends on the
// worker count and each case is pinned at one and at four workers.
var goldenBudgetCases = []struct {
	name   string
	query  string
	limits gcore.Limits
}{
	// Trips inside the node-scan merge (the scan alone overflows).
	{"bindings-scan", `CONSTRUCT (n) MATCH (n)`, gcore.Limits{MaxBindings: 10}},
	// Trips inside the edge-expansion merge (the Person scan fits, the
	// knows expansion does not).
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
// newEngine. Result cases run their statement on a fresh engine,
// sequentially and with GOMAXPROCS workers, which must agree. With
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
			seq := run(build(t, newEngine, gcore.WithParallelism(1)), query)
			if par := run(build(t, newEngine, gcore.WithParallelism(0)), query); par != seq {
				t.Fatalf("parallel result diverged from sequential\nparallel:\n%s\nsequential:\n%s", par, seq)
			}
			if twice {
				checkGolden(t, name, seq, pin)
			} else if want, _, _ := strings.Cut(readGolden(t, name), secondExecution); seq != want {
				t.Fatalf("%s diverged from its golden\ngot:\n%s\nwant:\n%s", name, seq, want)
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
	for _, bc := range goldenBudgetCases {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("budget/%s-w%d", bc.name, workers)
			t.Run(name, func(t *testing.T) {
				eng := goldenSNB(t, newEngine, gcore.WithParallelism(workers), gcore.WithLimits(bc.limits))
				checkGolden(t, name, renderResult(eng.Eval(bc.query)), pin)
			})
		}
	}
}

// TestGolden: every pinned evaluation renders its golden on the
// default engine.
func TestGolden(t *testing.T) {
	checkGoldens(t, gcore.NewEngine, true, true)
}
