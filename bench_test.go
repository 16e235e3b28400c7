package gcore_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcore"
	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/parser"
	"gcore/internal/repro"
	"gcore/internal/rpq"
)

// Benchmark harness: one benchmark per reproduced figure/table (the
// experiment ids of DESIGN.md §3). Run with
//
//	go test -bench=. -benchmem
//
// FIG2   BenchmarkFig2Build
// FIG3   BenchmarkFig3Generator
// FIG4   BenchmarkGuidedTour/<line>
// FIG5   BenchmarkFig5Views
// TAB1   BenchmarkTable1Features
// CPLX1  BenchmarkComplexityScalingMatch / Shortest / Construct
// CPLX2  BenchmarkAblationSimplePath (walk vs simple-path baseline)
// CPLX3  BenchmarkAllPathsProjection
// CPLX4  BenchmarkWeightedShortest

func benchEngine(b *testing.B, opts ...gcore.Option) *gcore.Engine {
	b.Helper()
	return goldenTour(b, opts...)
}

// BenchmarkFig2Build measures constructing the Example 2.2 PPG.
func BenchmarkFig2Build(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gcore.SampleExampleGraph()
		if g.NumPaths() != 1 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkFig3Generator measures SNB-schema data generation.
func BenchmarkFig3Generator(b *testing.B) {
	for _, persons := range []int{100, 400} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				social, _ := gcore.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: 1})
				if social.NumNodes() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkGuidedTour runs every guided-tour query of §3 (Figure 4)
// on the toy database.
func BenchmarkGuidedTour(b *testing.B) {
	keys := []string{"L01", "L05", "L10", "L15", "L20", "L23", "L28", "L32", "L48", "L72", "L76", "L81"}
	for _, key := range keys {
		src := parser.PaperQueries[key]
		b.Run(key, func(b *testing.B) {
			eng := benchEngine(b)
			stmt, err := gcore.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvalStatement(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Views measures the full view pipeline of Figure 5:
// social_graph1 (OPTIONAL + aggregation) and social_graph2 (weighted
// shortest paths, stored paths), then the stored-path analytics query.
func BenchmarkFig5Views(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := benchEngine(b)
		if _, err := eng.Eval(parser.PaperQueries["L39"]); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Eval(parser.PaperQueries["L57"]); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Eval(repro.TourL67)
		if err != nil {
			b.Fatal(err)
		}
		if res.Graph.NumEdges() != 1 {
			b.Fatal("wrong analytics result")
		}
	}
}

// BenchmarkTable1Features runs the whole Table 1 conformance matrix.
func BenchmarkTable1Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range repro.Table1() {
			if !c.OK() {
				b.Fatal(c.Err)
			}
		}
	}
}

// CPLX1: fixed queries across growing graphs. The shape to read off:
// time grows roughly with |V|+|E| (polynomial data complexity), not
// exponentially.
func BenchmarkComplexityScalingMatch(b *testing.B) {
	for _, persons := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			eng := gcore.NewEngine()
			social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: 1})
			if err := eng.RegisterGraph(social); err != nil {
				b.Fatal(err)
			}
			stmt, err := gcore.Parse(repro.MatchQueryAt(social))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvalStatement(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// CPLX1: single-source regular-path search across scales.
func BenchmarkComplexityScalingShortest(b *testing.B) {
	for _, persons := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			eng := gcore.NewEngine()
			social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: 1})
			if err := eng.RegisterGraph(social); err != nil {
				b.Fatal(err)
			}
			q := fmt.Sprintf(`CONSTRUCT (m)
MATCH (n:Person)-/<:knows*>/->(m:Person) ON %s
WHERE n.anchor = TRUE`, social.Name())
			stmt, err := gcore.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvalStatement(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// CPLX1: grouped construction (the nr_messages view) across scales.
func BenchmarkComplexityScalingConstruct(b *testing.B) {
	for _, persons := range []int{50, 100, 200} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			eng := gcore.NewEngine()
			social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: 1})
			if err := eng.RegisterGraph(social); err != nil {
				b.Fatal(err)
			}
			q := fmt.Sprintf(`CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*)
MATCH (n)-[e:knows]->(m) ON %s
WHERE (n:Person) AND (m:Person)
OPTIONAL (n)<-[c1]-(msg1:Post|Comment),
         (msg1)-[:reply_of]-(msg2),
         (msg2:Post|Comment)-[c2]->(m)
WHERE (c1:has_creator) AND (c2:has_creator)`, social.Name())
			stmt, err := gcore.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvalStatement(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// CPLX2: the ablation — G-CORE's walk semantics vs the NP-hard
// simple-path baseline on grids. Read: Walk grows polynomially with
// the grid, Simple explodes with the central binomial coefficient.
func BenchmarkAblationSimplePath(b *testing.B) {
	for _, w := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("Walk/width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := repro.AblationWalkOnly(w)
				if err != nil || !pts {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Simple/width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.AblationSimpleOnly(w, 10_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Trail/width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.AblationTrailOnly(w, 10_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// CPLX3: ALL-paths answered as a graph projection — polynomial even
// when the number of conforming paths is astronomical.
func BenchmarkAllPathsProjection(b *testing.B) {
	for _, w := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("width=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := repro.AblationProjectionOnly(w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// CPLX4: weighted shortest paths over PATH views (Dijkstra over the
// view-segment product).
func BenchmarkWeightedShortest(b *testing.B) {
	for _, persons := range []int{50, 100} {
		b.Run(fmt.Sprintf("persons=%d", persons), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.WeightedShortest([]int{persons}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexedScan measures label-selective node scans backed by
// the secondary label indexes: the query touches only the City nodes
// (a small fraction of the graph), so time should track the bucket
// size, not |V|.
func BenchmarkIndexedScan(b *testing.B) {
	eng := gcore.NewEngine()
	social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 400, Seed: 1})
	if err := eng.RegisterGraph(social); err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf(`SELECT c.name AS name MATCH (c:City) ON %s`, social.Name())
	stmt, err := gcore.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.EvalStatement(stmt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Table.Len() == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkFilteredScan measures a label-indexed node scan with
// property predicates pushed onto it — the hot loop every WHERE clause
// pays. The "columns" run uses the typed property columns of the CSR
// snapshot (interned-string equality and range tests over dense
// arrays). The "expression" run filters on arithmetic over a function
// call, which no column test answers: every Person row goes through
// the general expression evaluator after the scan.
func BenchmarkFilteredScan(b *testing.B) {
	const columnar = `p.firstName = 'John' AND p.lastName >= 'K'`
	for _, mode := range []struct {
		name  string
		where string
	}{
		{"columns", columnar},
		{"expression", `size(p.firstName) + p.pid % 7 > 5`},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := gcore.NewEngine()
			var social *gcore.Graph
			if mode.where == columnar {
				social, _ = eng.GenerateSNB(gcore.SNBConfig{Persons: 2000, Seed: 1})
				if err := eng.RegisterGraph(social); err != nil {
					b.Fatal(err)
				}
			} else {
				social = registerSNBWithPids(b, eng)
			}
			q := fmt.Sprintf(`SELECT p.lastName AS l
MATCH (p:Person) ON %s
WHERE %s`, social.Name(), mode.where)
			stmt, err := gcore.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.EvalStatement(stmt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Table.Len() == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}

// BenchmarkParallelMatch evaluates the CPLX1 match query on one
// graph. The benchmark and its one sub-benchmark keep the names
// bench.base.txt and the BENCH_*.json trajectory know them by.
func BenchmarkParallelMatch(b *testing.B) {
	b.Run("sequential", func(b *testing.B) {
		eng := gcore.NewEngine()
		social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 400, Seed: 1})
		if err := eng.RegisterGraph(social); err != nil {
			b.Fatal(err)
		}
		stmt, err := gcore.Parse(repro.MatchQueryAt(social))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.EvalStatement(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCSRShortest measures the k-shortest regular-path kernel
// itself — multi-source <:knows*> product search over the SNB graph —
// free of parse/bind/materialize overhead. The sub-benchmark keeps
// the name bench.base.txt and the BENCH_*.json trajectory know it by.
func BenchmarkCSRShortest(b *testing.B) {
	social, _ := gcore.GenerateSNB(gcore.SNBConfig{Persons: 400, Seed: 1})
	nfa, err := rpq.Compile(&ast.Regex{Op: ast.RxStar, Subs: []*ast.Regex{{Op: ast.RxLabel, Label: "knows"}}})
	if err != nil {
		b.Fatal(err)
	}
	persons := social.NodesWithLabel("Person")
	// Every 16th person is a source: enough sweeps to dominate setup.
	var srcs []gcore.NodeID
	for i := 0; i < len(persons); i += 16 {
		srcs = append(srcs, persons[i])
	}
	b.Run("csr", func(b *testing.B) {
		eng := rpq.NewEngine(social, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			total := 0
			for _, src := range srcs {
				res, err := eng.ShortestPaths(src, nfa, 1)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Len()
			}
			if total == 0 {
				b.Fatal("no paths found")
			}
		}
	})
}

// BenchmarkCSRBuild measures constructing the CSR snapshot itself —
// the one-off cost a mutation generation pays before queries run at
// snapshot speed again.
func BenchmarkCSRBuild(b *testing.B) {
	social, _ := gcore.GenerateSNB(gcore.SNBConfig{Persons: 400, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := csr.Build(social)
		if s.NumNodes() != social.NumNodes() {
			b.Fatal("bad snapshot")
		}
	}
}

// BenchmarkParse measures parser throughput over all paper queries.
func BenchmarkParse(b *testing.B) {
	srcs := make([]string, 0, len(parser.PaperQueries))
	for _, src := range parser.PaperQueries {
		srcs = append(srcs, src)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := gcore.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRepeatedEval measures the repeated-traffic shape the plan
// cache serves: one statement evaluated from source again and again.
// The cache sub-benchmark hits after the first compile. The miss
// sub-benchmark alternates two texts that differ in one literal on a
// one-entry cache, so each evicts the other and every iteration pays
// lex/parse/analyze and planning again. The script_ variants run the
// same texts through EvalScript, the /query front door: a hit must
// cost no lex or parse, and a miss one parse.
func BenchmarkRepeatedEval(b *testing.B) {
	const q = `SELECT n.firstName AS name, n.lastName AS last, n.employer AS emp, n.age AS age,
       CASE WHEN n.age > 40 THEN 'senior' ELSE 'junior' END AS band,
       n.age * 365 AS days, n.firstName + ' ' + n.lastName AS full
MATCH (n:Person) ON social_graph
WHERE n.employer = 'Acme' AND n.age >= 18 AND n.age < 95
  AND n.firstName <> 'nobody' AND (n.lastName <> 'X' OR n.age > 20)
  AND n.age * 2 + 1 > 36 AND n.employer IN 'Acme'
  AND n.age + 1 > 18 AND n.age - 1 < 95 AND n.age / 1 >= 18
  AND (n.employer = 'Acme' OR n.employer = 'HAL' OR n.employer = '[MV] Clean Code')
  AND NOT (n.firstName = '' AND n.lastName = '')
  AND CASE WHEN n.age > 40 THEN TRUE ELSE n.age < 100 END
ORDER BY name, last, age`
	alt := strings.Replace(q, "n.age < 95", "n.age < 96", 1)
	eval := func(eng *gcore.Engine, src string) error { _, err := eng.Eval(src); return err }
	script := func(eng *gcore.Engine, src string) error { _, err := eng.EvalScript(src); return err }
	for _, mode := range []struct {
		name string
		size int
		alt  string // the text of every odd iteration
		eval func(*gcore.Engine, string) error
	}{
		{"cache", 0, q, eval},
		{"miss", 1, alt, eval},
		{"script_cache", 0, q, script},
		{"script_miss", 1, alt, script},
	} {
		b.Run(mode.name, func(b *testing.B) {
			eng := benchEngine(b, gcore.WithPlanCacheSize(mode.size))
			texts := [2]string{q, mode.alt}
			for _, text := range texts {
				if err := mode.eval(eng, text); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mode.eval(eng, texts[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedEval measures executing a prepared statement with
// per-execution parameter bindings — the statement compiles once at
// Prepare, every Eval is a cache hit.
func BenchmarkPreparedEval(b *testing.B) {
	eng := benchEngine(b)
	p, err := eng.Prepare(`SELECT n.firstName AS name
MATCH (n:Person) ON social_graph
WHERE n.employer = $emp AND n.age >= $min
ORDER BY name`)
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]gcore.Value{"emp": gcore.Str("Acme"), "min": gcore.Int(18)}
	if _, err := p.Eval(params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Eval(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedPoint measures the constant-anchored point lookups
// of the end-to-end point_prepared workload in process, on SNB-2000
// with a dense integer pid stamped on every Person: a 1-hop knows
// expansion from `n.pid = C` (typed int column) and a projection of
// `n.employer = C` (overflow column: employers are multi-valued). Each
// runs with C as a bound $parameter of a prepared statement and as a
// literal spliced into the text; both compile the conjunct to the same
// column predicate and seek the same value index, so the two must cost
// the same — a parameter is a constant. pid/after_write runs one GRAPH
// VIEW write, outside the timer, before each prepared pid execution: a
// view write leaves the cached plan of a read beside it in place, so
// the read costs what pid/param does.
func BenchmarkPreparedPoint(b *testing.B) {
	eng := gcore.NewEngine()
	social := registerSNBWithPids(b, eng)
	var employer string
	for _, id := range social.NodesWithLabel("Person") {
		n, _ := social.Node(id)
		if v, ok := n.Props.Get("employer").Singleton(); ok {
			employer, _ = v.AsString()
			break
		}
	}
	for _, c := range []struct {
		name, src, param string
		val              gcore.Value
	}{
		{"pid", `CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE n.pid = $pid`, "pid", gcore.Int(1234)},
		{"employer", `SELECT n.pid AS pid, n.firstName AS first MATCH (n:Person) WHERE n.employer = $emp ORDER BY pid`, "emp", gcore.Str(employer)},
	} {
		params := map[string]gcore.Value{c.param: c.val}
		b.Run(c.name+"/param", func(b *testing.B) {
			p, err := eng.Prepare(c.src)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Eval(params); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/literal", func(b *testing.B) {
			text, err := parser.InlineParams(c.src, params)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(text); err != nil {
					b.Fatal(err)
				}
			}
		})
		if c.name != "pid" {
			continue
		}
		b.Run(c.name+"/after_write", func(b *testing.B) {
			p, err := eng.Prepare(c.src)
			if err != nil {
				b.Fatal(err)
			}
			views := [2]string{
				`GRAPH VIEW bench_v AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.pid = 1)`,
				`GRAPH VIEW bench_v AS (CONSTRUCT (n) MATCH (n:Person) WHERE n.pid = 2)`,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := eng.Eval(views[i%2]); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := p.Eval(params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// registerSNBWithPids registers SNB-2000 on eng with a dense integer
// pid stamped on every Person in NodesWithLabel order, the single-source
// handle of the end-to-end benchmark's dataset.
func registerSNBWithPids(b testing.TB, eng *gcore.Engine) *gcore.Graph {
	b.Helper()
	social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 2000, Seed: 1})
	for pid, id := range social.NodesWithLabel("Person") {
		n, _ := social.Node(id)
		p := n.Props.Clone()
		p.Set("pid", gcore.Int(int64(pid)))
		if err := social.SetNodeProps(id, p); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.RegisterGraph(social); err != nil {
		b.Fatal(err)
	}
	return social
}

// BenchmarkLoadGraph measures loading the SNB-2000 interchange document
// (the dataset of the end-to-end workloads, pids included) through
// Engine.LoadGraphJSON, as gcored -graph does: decoding, validation and
// registration. Its allocations are mostly the JSON decoder's; the ones
// the loaded graph keeps are a handful per sort plus its non-empty
// property maps.
func BenchmarkLoadGraph(b *testing.B) {
	eng := gcore.NewEngine()
	doc, err := registerSNBWithPids(b, eng).AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.LoadGraphJSON(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathPattern measures the three statement shapes of the
// end-to-end path_analytics workload in process, on SNB-2000 from one
// fixed source: reachability projected to a table, three shortest walks
// per destination behind a destination filter stored with their cost,
// and one stored shortest walk per reached node. The statements repeat
// verbatim, so every iteration after the first is a plan-cache hit, as
// in the workload.
func BenchmarkPathPattern(b *testing.B) {
	eng := gcore.NewEngine()
	registerSNBWithPids(b, eng)
	const src = 42
	for _, c := range []struct{ name, query string }{
		{"reach", fmt.Sprintf(`SELECT m.pid AS pid MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.pid = %d ORDER BY pid`, src)},
		{"shortest3", fmt.Sprintf(`CONSTRUCT (n)-/@p:sp {distance := c}/->(m) MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE n.pid = %d AND m.lastName = 'Doe'`, src)},
		{"stored_path", fmt.Sprintf(`CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.pid = %d`, src)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(c.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatchStart measures chains whose most selective node pattern
// sits mid-chain, on SNB-2000: the adhoc_match colocated statement,
// whose second chain is pinned by `c.name = …` on its interior City
// and restricted to the persons the first chain bound, and a two-hop
// knows chain pinned by `b.pid = …` on its interior Person, which also
// binds {employer=e} there. Each chain is evaluated
// from that interior node, extended both ways and sorted back into
// forward emission order; a scan of every Person shows up as an
// allocation jump.
func BenchmarkMatchStart(b *testing.B) {
	eng := gcore.NewEngine()
	registerSNBWithPids(b, eng)
	for _, c := range []struct{ name, query string }{
		{"colocated", `CONSTRUCT (n)-[:nearby]->(m) MATCH (n:Person)-[:knows]->(m:Person), (n:Person)-[:isLocatedIn]->(c:City)<-[:isLocatedIn]-(m:Person) WHERE n.employer = 'Company3' AND c.name = 'City7'`},
		{"mid_bind", `SELECT a.pid AS a, e AS emp, c.pid AS c MATCH (a:Person)-[:knows]->(b:Person {employer=e})-[:knows]->(c:Person) WHERE b.pid = 42`},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(c.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorrelated runs the paper's correlated lines on SNB seed 1:
// the pattern predicates of L23, L28 and L72 at 200 persons, and L36's
// EXISTS over the 10 000-row product of 100 persons. A subquery runs
// once over the table its expression is evaluated over; evaluating it
// once per outer row again multiplies the allocations.
func BenchmarkCorrelated(b *testing.B) {
	for _, c := range []struct {
		line    string
		persons int
	}{{"L23", 200}, {"L28", 200}, {"L72", 200}, {"L36", 100}} {
		b.Run(fmt.Sprintf("%s/persons=%d", c.line, c.persons), func(b *testing.B) {
			eng := gcore.NewEngine()
			social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: c.persons, Seed: 1})
			if err := eng.RegisterGraph(social); err != nil {
				b.Fatal(err)
			}
			stmt, err := gcore.Parse(parser.PaperQueries[c.line])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.EvalStatement(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrouping measures the three statements that group binding
// rows, on SNB-2000: an aggregating SELECT and CONSTRUCT … GROUP over
// the employer binding of the end-to-end adhoc_match GROUP shape (every
// Person, so each of the ~2 000 rows is grouped), and the two-hop
// SELECT DISTINCT of point_prepared's knows2 statement. Rows are
// grouped by Table.Groups and ordered by bindings.CompareRows; a string
// key built per row or per value shows up as an allocation jump. The
// select_expr_agg case folds SUM and AVG over arithmetic and CASE
// arguments, evaluated once per row of each employer group.
func BenchmarkGrouping(b *testing.B) {
	eng := gcore.NewEngine()
	registerSNBWithPids(b, eng)
	for _, c := range []struct{ name, query string }{
		{"select_agg", `SELECT e AS employer, COUNT(*) AS persons MATCH (n:Person {employer=e})`},
		{"select_expr_agg", `SELECT e AS employer, SUM(n.pid % 10 + 1) AS s, AVG(CASE WHEN n.pid % 2 = 0 THEN 1.0 ELSE 0.5 END) AS a MATCH (n:Person {employer=e})`},
		{"select_distinct", `SELECT DISTINCT o.pid AS pid MATCH (n:Person)-[:knows]->(m:Person)-[:knows]->(o:Person) WHERE n.pid = 42 ORDER BY pid`},
		{"construct_group", `CONSTRUCT (x GROUP e :Company {name:=e})<-[y:worksAt]-(n) MATCH (n:Person {employer=e})`},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(c.query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutateThenRead measures a library append followed at once
// by a read: every iteration appends a node and an edge to SNB-2000
// and runs a filtered scan, so each read rebuilds the CSR snapshot
// from scratch. No statement makes such a write; the benchmark prices
// the path a MutateGraph caller takes.
func BenchmarkMutateThenRead(b *testing.B) {
	b.Run("full-rebuild", func(b *testing.B) {
		eng := gcore.NewEngine()
		social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 2000, Seed: 1})
		if err := eng.RegisterGraph(social); err != nil {
			b.Fatal(err)
		}
		q := fmt.Sprintf(`SELECT p.lastName AS l
MATCH (p:Person) ON %s
WHERE p.firstName = 'John' AND p.lastName >= 'K'`, social.Name())
		stmt, err := gcore.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		g, _ := eng.Graph(social.Name())
		persons := g.NodesWithLabel("Person")
		if _, err := eng.EvalStatement(stmt); err != nil {
			b.Fatal(err) // prime the snapshot
		}
		nextNode := gcore.NodeID(7_000_000)
		nextEdge := gcore.EdgeID(8_000_000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := &gcore.Node{ID: nextNode, Labels: gcore.NewLabels("Person"),
				Props: gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str("Zed")})}
			if err := g.AddNode(n); err != nil {
				b.Fatal(err)
			}
			if err := g.AddEdge(&gcore.Edge{ID: nextEdge, Src: persons[i%len(persons)],
				Dst: nextNode, Labels: gcore.NewLabels("knows")}); err != nil {
				b.Fatal(err)
			}
			nextNode++
			nextEdge++
			res, err := eng.EvalStatement(stmt)
			if err != nil {
				b.Fatal(err)
			}
			if res.Table.Len() == 0 {
				b.Fatal("empty scan")
			}
		}
	})
}

// BenchmarkConcurrentRead measures reader scaling under the engine's
// read/write lock split: 1→8 reader goroutines run a filtered scan
// concurrently while a background writer redefines a GRAPH VIEW — the
// one write a statement makes — at a fixed rate (serialised by the
// writer lock). The view is a new graph, so the scanned graph keeps
// its snapshot and the readers time the scan, not a rebuild. Each
// statement runs on one
// goroutine, so all concurrency comes from the readers: with
// snapshot-isolated reads, per-op wall time should drop with reader
// count on multi-core hosts until the writer's exclusive sections
// dominate. On a single-core host the expectation is flat per-op
// time — the split still must not make concurrent readers slower
// than time-sliced ones.
func BenchmarkConcurrentRead(b *testing.B) {
	for _, readers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			eng := gcore.NewEngine()
			social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 2000, Seed: 1})
			if err := eng.RegisterGraph(social); err != nil {
				b.Fatal(err)
			}
			q := fmt.Sprintf(`SELECT p.lastName AS l
MATCH (p:Person) ON %s
WHERE p.firstName = 'John' AND p.lastName >= 'K'`, social.Name())
			if _, err := eng.Eval(q); err != nil {
				b.Fatal(err) // prime the plan cache and snapshot
			}
			view := fmt.Sprintf(`GRAPH VIEW zed AS (CONSTRUCT (p) MATCH (p:Person) ON %s WHERE p.firstName = 'John')`, social.Name())

			// Background writer at a fixed rate — a steady mutation
			// load rather than a writer-lock spin (an unthrottled
			// writer measures lock starvation, not reader scaling).
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(500 * time.Microsecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					if _, err := eng.Eval(view); err != nil {
						b.Error(err)
						return
					}
				}
			}()

			// Exactly `readers` goroutines share the b.N iterations
			// (RunParallel would multiply by GOMAXPROCS).
			b.ReportAllocs()
			b.ResetTimer()
			var idx atomic.Int64
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for idx.Add(1) <= int64(b.N) {
						res, err := eng.Eval(q)
						if err != nil {
							b.Error(err)
							return
						}
						if res.Table.Len() == 0 {
							b.Error("empty scan")
							return
						}
					}
				}()
			}
			rwg.Wait()
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}
