package gcore_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gcore"
	"gcore/internal/parser"
)

// Observability tests. Attaching a collector or a trace handler must
// never change what a query returns — at any parallelism — and the
// row/frontier totals the collector reports must themselves be
// deterministic across worker counts (spans may arrive in any order,
// but partitioned operators merge in input order, so the totals are a
// function of the query alone). EXPLAIN ANALYZE is checked on every
// paper example.

// evalObserved runs one query on a fresh engine built by setup with a
// collector attached and the given worker count; it returns the
// rendered result and the collector's aggregate totals.
func evalObserved(t *testing.T, setup func(*testing.T, ...gcore.Option) *gcore.Engine, query string, workers int) (string, gcore.Stats) {
	t.Helper()
	col := gcore.NewCollector()
	eng := setup(t, gcore.WithParallelism(workers), gcore.WithCollector(col))
	res, err := eng.Eval(query)
	return renderResult(res, err), col.Stats()
}

// statsKey renders the parallelism-invariant part of collected stats:
// operator counts and row/frontier totals, never timings.
func statsKey(st gcore.Stats) string {
	var sb strings.Builder
	for op := gcore.OpStatement; op <= gcore.OpAllPaths; op++ {
		os := st.Op(op)
		if os.Count == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%s: count=%d rows=%d→%d frontier=%d/%d\n",
			op, os.Count, os.RowsIn, os.RowsOut, os.Pops, os.Arrivals)
	}
	fmt.Fprintf(&sb, "caches: nfa=%d/%d csr=%d/%d\n",
		st.NFAHits, st.NFAMisses, st.CSRReuses, st.CSRBuilds)
	return sb.String()
}

// TestObservabilityDifferentialPaper: on every paper example,
// observed runs render byte-identically to plain runs, and the
// collected totals agree between sequential and parallel evaluation.
func TestObservabilityDifferentialPaper(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			plain := renderResult(tourEngine(t, gcore.WithParallelism(1)).Eval(query))
			seq, seqStats := evalObserved(t, tourEngine, query, 1)
			par, parStats := evalObserved(t, tourEngine, query, 0)
			if seq != plain {
				t.Fatalf("observed sequential run diverged from plain run\nobserved:\n%s\nplain:\n%s", seq, plain)
			}
			if par != plain {
				t.Fatalf("observed parallel run diverged from plain run\nobserved:\n%s\nplain:\n%s", par, plain)
			}
			if !strings.HasPrefix(plain, "ERR:") {
				if sk, pk := statsKey(seqStats), statsKey(parStats); sk != pk {
					t.Fatalf("collected totals depend on parallelism\nworkers=1:\n%s\nworkers=N:\n%s", sk, pk)
				}
			}
		})
	}
}

// TestObservabilityDifferentialSNB: the same invariants on the SNB
// toy graph's kernel-heavy query set.
func TestObservabilityDifferentialSNB(t *testing.T) {
	for i, query := range snbQueries() {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			plain := renderResult(snbEngine(t, gcore.WithParallelism(1)).Eval(query))
			seq, seqStats := evalObserved(t, snbEngine, query, 1)
			par, parStats := evalObserved(t, snbEngine, query, 0)
			if seq != plain {
				t.Fatalf("observed sequential run diverged from plain run\nobserved:\n%s\nplain:\n%s", seq, plain)
			}
			if par != plain {
				t.Fatalf("observed parallel run diverged from plain run\nobserved:\n%s\nplain:\n%s", par, plain)
			}
			if sk, pk := statsKey(seqStats), statsKey(parStats); sk != pk {
				t.Fatalf("collected totals depend on parallelism\nworkers=1:\n%s\nworkers=N:\n%s", sk, pk)
			}
		})
	}
}

// TestConstructionOptions: limits given at construction are the
// engine's limits, and a default graph named before it exists is
// promoted when it is registered — even after another graph.
func TestConstructionOptions(t *testing.T) {
	limits := gcore.Limits{MaxBindings: 10_000, Timeout: time.Minute}
	eng := gcore.NewEngine(gcore.WithLimits(limits), gcore.WithDefaultGraph("company_graph"))
	for _, g := range []*gcore.Graph{gcore.SampleSocialGraph(), gcore.SampleCompanyGraph()} {
		if err := eng.RegisterGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Limits(); got != limits {
		t.Fatalf("limits = %+v, want %+v", got, limits)
	}
	res, err := eng.Eval(`SELECT c.name AS name MATCH (c:Company) ORDER BY name`)
	if err != nil || res.Table.Len() != 4 {
		t.Fatalf("default graph is not company_graph: %v, %v", res, err)
	}
}

// TestExplainAnalyzePaperQueries: EXPLAIN ANALYZE renders every paper
// example's plan with actual row counts and an execution footer.
func TestExplainAnalyzePaperQueries(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			eng := tourEngine(t)
			out, err := eng.ExplainAnalyze(query)
			if err != nil {
				// A few tour queries reference views defined by other
				// statements; EXPLAIN ANALYZE must fail exactly like a
				// plain run, not invent a plan.
				if plain := renderResult(tourEngine(t).Eval(query)); plain == "ERR: "+err.Error() {
					return
				}
				t.Fatal(err)
			}
			if !strings.Contains(out, "[actual rows=") {
				t.Fatalf("no actual-rows annotation in:\n%s", out)
			}
			if !strings.Contains(out, "executed: total time ") {
				t.Fatalf("no execution footer in:\n%s", out)
			}
		})
	}
}

// TestExplainStatementForms: EXPLAIN and EXPLAIN ANALYZE work as
// statement prefixes through the ordinary Eval path, returning the
// plan in Result.Plan.
func TestExplainStatementForms(t *testing.T) {
	const query = `CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'`
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}

	res, err := eng.Eval("EXPLAIN " + query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == "" || res.Graph != nil || res.Table != nil {
		t.Fatalf("EXPLAIN result should carry only a plan, got %+v", res)
	}
	direct, err := eng.Explain(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != direct {
		t.Fatalf("EXPLAIN statement and Engine.Explain disagree:\n%s\nvs:\n%s", res.Plan, direct)
	}

	res, err = eng.Eval("EXPLAIN ANALYZE " + query)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "[actual rows=") {
		t.Fatalf("EXPLAIN ANALYZE plan lacks annotations:\n%s", res.Plan)
	}
}

// TestExplainContextCancellation: both EXPLAIN entry points run under
// the caller's context and fail with the typed cancellation error.
func TestExplainContextCancellation(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const query = `CONSTRUCT (n) MATCH (n:Person) ON social_graph`
	if _, err := eng.ExplainContext(ctx, query); err == nil {
		t.Fatal("ExplainContext ignored a cancelled context")
	} else if qe, ok := gcore.AsQueryError(err); !ok || qe.Kind != gcore.KindCanceled {
		t.Fatalf("expected KindCanceled from ExplainContext, got %v", err)
	}
	if _, err := eng.ExplainAnalyzeContext(ctx, query); err == nil {
		t.Fatal("ExplainAnalyzeContext ignored a cancelled context")
	} else if qe, ok := gcore.AsQueryError(err); !ok || qe.Kind != gcore.KindCanceled {
		t.Fatalf("expected KindCanceled from ExplainAnalyzeContext, got %v", err)
	}
}

// traceRecorder is a concurrency-safe TraceHandler for tests.
type traceRecorder struct {
	mu     sync.Mutex
	starts int
	ends   []gcore.Span
}

func (r *traceRecorder) SpanStart(op gcore.Op, depth int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.starts++
}

func (r *traceRecorder) SpanEnd(sp gcore.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends = append(r.ends, sp)
}

// TestTraceHandlerEvents: an installed handler sees balanced span
// events, including a statement span carrying the statement text.
func TestTraceHandlerEvents(t *testing.T) {
	rec := &traceRecorder{}
	eng := gcore.NewEngine(gcore.WithTraceHandler(rec))
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person) ON social_graph`); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.starts == 0 || rec.starts != len(rec.ends) {
		t.Fatalf("unbalanced span events: %d starts, %d ends", rec.starts, len(rec.ends))
	}
	var stmt *gcore.Span
	for i := range rec.ends {
		if rec.ends[i].Op == gcore.OpStatement {
			stmt = &rec.ends[i]
		}
	}
	if stmt == nil {
		t.Fatal("no statement span observed")
	}
	if !strings.Contains(stmt.Label, "MATCH") {
		t.Fatalf("statement span label %q does not carry the statement text", stmt.Label)
	}
	if stmt.Elapsed <= 0 {
		t.Fatal("statement span has no elapsed time")
	}
}

// TestMetricsAccumulate: the engine-lifetime registry counts
// statements, errors and operator work across queries.
func TestMetricsAccumulate(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n:Person) ON social_graph`); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(`CONSTRUCT (n) MATCH (n) ON no_such_graph`); err == nil {
		t.Fatal("expected an error for a missing graph")
	}
	m := eng.Metrics()
	if m.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", m.Queries)
	}
	if m.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", m.Errors)
	}
	scan, ok := m.Operators["scan"]
	if !ok || scan.Count == 0 || scan.RowsOut == 0 {
		t.Fatalf("scan operator metrics missing or empty: %+v", m.Operators)
	}
	if m.Operators["statement"].ElapsedNS <= 0 {
		t.Fatal("statement elapsed time not recorded")
	}
}
