package core

import (
	"sync"
	"time"

	"gcore/internal/ast"
	"gcore/internal/gov"
	"gcore/internal/obs"
	"gcore/internal/parser"
	"gcore/internal/plancache"
	"gcore/internal/ppg"
	"gcore/internal/rpq"
	"gcore/internal/value"
)

// Engine-level statement caching. Every execution runs under a
// CachedStatement; one kept in the plan cache outlives its execution,
// so repeated traffic of the same shape skips lex/parse/analyze,
// expression compilation, NFA compilation and the selectivity planner.
// The cache key (built in cacheKey) is the statement text and the
// default-graph override: analysis, compiled expressions and NFAs
// depend on the AST alone, and limits are read at execution. Chain
// plans are the one artifact that depends on a graph; each
// self-validates against the graph pointer and mutation generation it
// was computed for, so graph mutations and view registrations never
// retire an entry and a stale plan is never served.

// CachedStatement is one compiled statement: the parsed and analyzed
// statement, its compiled expressions (compile.go), and the artifacts
// its executions accumulate — path-expression NFAs and
// selectivity-planner decisions. The AST and the expressions are
// immutable, so one entry serves any number of concurrent executions
// (with different parameter bindings).
type CachedStatement struct {
	stmt *ast.Statement

	exprs  map[ast.Expr]*cexpr // every expression, and every WHERE as its AND-factors
	vars   []string            // variable names by id
	params []string            // parameter names by id
	leaves int                 // column and label leaves, by id

	mu    sync.Mutex
	nfas  map[nfaKey]*rpq.NFA
	plans map[*ast.GraphPattern]cachedChainPlan
}

// cachedChainPlan remembers which graph state a chain plan was
// computed for: reuse requires the same graph object at the same
// mutation generation. Patterns over graphs materialised at run time
// (ON subqueries) simply miss here and re-plan.
type cachedChainPlan struct {
	plan chainPlan
	g    *ppg.Graph
	gen  uint64
}

// newCachedStatement compiles an analyzed statement.
func newCachedStatement(stmt *ast.Statement) *CachedStatement {
	cs := &CachedStatement{stmt: stmt, exprs: map[ast.Expr]*cexpr{}}
	cs.compile()
	return cs
}

func (cs *CachedStatement) nfa(k nfaKey) (*rpq.NFA, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n, ok := cs.nfas[k]
	return n, ok
}

func (cs *CachedStatement) storeNFA(k nfaKey, n *rpq.NFA) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.nfas == nil {
		cs.nfas = map[nfaKey]*rpq.NFA{}
	}
	cs.nfas[k] = n
}

func (cs *CachedStatement) chainPlanFor(gp *ast.GraphPattern, g *ppg.Graph) (chainPlan, bool) {
	if g == nil {
		return chainPlan{}, false
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cp, ok := cs.plans[gp]
	if !ok || cp.g != g || cp.gen != g.Generation() {
		return chainPlan{}, false
	}
	return cp.plan, true
}

func (cs *CachedStatement) storeChainPlan(gp *ast.GraphPattern, g *ppg.Graph, pl chainPlan) {
	if g == nil {
		return
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.plans == nil {
		cs.plans = map[*ast.GraphPattern]cachedChainPlan{}
	}
	cs.plans[gp] = cachedChainPlan{plan: pl, g: g, gen: g.Generation()}
}

// ExecOpts carries per-execution overrides — the session surface: a
// session's default graph and resource limits apply to one execution
// without touching the engine-wide configuration (see gcore.Session).
// The zero value means "engine defaults".
type ExecOpts struct {
	// DefaultGraph overrides the catalog default used by MATCH
	// without ON ("" = catalog default). Resolved like ON <name>, so
	// tables-as-graphs work. It participates in the plan-cache key.
	DefaultGraph string
	// Limits overrides the evaluator's per-statement resource limits
	// for this execution (nil = evaluator limits).
	Limits *gov.Limits
	// Views, when set, stages the execution's GRAPH VIEWs instead of
	// registering them (see Views); nil registers them in the catalog
	// when the statement succeeds.
	Views *Views
	// Parsed, when set, is PrepareExec's source already parsed: a
	// plan-cache miss analyses it instead of parsing the source again,
	// and the new entry keeps it. nil parses the source on a miss.
	Parsed *ast.Statement
}

// Views is the staging area of one engine write. A statement executed
// with ExecOpts.Views set does not register its GRAPH VIEWs: when it
// succeeds, each is staged in the catalog (validated and presented to
// the change hook, where a durable engine logs it) and kept here, in
// definition order. Later statements of the same write resolve staged
// views as if registered; every other statement keeps seeing the
// catalog. The engine publishes Staged() once the write ends.
type Views struct {
	staged []*ppg.Graph
}

// Staged returns the views staged so far, in definition order.
func (v *Views) Staged() []*ppg.Graph { return v.staged }

// lookup finds the latest staged view of the given name.
func (v *Views) lookup(name string) (*ppg.Graph, bool) {
	if v == nil {
		return nil, false
	}
	for i := len(v.staged) - 1; i >= 0; i-- {
		if v.staged[i].Name() == name {
			return v.staged[i], true
		}
	}
	return nil, false
}

// Exec is one compiled execution: the statement, its parameter
// bindings, the per-execution overrides and the plan-cache probe
// outcome (for the EXPLAIN ANALYZE footer and the metrics counters).
// PrepareExec builds Exec values; EvalExec and ExplainAnalyzeExec
// consume them. The split lets the engine classify the compiled
// statement (Exec.ReadOnly) before deciding which lock to evaluate
// under.
type Exec struct {
	stmt    *ast.Statement
	cached  *CachedStatement // nil until compile
	params  map[string]value.Value
	opts    ExecOpts
	probe   bool // a plan-cache probe happened
	hit     bool
	compile time.Duration
}

// StatementExec wraps an already-parsed statement as an execution
// with the given overrides; it bypasses the plan cache.
func StatementExec(stmt *ast.Statement, opts ExecOpts) Exec { return Exec{stmt: stmt, opts: opts} }

// compile gives an execution that bypassed the plan cache (the
// AST-level entry points) a throwaway cache entry, so every execution
// runs compiled expressions and finds its artifacts one way.
func (ex *Exec) ensureCompiled() error {
	if ex.cached == nil {
		if err := analyzeStatement(ex.stmt); err != nil {
			return err
		}
		ex.cached = newCachedStatement(ex.stmt)
	}
	return nil
}

// ReadOnly reports whether this execution is classified read-only
// (see the package-level ReadOnly).
func (ex Exec) ReadOnly() bool { return ReadOnly(ex.stmt) }

// SetPlanCacheCapacity resizes the evaluator's plan cache: n > 0
// bounds it to n entries, and any other n restores the default
// capacity. The existing entries are dropped.
func (ev *Evaluator) SetPlanCacheCapacity(n int) {
	ev.planCache = plancache.New(n)
}

// PlanCacheStats returns hit/miss/eviction counters and occupancy of
// the plan cache.
func (ev *Evaluator) PlanCacheStats() plancache.Stats {
	return ev.planCache.Stats()
}

// MetricsSnapshot is the registry snapshot with the plan cache's
// lifetime counters merged in. The cache outlives statements, so its
// numbers come from its own counters rather than per-statement
// Observe folds — occupancy and evictions would otherwise be wrong.
func (ev *Evaluator) MetricsSnapshot() obs.Metrics {
	m := ev.registry.Snapshot()
	st := ev.planCache.Stats()
	m.PlanCacheHits = st.Hits
	m.PlanCacheMisses = st.Misses
	m.PlanCacheEvictions = st.Evictions
	m.PlanCacheEntries = int64(st.Entries)
	m.PlanCacheCompileNS = int64(st.CompileTime)
	return m
}

// PlanCacheEntries lists the live cache entries, most recent first.
func (ev *Evaluator) PlanCacheEntries() []plancache.EntryInfo {
	return ev.planCache.Entries()
}

// cacheKey builds the plan-cache key for src: its normalised text and
// the session's default-graph override. It reads no catalog state:
// nothing an entry compiles depends on it, and the chain plans an
// entry accumulates revalidate themselves (chainPlanFor).
func cacheKey(src string, opts ExecOpts) plancache.Key {
	return plancache.Key{Text: plancache.Normalize(src), Default: opts.DefaultGraph}
}

// ProbeExec looks src up in the plan cache without compiling it. It
// succeeds only for a cached read-only statement, and then counts the
// hit; when src is not cached or classifies as a write it counts
// nothing, and the caller compiles through PrepareExec, which counts
// the probe there.
func (ev *Evaluator) ProbeExec(src string, opts ExecOpts) (Exec, bool) {
	v, d, ok := ev.planCache.Probe(cacheKey(src, opts), func(v any) bool {
		return ReadOnly(v.(*CachedStatement).stmt)
	})
	if !ok {
		return Exec{}, false
	}
	cs := v.(*CachedStatement)
	return Exec{stmt: cs.stmt, cached: cs, opts: opts, probe: true, hit: true, compile: d}, true
}

// PrepareExec compiles src for one execution: it probes the plan
// cache and, on a miss, parses (unless opts.Parsed holds the parse)
// and analyses src into a new entry (singleflight). It is the only
// path from source text to a compiled statement. Parameters stay out
// of the key and the entry; each execution carries its own bindings,
// and nil params validate a statement whose parameters are not bound
// yet. It never evaluates and never mutates shared state beyond the
// plan cache (which is internally synchronised), so it is safe under
// the engine's read lock.
func (ev *Evaluator) PrepareExec(src string, params map[string]value.Value, opts ExecOpts) (Exec, error) {
	v, d, hit, err := ev.planCache.GetOrCompile(cacheKey(src, opts), func() (any, error) {
		stmt := opts.Parsed
		if stmt == nil {
			var err error
			if stmt, err = parser.Parse(src); err != nil {
				return nil, err
			}
		}
		if err := analyzeStatement(stmt); err != nil {
			return nil, err
		}
		return newCachedStatement(stmt), nil
	})
	if err != nil {
		return Exec{}, err
	}
	cs := v.(*CachedStatement)
	return Exec{stmt: cs.stmt, cached: cs, params: params, opts: opts, probe: true, hit: hit, compile: d}, nil
}
