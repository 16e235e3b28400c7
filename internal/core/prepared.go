package core

import (
	"context"
	"fmt"
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

// Engine-level statement caching. The statement-scoped nfaCache of
// evalCtx dies with each evaluation; a CachedStatement outlives it,
// so repeated traffic of the same shape skips lex/parse/analyze, NFA
// compilation and the selectivity planner. The cache key (built in
// cacheKey) carries everything that legitimately changes the compiled
// form; per-entry chain plans additionally self-validate against the
// graph pointer and mutation generation they were computed for, so a
// stale plan is never served even for graphs reached via ON.

// CachedStatement is one plan-cache entry: the parsed and analyzed
// statement plus the compiled artifacts accumulated by executions —
// path-expression NFAs and selectivity-planner decisions. The AST is
// immutable during evaluation, so one entry serves any number of
// executions (with different parameter bindings).
type CachedStatement struct {
	stmt *ast.Statement

	mu    sync.Mutex
	nfas  map[nfaKey]*rpq.NFA
	plans map[*ast.GraphPattern]cachedChainPlan
	conjs map[ast.Expr][]conjunctProto
}

// conjunctProto is the immutable skeleton of one WHERE conjunct: the
// AND-split and free-variable analysis are pure functions of the AST,
// so they are computed once per cached statement. Each evaluation
// clones fresh *conjunct values around the shared skeleton (the
// applied/columnar fields are per-execution state).
type conjunctProto struct {
	expr     ast.Expr
	vars     []string
	pushable bool
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

func newCachedStatement(stmt *ast.Statement) *CachedStatement {
	return &CachedStatement{
		stmt:  stmt,
		nfas:  map[nfaKey]*rpq.NFA{},
		plans: map[*ast.GraphPattern]cachedChainPlan{},
		conjs: map[ast.Expr][]conjunctProto{},
	}
}

// Statement returns the cached parse tree.
func (cs *CachedStatement) Statement() *ast.Statement { return cs.stmt }

func (cs *CachedStatement) nfa(k nfaKey) (*rpq.NFA, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n, ok := cs.nfas[k]
	return n, ok
}

func (cs *CachedStatement) storeNFA(k nfaKey, n *rpq.NFA) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.nfas[k] = n
}

func (cs *CachedStatement) conjuncts(e ast.Expr) ([]conjunctProto, bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	ps, ok := cs.conjs[e]
	return ps, ok
}

func (cs *CachedStatement) storeConjuncts(e ast.Expr, ps []conjunctProto) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.conjs[e] = ps
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
	cached  *CachedStatement // nil on the uncached fallback path
	params  map[string]value.Value
	opts    ExecOpts
	probe   bool // a plan-cache probe happened
	hit     bool
	compile time.Duration
}

// StatementExec wraps an already-parsed statement as an execution
// with the given overrides; it bypasses the plan cache.
func StatementExec(stmt *ast.Statement, opts ExecOpts) Exec { return Exec{stmt: stmt, opts: opts} }

// Statement returns the compiled statement.
func (ex Exec) Statement() *ast.Statement { return ex.stmt }

// ReadOnly reports whether this execution is classified read-only
// (see the package-level ReadOnly).
func (ex Exec) ReadOnly() bool { return ReadOnly(ex.stmt) }

// SetPlanCacheCapacity resizes the evaluator's plan cache: n > 0
// bounds it to n entries, n == 0 restores the default capacity, and
// n < 0 disables caching entirely. The existing entries are dropped.
func (ev *Evaluator) SetPlanCacheCapacity(n int) {
	if n < 0 {
		ev.planCache = nil
		return
	}
	ev.planCache = plancache.New(n)
}

// PlanCacheStats returns hit/miss/eviction counters and occupancy of
// the plan cache (zero Stats when caching is disabled).
func (ev *Evaluator) PlanCacheStats() plancache.Stats {
	if ev.planCache == nil {
		return plancache.Stats{}
	}
	return ev.planCache.Stats()
}

// MetricsSnapshot is the registry snapshot with the plan cache's
// lifetime counters merged in. The cache outlives statements, so its
// numbers come from its own counters rather than per-statement
// Observe folds — occupancy and evictions would otherwise be wrong.
func (ev *Evaluator) MetricsSnapshot() obs.Metrics {
	m := ev.registry.Snapshot()
	if ev.planCache != nil {
		st := ev.planCache.Stats()
		m.PlanCacheHits = st.Hits
		m.PlanCacheMisses = st.Misses
		m.PlanCacheEvictions = st.Evictions
		m.PlanCacheEntries = int64(st.Entries)
		m.PlanCacheCompileNS = int64(st.CompileTime)
	}
	return m
}

// PlanCacheEntries lists the live cache entries, most recent first.
func (ev *Evaluator) PlanCacheEntries() []plancache.EntryInfo {
	if ev.planCache == nil {
		return nil
	}
	return ev.planCache.Entries()
}

// cacheKey builds the plan-cache key for normalised statement text:
// the catalog version covers registrations, the default graph's
// generation covers mutations of the implicit target (the session
// override when one is set), and the limits fingerprint and worker
// count cover execution configuration. The cache belongs to one
// evaluator, whose Ablation never changes, so that stays out of the
// key.
func (ev *Evaluator) cacheKey(text string, opts ExecOpts) plancache.Key {
	var g *ppg.Graph
	if opts.DefaultGraph != "" {
		g, _ = ev.cat.Graph(opts.DefaultGraph)
	} else {
		g = ev.cat.Default()
	}
	var gen uint64
	if g != nil {
		gen = g.Generation()
	}
	limits := ev.limits
	if opts.Limits != nil {
		limits = *opts.Limits
	}
	return plancache.Key{
		Text:           text,
		CatalogVersion: ev.cat.Version(),
		Generation:     gen,
		Default:        opts.DefaultGraph,
		LimitsFP:       ev.limitsFingerprint(limits),
		Workers:        ev.workers,
	}
}

// limitsFP memoizes the rendered limits fingerprint: limits change
// rarely, while cacheKey runs on every statement, so the string is
// rebuilt only when they move. The memo is guarded by memoMu:
// concurrent read-only statements share the evaluator under the
// engine's read lock.
type limitsFP struct {
	limits gov.Limits
	fp     string
}

func (ev *Evaluator) limitsFingerprint(l gov.Limits) string {
	ev.memoMu.Lock()
	defer ev.memoMu.Unlock()
	m := &ev.limitsFP
	if m.fp == "" || m.limits != l {
		m.limits = l
		m.fp = fmt.Sprintf("%d|%d|%d|%d",
			l.MaxBindings, l.MaxPathFrontier, l.MaxResultElements, int64(l.Timeout))
	}
	return m.fp
}

// normalize canonicalises src for cache keying, remembering the last
// mapping so repeated traffic of one statement skips re-normalisation.
func (ev *Evaluator) normalize(src string) string {
	ev.memoMu.Lock()
	defer ev.memoMu.Unlock()
	if ev.normMemo.src != src {
		ev.normMemo.src, ev.normMemo.text = src, plancache.Normalize(src)
	}
	return ev.normMemo.text
}

// PrepareExec compiles src for one execution. With caching enabled it
// probes the plan cache (singleflight on miss); otherwise it inlines
// any parameters textually and parses fresh — the uncached fallback.
// It never evaluates and never mutates shared state beyond the plan
// cache (which is internally synchronised), so it is safe under the
// engine's read lock.
func (ev *Evaluator) PrepareExec(src string, params map[string]value.Value, opts ExecOpts) (Exec, error) {
	if ev.planCache == nil {
		text := src
		if len(params) > 0 {
			var err error
			text, err = parser.InlineParams(src, params)
			if err != nil {
				return Exec{}, errf("%v", err)
			}
		}
		stmt, err := parser.Parse(text)
		if err != nil {
			return Exec{}, err
		}
		return Exec{stmt: stmt, params: params, opts: opts}, nil
	}
	key := ev.cacheKey(ev.normalize(src), opts)
	v, d, hit, err := ev.planCache.GetOrCompile(key, func() (any, error) {
		stmt, err := parser.Parse(src)
		if err != nil {
			return nil, err
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

// CheckSrc compiles src without evaluating it: parse and semantic
// analysis, through the plan cache when enabled (so a subsequent Eval
// of the same text hits). Parameters may remain unbound.
func (ev *Evaluator) CheckSrc(src string, opts ExecOpts) error {
	if ev.planCache == nil {
		stmt, err := parser.Parse(src)
		if err != nil {
			return err
		}
		return analyzeStatement(stmt)
	}
	_, err := ev.PrepareExec(src, nil, opts)
	return err
}

// EvalSrc evaluates one statement from source through the plan cache.
func (ev *Evaluator) EvalSrc(src string, params map[string]value.Value) (*Result, error) {
	return ev.EvalSrcContext(context.Background(), src, params)
}

// EvalSrcContext is the source-level evaluation entry point: repeated
// statements hit the plan cache and skip lex/parse/analyze, NFA
// compilation and chain planning. params supplies $name bindings
// (nil for statements without parameters); an execution that reaches
// an unbound parameter fails.
func (ev *Evaluator) EvalSrcContext(ctx context.Context, src string, params map[string]value.Value) (*Result, error) {
	ex, err := ev.PrepareExec(src, params, ExecOpts{})
	if err != nil {
		return nil, err
	}
	return ev.EvalExec(ctx, ex)
}

// ExplainAnalyzeSrcContext is ExplainAnalyzeContext from source text,
// consulting the plan cache so the rendered footer reports the probe.
func (ev *Evaluator) ExplainAnalyzeSrcContext(ctx context.Context, src string, params map[string]value.Value) (string, error) {
	ex, err := ev.PrepareExec(src, params, ExecOpts{})
	if err != nil {
		return "", err
	}
	return ev.ExplainAnalyzeExec(ctx, ex)
}
