// Package gcore is a Go implementation of G-CORE, the graph query
// language designed by the LDBC Graph Query Language Task Force
// ("G-CORE: A Core for Future Graph Query Languages", SIGMOD 2018).
//
// G-CORE is a closed language over Path Property Graphs: every query
// takes graphs as input and returns a graph, and paths are first-class
// citizens with identity, labels and properties. This package exposes
// the engine:
//
//	eng := gcore.NewEngine()
//	g := gcore.NewGraph("social_graph")
//	// … add nodes and edges, or load JSON …
//	_ = eng.RegisterGraph(g)
//	res, err := eng.Eval(`
//	    CONSTRUCT (n)
//	    MATCH (n:Person) ON social_graph
//	    WHERE n.employer = 'Acme'`)
//	// res.Graph is a new Path Property Graph.
//
// The full surface language of the paper is supported: MATCH with
// multi-graph ON, WHERE with implicit and explicit existential
// subqueries, OPTIONAL blocks, regular path expressions with
// reachability / (k-)shortest / ALL semantics, stored paths (@p),
// weighted shortest paths over PATH views, CONSTRUCT with grouping,
// GROUP, SET/REMOVE, WHEN, copy forms, graph UNION/INTERSECT/MINUS,
// GRAPH and GRAPH VIEW, and the §5 tabular extensions (SELECT, FROM,
// tables as graphs).
package gcore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"gcore/internal/ast"
	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/gov"
	"gcore/internal/obs"
	"gcore/internal/parser"
	"gcore/internal/plancache"
	"gcore/internal/ppg"
	"gcore/internal/table"
	"gcore/internal/value"
)

// Re-exported data model types. A Graph is a Path Property Graph
// G = (N, E, P, ρ, δ, λ, σ): nodes, edges and *stored paths*, each
// with identity, labels and multi-valued properties.
type (
	// Graph is a Path Property Graph.
	Graph = ppg.Graph
	// Node is an element of N.
	Node = ppg.Node
	// Edge is an element of E with ρ(e) = (Src, Dst).
	Edge = ppg.Edge
	// Path is a stored path: an element of P with δ(p) alternating
	// nodes and adjacent edges.
	Path = ppg.Path
	// NodeID identifies a node.
	NodeID = ppg.NodeID
	// EdgeID identifies an edge.
	EdgeID = ppg.EdgeID
	// PathID identifies a stored path.
	PathID = ppg.PathID
	// Labels is a sorted label set (λ values).
	Labels = ppg.Labels
	// Properties maps property keys to finite value sets (σ values).
	Properties = ppg.Properties
	// NonFiniteError is how the element mutators refuse a property
	// value holding a NaN or an infinite float.
	NonFiniteError = ppg.NonFiniteError
	// Value is a literal, collection or graph-object reference.
	Value = value.Value
	// Table is a tabular result (SELECT) or input (FROM).
	Table = table.Table
	// Statement is a parsed G-CORE statement.
	Statement = ast.Statement
)

// NewGraph creates an empty Path Property Graph with the given name.
func NewGraph(name string) *Graph { return ppg.New(name) }

// NewLabels builds a normalised label set.
func NewLabels(names ...string) Labels { return ppg.NewLabels(names...) }

// NewProperties builds a property map; scalar values become singleton
// sets per the data model.
func NewProperties(kv map[string]Value) Properties { return ppg.NewProperties(kv) }

// NewTable creates an empty table with the given columns.
func NewTable(name string, cols ...string) *Table { return table.New(name, cols...) }

// ReadTableCSV loads a table from CSV (header row required).
func ReadTableCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// Value constructors.
var (
	// Null is the absent value.
	Null = value.Null
	// True and False are the boolean literals.
	True  = value.True
	False = value.False
)

// Int returns an integer literal.
func Int(i int64) Value { return value.Int(i) }

// Float returns a real-number literal.
func Float(f float64) Value { return value.Float(f) }

// Str returns a string literal.
func Str(s string) Value { return value.Str(s) }

// Bool returns a boolean literal.
func Bool(b bool) Value { return value.Bool(b) }

// Date parses a date literal in day/month/year form ("1/12/2014").
func Date(s string) (Value, error) { return value.ParseDate(s) }

// SetOf returns a set value (deduplicated, canonical order).
func SetOf(elems ...Value) Value { return value.Set(elems...) }

// ListOf returns a list value.
func ListOf(elems ...Value) Value { return value.List(elems...) }

// Result is the outcome of evaluating one statement: exactly one of
// Graph and Table is non-nil (Table only for the SELECT extension),
// except for EXPLAIN [ANALYZE] statements, whose rendered plan is in
// Plan with Graph and Table both nil.
type Result = core.Result

// Execution governance. Every evaluation entry point has a *Context
// variant; failures of governed evaluations are *QueryError values
// classified by Kind, so callers can distinguish a user mistake
// (KindEval) from an interrupted query (KindCanceled, KindTimeout), an
// exhausted resource budget (KindBudget) and an engine defect caught
// by panic containment (KindInternal). A failed statement never leaves
// partial state behind: catalog registrations (GRAPH VIEW) are
// committed only when the whole statement succeeds.
type (
	// QueryError is the typed error returned by governed evaluation.
	QueryError = gov.QueryError
	// ErrorKind classifies a QueryError.
	ErrorKind = gov.Kind
	// Limits bounds one statement's resource consumption: intermediate
	// binding rows (MaxBindings), explored path-search product states
	// (MaxPathFrontier), constructed result elements
	// (MaxResultElements) and wall-clock time (Timeout). A zero field
	// means unlimited for that resource. Exceeding a limit fails the
	// statement with a *QueryError of KindBudget (KindTimeout for the
	// deadline) naming the limit and the progress when it tripped; the
	// engine and its graphs are untouched. See WithLimits and
	// Session.SetLimits.
	Limits = gov.Limits
)

// The error kinds.
const (
	// KindEval is an ordinary evaluation error (bad query, missing
	// graph, type error).
	KindEval = gov.KindEval
	// KindCanceled reports that the evaluation's context was cancelled.
	KindCanceled = gov.KindCanceled
	// KindTimeout reports a deadline hit (Limits.Timeout or a caller
	// deadline on the context).
	KindTimeout = gov.KindTimeout
	// KindBudget reports an exhausted resource budget; the message
	// names the limit and the progress when it tripped.
	KindBudget = gov.KindBudget
	// KindInternal reports a panic contained inside the evaluator.
	KindInternal = gov.KindInternal
)

// AsQueryError unwraps err to the typed query error, if any.
func AsQueryError(err error) (*QueryError, bool) { return gov.AsQueryError(err) }

// Execution observability. Every execution records into its own span
// collector, threaded through the evaluator's operators (scans, edge
// expansion, path kernels, joins, filters, CONSTRUCT/SELECT) on the
// statement's goroutine. Three surfaces read it: the per-operator
// aggregates and counters accumulate in the engine's lifetime Metrics,
// EXPLAIN ANALYZE renders one statement's spans onto its plan, and a
// TraceHandler receives every span as it opens and closes — the way to
// see all spans across statements.
type (
	// TraceHandler receives operator span events during evaluation.
	// Implementations must be safe for concurrent use: concurrent
	// statements emit spans from their own goroutines.
	TraceHandler = obs.TraceHandler
	// Span is one recorded operator execution.
	Span = obs.Span
	// Op identifies an operator kind.
	Op = obs.Op
	// Metrics is the engine-lifetime metrics snapshot; it marshals to
	// JSON for export.
	Metrics = obs.Metrics
	// OpMetrics is one operator's totals inside Metrics.
	OpMetrics = obs.OpMetrics
)

// The operator kinds observed by spans.
const (
	// OpStatement spans a whole statement.
	OpStatement = obs.OpStatement
	// OpScan is a node scan.
	OpScan = obs.OpScan
	// OpExpand is an adjacency edge expansion.
	OpExpand = obs.OpExpand
	// OpPath is a chain path-search step (the kernel below emits its
	// own OpShortest/OpReach/OpAllPaths span).
	OpPath = obs.OpPath
	// OpFilter is a pushed-down predicate filter.
	OpFilter = obs.OpFilter
	// OpResidual is the residual WHERE filter.
	OpResidual = obs.OpResidual
	// OpJoin is the conjunct join fold.
	OpJoin = obs.OpJoin
	// OpLeftJoin is an OPTIONAL block's left outer join.
	OpLeftJoin = obs.OpLeftJoin
	// OpConstruct is the CONSTRUCT clause.
	OpConstruct = obs.OpConstruct
	// OpSelect is the SELECT clause.
	OpSelect = obs.OpSelect
	// OpShortest is a (k-)shortest path kernel run.
	OpShortest = obs.OpShortest
	// OpReach is a reachability kernel run.
	OpReach = obs.OpReach
	// OpAllPaths is an ALL-paths kernel run.
	OpAllPaths = obs.OpAllPaths
)

// Engine is a G-CORE engine: a catalog of named graphs, views and
// tables plus the evaluator. Safe for concurrent use, with a
// read/write path split: statements are classified syntactically
// (queries, EXPLAIN and prepared reads vs GRAPH VIEW registrations),
// and read-only statements execute concurrently under a shared lock
// against the current catalog and the graphs' generation-counted CSR
// snapshots. Writers are serialised by a writer mutex. A statement
// write evaluates under the shared lock too, beside the readers, with
// its GRAPH VIEWs staged where no other statement sees them; it logs
// them (on a DurableEngine: appends and fsyncs) and
// only then takes the exclusive lock, just long enough to publish them
// into the catalog. Programmatic mutations (MutateGraph, Register*,
// LoadGraphJSON, LoadCatalog) change registered state in place and
// hold the exclusive lock throughout. Readers therefore always observe
// a consistent committed state — a write becomes visible atomically,
// between statements, never inside one.
type Engine struct {
	wmu sync.Mutex   // serialises writers
	mu  sync.RWMutex // shared by readers and evaluating writers; exclusive to publish
	cat *catalog.Catalog
	ev  *core.Evaluator

	// readStmts / writeStmts count statements dispatched down each
	// path; Metrics reports them (read_statements, write_statements).
	readStmts  atomic.Int64
	writeStmts atomic.Int64

	// pendingDefault is a WithDefaultGraph name not yet registered; it
	// is applied by RegisterGraph / LoadGraphJSON when the graph shows
	// up.
	pendingDefault string

	// checkpoint, when set (a DurableEngine's automatic checkpoint),
	// ends every write, under the writer mutex and the shared lock.
	checkpoint func()
}

// Option configures an Engine at construction; see NewEngine.
type Option func(*Engine)

// WithLimits installs per-statement resource limits (see Limits); a
// zero field means unlimited for that resource.
func WithLimits(l Limits) Option {
	return func(e *Engine) { e.ev.SetLimits(l) }
}

// WithDefaultGraph selects the graph used when MATCH omits ON. The
// name may refer to a graph registered later (RegisterGraph,
// LoadGraphJSON, a loaded catalog): the default takes effect as soon
// as the graph exists.
func WithDefaultGraph(name string) Option {
	return func(e *Engine) { e.pendingDefault = name }
}

// WithTraceHandler installs a span hook invoked at every operator
// start and end, including statement spans — a poor man's tracer with
// no tracing dependency. See also Engine.SetTraceHandler.
func WithTraceHandler(h TraceHandler) Option {
	return func(e *Engine) { e.ev.SetTraceHandler(h) }
}

// WithPlanCacheSize bounds the engine's plan cache: n > 0 caps it at n
// entries (least-recently-used eviction), and any other n keeps the
// default capacity. Every statement given as source text compiles
// through the cache; no size disables it.
func WithPlanCacheSize(n int) Option {
	return func(e *Engine) { e.ev.SetPlanCacheCapacity(n) }
}

// NewEngine creates an empty engine, configured by the given options:
//
//	eng := gcore.NewEngine(
//	    gcore.WithLimits(gcore.Limits{Timeout: time.Second}),
//	    gcore.WithDefaultGraph("social_graph"),
//	)
func NewEngine(opts ...Option) *Engine {
	cat := catalog.New()
	e := &Engine{cat: cat, ev: core.New(cat)}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// RegisterGraph adds a named graph to the catalog. The first
// registered graph becomes the default graph used when MATCH omits ON.
func (e *Engine) RegisterGraph(g *Graph) error {
	return e.mutate(func() error {
		if err := g.Validate(); err != nil {
			return fmt.Errorf("gcore: invalid graph: %w", err)
		}
		if err := e.cat.RegisterGraph(g); err != nil {
			return err
		}
		e.applyPendingDefault(g.Name())
		return nil
	})
}

// applyPendingDefault promotes a WithDefaultGraph name to the actual
// default once the graph is registered. Callers hold the exclusive
// lock.
func (e *Engine) applyPendingDefault(name string) {
	if e.pendingDefault != "" && e.pendingDefault == name {
		if err := e.cat.SetDefault(name); err == nil {
			e.pendingDefault = ""
		}
	}
}

// RegisterTable adds a named binding table (usable with FROM and as a
// node-graph via ON).
func (e *Engine) RegisterTable(t *Table) error {
	return e.mutate(func() error { return e.cat.RegisterTable(t) })
}

// mutate runs fn, a write that changes registered state in place,
// under the writer mutex and the exclusive lock, then ends the write.
func (e *Engine) mutate(fn func() error) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	err := e.exclusive(fn)
	e.endWrite()
	return err
}

// write is the one path of statement writes. fn evaluates under the
// writer mutex and the shared lock, so readers keep running, with its
// GRAPH VIEWs staged in views: each is validated against the catalog
// and logged when its statement succeeds, yet stays invisible outside
// the write. The exclusive lock is then held only to publish every
// staged view at once, so no reader sees part of a write. Views staged
// before a failure are published with the error — they are in the log
// already, and memory never lags the log.
func (e *Engine) write(fn func(views *core.Views) error) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	var views core.Views
	err := e.shared(func() error { return fn(&views) })
	if staged := views.Staged(); len(staged) > 0 {
		e.mu.Lock()
		for _, g := range staged {
			e.cat.PublishGraph(g)
		}
		e.mu.Unlock()
	}
	e.endWrite()
	return err
}

// endWrite runs the automatic checkpoint, if any, at the end of a
// write: under the writer mutex (nothing is half logged) and the shared
// lock (readers keep running while the catalog is saved).
func (e *Engine) endWrite() {
	if e.checkpoint != nil {
		e.mu.RLock()
		e.checkpoint()
		e.mu.RUnlock()
	}
}

func (e *Engine) shared(fn func() error) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fn()
}

func (e *Engine) exclusive(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn()
}

// Limits returns the currently installed per-statement limits.
func (e *Engine) Limits() Limits {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ev.Limits()
}

// SetTraceHandler installs (or, with nil, detaches) the span hook on a
// live engine; WithTraceHandler is the construction-time equivalent.
func (e *Engine) SetTraceHandler(h TraceHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ev.SetTraceHandler(h)
}

// Metrics returns a snapshot of the engine-lifetime execution metrics:
// statement and error counts, per-operator row and timing totals, NFA
// and CSR cache effectiveness, and consumed budgets. The snapshot is
// a plain value; it marshals to JSON for export.
func (e *Engine) Metrics() Metrics {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m := e.ev.MetricsSnapshot()
	m.ReadStatements = e.readStmts.Load()
	m.WriteStatements = e.writeStmts.Load()
	return m
}

// PlanCacheStats reports the plan cache's lifetime effectiveness:
// hits, misses, evictions, total compile time spent on misses, and
// current occupancy.
type PlanCacheStats = plancache.Stats

// PlanCacheEntry describes one live plan-cache entry.
type PlanCacheEntry = plancache.EntryInfo

// PlanCacheStats returns the plan cache's lifetime counters.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ev.PlanCacheStats()
}

// PlanCacheEntries lists the live plan-cache entries, most recently
// used first.
func (e *Engine) PlanCacheEntries() []PlanCacheEntry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ev.PlanCacheEntries()
}

// Graph returns a registered graph (or materialised view) by name.
func (e *Engine) Graph(name string) (*Graph, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cat.Graph(name)
}

// GraphNames lists the registered graph and view names, sorted.
func (e *Engine) GraphNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cat.GraphNames()
}

// TableNames lists the registered table names, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cat.TableNames()
}

// Parse parses one statement without evaluating it.
func Parse(src string) (*Statement, error) { return parser.Parse(src) }

// ReadOnly reports how a statement classifies under the engine's
// read/write path split: true means evaluating it cannot change engine
// state (it runs under the shared lock alone), false means it
// registers a GRAPH VIEW — the one statement-level mutation — and runs
// as a write: serialised with other writers, evaluated beside the
// readers, and holding the exclusive lock only to publish its views.
// Plain EXPLAIN never executes and is always read-only; EXPLAIN
// ANALYZE really runs and classifies by its body.
func ReadOnly(stmt *Statement) bool { return core.ReadOnly(stmt) }

// evalSrc is the engine's statement gateway for source text; see
// dispatch.
func (e *Engine) evalSrc(ctx context.Context, src string, params map[string]Value, opts core.ExecOpts) (*Result, error) {
	return e.dispatch(ctx, opts, func(o core.ExecOpts) (core.Exec, error) {
		return e.ev.PrepareExec(src, params, o)
	}, e.ev.EvalExec)
}

// explainAnalyzeSrc is evalSrc for the string-returning EXPLAIN
// ANALYZE entry point: the statement really executes, so it is
// classified and locked exactly like evalSrc.
func (e *Engine) explainAnalyzeSrc(ctx context.Context, src string, params map[string]Value, opts core.ExecOpts) (string, error) {
	res, err := e.dispatch(ctx, opts, func(o core.ExecOpts) (core.Exec, error) {
		return e.ev.PrepareExec(src, params, o)
	}, func(ctx context.Context, ex core.Exec) (*Result, error) {
		plan, err := e.ev.ExplainAnalyzeExec(ctx, ex)
		return &Result{Plan: plan}, err
	})
	if err != nil {
		return "", err
	}
	return res.Plan, nil
}

// dispatch compiles one statement under the shared lock and
// classifies it. A read-only statement runs there and then — any
// number of them concurrently, each against the committed catalog
// and graph generations it pinned at dispatch. A write leaves the lock
// and goes down the write path, preparing again there (a plan-cache
// probe: the key does not depend on the catalog, which may have moved
// in between).
func (e *Engine) dispatch(ctx context.Context, opts core.ExecOpts, prepare func(core.ExecOpts) (core.Exec, error), run func(context.Context, core.Exec) (*Result, error)) (*Result, error) {
	e.mu.RLock()
	ex, err := prepare(opts)
	if err == nil && ex.ReadOnly() {
		defer e.mu.RUnlock()
		e.readStmts.Add(1)
		return run(ctx, ex)
	}
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	var res *Result
	err = e.write(func(views *core.Views) error {
		opts.Views = views
		ex, err := prepare(opts)
		if err != nil {
			return err
		}
		e.writeStmts.Add(1)
		res, err = run(ctx, ex)
		return err
	})
	return res, err
}

// explainSrc renders the static plan under the read lock (nothing
// ever executes, whatever the statement's body).
func (e *Engine) explainSrc(ctx context.Context, src string, opts core.ExecOpts) (string, error) {
	stmt, err := parser.Parse(src)
	if err != nil {
		return "", err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ev.ExplainOptsContext(ctx, stmt, opts)
}

// errNotCached is evalScript's signal that its script is not a cached
// read-only statement.
var errNotCached = errors.New("not a cached read")

// evalScript evaluates a semicolon-separated script. It probes the plan
// cache first: a script that is one read-only statement the cache
// holds runs from there, exactly as evalSrc runs it, without being
// lexed or parsed. Any other script is lexed and parsed once, whole,
// before any statement runs, so a script with a syntax error anywhere
// runs nothing; the parse classifies the script, and a plan-cache miss
// compiles each statement from its parsed form. A script whose
// statements are all read-only runs each as a read; a script
// containing any mutating statement runs as one write — each
// statement sees the views its predecessors staged, and no other
// session observes an intermediate state: all of its views publish
// together.
func (e *Engine) evalScript(ctx context.Context, src string, opts core.ExecOpts) ([]*Result, error) {
	res, err := e.dispatch(ctx, opts, func(o core.ExecOpts) (core.Exec, error) {
		if ex, ok := e.ev.ProbeExec(src, o); ok {
			return ex, nil
		}
		return core.Exec{}, errNotCached
	}, e.ev.EvalExec)
	if err == nil {
		return []*Result{res}, nil
	}
	if !errors.Is(err, errNotCached) {
		// The cached statement may have been compiled from text laid
		// out differently: locate the failure in src itself.
		if stmts, perr := parser.ParseAll(src); perr == nil {
			err = stmtError(0, stmts[0].AST, err)
		}
		return []*Result{}, err
	}

	stmts, err := parser.ParseAll(src)
	if err != nil {
		return nil, err
	}
	write := false
	for _, st := range stmts {
		if !core.ReadOnly(st.AST) {
			write = true
		}
	}
	out := make([]*Result, 0, len(stmts))
	runAll := func(eval func(st parser.Statement) (*Result, error)) error {
		for i, st := range stmts {
			res, err := eval(st)
			if err != nil {
				return stmtError(i, st.AST, err)
			}
			out = append(out, res)
		}
		return nil
	}
	if !write {
		return out, runAll(func(st parser.Statement) (*Result, error) {
			return e.dispatch(ctx, opts, func(o core.ExecOpts) (core.Exec, error) {
				o.Parsed = st.AST
				return e.ev.PrepareExec(st.Text, nil, o)
			}, e.ev.EvalExec)
		})
	}
	err = e.write(func(views *core.Views) error {
		opts.Views = views
		return runAll(func(st parser.Statement) (*Result, error) {
			opts.Parsed = st.AST
			ex, err := e.ev.PrepareExec(st.Text, nil, opts)
			if err != nil {
				return nil, err
			}
			e.writeStmts.Add(1)
			return e.ev.EvalExec(ctx, ex)
		})
	})
	return out, err
}

// stmtError names the failing statement of a script: its 1-based
// index and its position in the script.
func stmtError(i int, stmt *Statement, err error) error {
	return fmt.Errorf("statement %d at %s: %w", i+1, stmt.Pos(), err)
}

// EvalContext parses and evaluates one statement under ctx: cancelling
// the context (or hitting its deadline) aborts the evaluation at the
// next checkpoint — including inside path-search frontier loops — and
// returns a *QueryError of KindCanceled or KindTimeout. A cancelled
// statement leaves the engine unmodified.
// GRAPH VIEW definitions register their materialised graph in the
// engine's catalog.
func (e *Engine) EvalContext(ctx context.Context, src string) (*Result, error) {
	return e.evalSrc(ctx, src, nil, core.ExecOpts{})
}

// Eval is EvalContext with context.Background().
func (e *Engine) Eval(src string) (*Result, error) {
	return e.EvalContext(context.Background(), src)
}

// EvalStatementContext evaluates an already-parsed statement under
// ctx. AST-level evaluation bypasses the plan cache; prefer the
// source-level entry points for repeated traffic.
func (e *Engine) EvalStatementContext(ctx context.Context, stmt *Statement) (*Result, error) {
	return e.dispatch(ctx, core.ExecOpts{}, func(o core.ExecOpts) (core.Exec, error) {
		return core.StatementExec(stmt, o), nil
	}, e.ev.EvalExec)
}

// EvalStatement is EvalStatementContext with context.Background().
func (e *Engine) EvalStatement(stmt *Statement) (*Result, error) {
	return e.EvalStatementContext(context.Background(), stmt)
}

// ExplainContext renders the static evaluation plan of a statement
// under the caller's context: the MATCH join tree with
// predicate-pushdown placement, path-search strategies, OPTIONAL
// left-joins and CONSTRUCT grouping phases. Nothing is evaluated.
// Planning is governed like evaluation: a cancelled or expired context
// fails with a *QueryError of KindCanceled or KindTimeout. The same
// plan is available through EvalContext by prefixing the statement
// with EXPLAIN; the Result carries it in Plan.
func (e *Engine) ExplainContext(ctx context.Context, src string) (string, error) {
	return e.explainSrc(ctx, src, core.ExecOpts{})
}

// Explain is ExplainContext with context.Background().
func (e *Engine) Explain(src string) (string, error) {
	return e.ExplainContext(context.Background(), src)
}

// ExplainAnalyzeContext executes the statement under the caller's
// context and returns its plan annotated with observed per-operator
// row counts, timings and the index-vs-scan decisions actually taken,
// followed by statement totals (path-kernel frontier work, cache
// effectiveness, consumed budget). Like the EXPLAIN ANALYZE of SQL
// engines the statement really runs — GRAPH VIEW definitions it
// contains are committed on success, and such statements run as
// writes. The same output is available through EvalContext by
// prefixing a statement with EXPLAIN ANALYZE.
func (e *Engine) ExplainAnalyzeContext(ctx context.Context, src string) (string, error) {
	return e.explainAnalyzeSrc(ctx, src, nil, core.ExecOpts{})
}

// ExplainAnalyze is ExplainAnalyzeContext with context.Background().
func (e *Engine) ExplainAnalyze(src string) (string, error) {
	return e.ExplainAnalyzeContext(context.Background(), src)
}

// EvalScriptContext evaluates a script of semicolon-separated
// statements under ctx and returns one result per statement;
// evaluation stops at the first statement that fails (including by
// cancellation). A failing statement's error is prefixed with its
// 1-based index and source position ("statement 2 at 3:1: …"); the
// results of the statements before it are returned. A script
// containing any mutating statement runs as one write: other sessions
// see all of its views at once, or none.
func (e *Engine) EvalScriptContext(ctx context.Context, src string) ([]*Result, error) {
	return e.evalScript(ctx, src, core.ExecOpts{})
}

// EvalScript is EvalScriptContext with context.Background().
func (e *Engine) EvalScript(src string) ([]*Result, error) {
	return e.EvalScriptContext(context.Background(), src)
}

// MutateGraph runs fn with exclusive access to the registered graph
// named name: it takes the writer mutex and then the exclusive lock,
// so no statement — read or write — runs while fn does, and readers
// never observe its intermediate states; the mutation becomes visible
// atomically when MutateGraph returns. This is the programmatic write
// path of the concurrent engine; on a DurableEngine every tracked
// mutation fn performs is logged (and fsynced) inside that exclusive
// section, and the automatic checkpoint runs after it.
func (e *Engine) MutateGraph(name string, fn func(*Graph) error) error {
	return e.mutate(func() error {
		g, ok := e.cat.Graph(name)
		if !ok {
			return fmt.Errorf("gcore: unknown graph %q", name)
		}
		e.writeStmts.Add(1)
		return fn(g)
	})
}

// Prepare validates one statement for repeated execution. The source
// may reference $name parameters wherever a literal is allowed; each
// Eval supplies their values. Preparation compiles the statement into
// the plan cache, so the first Eval already hits.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	e.mu.RLock()
	_, err := e.ev.PrepareExec(src, nil, core.ExecOpts{})
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &Prepared{eng: e, src: src, names: parser.ParamNames(src)}, nil
}

// Prepared is a statement validated once by Prepare (on an Engine, a
// DurableEngine or a Session) and executed any number of times with
// per-execution parameter bindings. Safe for concurrent use: read-only
// executions run concurrently under the engine's shared lock, mutating
// ones — a prepared statement can define a GRAPH VIEW — run as writes
// like any other.
type Prepared struct {
	eng   *Engine
	src   string
	names []string

	// optsFn supplies per-execution overrides (Session.Prepare wires
	// the owning session's current default graph and limits); nil
	// means engine defaults.
	optsFn func() core.ExecOpts
}

// Text returns the prepared source text.
func (p *Prepared) Text() string { return p.src }

// Params lists the distinct $name parameters of the statement in
// first-use order.
func (p *Prepared) Params() []string { return append([]string(nil), p.names...) }

func (p *Prepared) opts() core.ExecOpts {
	if p.optsFn != nil {
		return p.optsFn()
	}
	return core.ExecOpts{}
}

// Eval executes the prepared statement with the given parameter
// bindings (nil for a statement without parameters). An execution
// that reaches an unbound parameter fails; supplying extra bindings
// is allowed.
func (p *Prepared) Eval(params map[string]Value) (*Result, error) {
	return p.EvalContext(context.Background(), params)
}

// EvalContext is Eval under the caller's context.
func (p *Prepared) EvalContext(ctx context.Context, params map[string]Value) (*Result, error) {
	return p.eng.evalSrc(ctx, p.src, params, p.opts())
}

// ExplainAnalyzeContext executes the prepared statement with the given
// bindings and renders the annotated plan (see
// Engine.ExplainAnalyzeContext).
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context, params map[string]Value) (string, error) {
	return p.eng.explainAnalyzeSrc(ctx, p.src, params, p.opts())
}

// LoadGraphJSON reads a graph from its JSON interchange form and
// registers it under the name embedded in the document.
func (e *Engine) LoadGraphJSON(r io.Reader) (*Graph, error) {
	g, err := ppg.ReadJSON(r, e.cat.IDs())
	if err != nil {
		return nil, err
	}
	err = e.mutate(func() error {
		if err := e.cat.RegisterGraph(g); err != nil {
			return err
		}
		e.applyPendingDefault(g.Name())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// NextNodeID, NextEdgeID and NextPathID hand out engine-unique
// identifiers for programmatic graph building. The generator is
// atomic, so they take no lock.
func (e *Engine) NextNodeID() NodeID { return e.cat.IDs().NextNode() }

// NextEdgeID hands out a fresh edge identifier.
func (e *Engine) NextEdgeID() EdgeID { return e.cat.IDs().NextEdge() }

// NextPathID hands out a fresh path identifier.
func (e *Engine) NextPathID() PathID { return e.cat.IDs().NextPath() }

// GraphUnion, GraphIntersect and GraphMinus are the §A.5 set
// operations on Path Property Graphs, exposed for programmatic use;
// queries reach them through UNION / INTERSECT / MINUS.
func GraphUnion(name string, a, b *Graph) *Graph { return ppg.Union(name, a, b) }

// GraphIntersect computes a ∩ b.
func GraphIntersect(name string, a, b *Graph) *Graph { return ppg.Intersect(name, a, b) }

// GraphMinus computes a ∖ b (no dangling edges).
func GraphMinus(name string, a, b *Graph) *Graph { return ppg.Minus(name, a, b) }
