// Package core implements the evaluator of G-CORE — the paper's
// primary contribution: a closed query language over Path Property
// Graphs in which every query returns a graph (§3), paths are
// first-class citizens, and evaluation follows the denotational
// semantics of Appendix A:
//
//	MATCH   → a binding table Ω (§A.2), via pattern matching under
//	          homomorphism semantics, joins, OPTIONAL left-outer
//	          joins and WHERE filters;
//	CONSTRUCT → a new PPG built from Ω by identity-respecting,
//	          grouped object construction (§A.3);
//	PATH    → weighted path views usable in regular path expressions
//	          (§A.4);
//	UNION / INTERSECT / MINUS → the graph set operations (§A.5);
//	GRAPH / GRAPH VIEW → named query results (§A.6);
//	SELECT / FROM / tables ON → the tabular extensions (§5).
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/catalog"
	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/gov"
	"gcore/internal/obs"
	"gcore/internal/plancache"
	"gcore/internal/ppg"
	"gcore/internal/rpq"
	"gcore/internal/table"
	"gcore/internal/value"
)

// Ablation switches individual optimisations of one evaluator off, so
// that tests can check — and benchmarks price — each against the
// fallback it must keep anyway. It is fixed at construction
// (NewAblated): evaluators with different ablations run side by side,
// and nothing compiled under one value is ever served under another.
// Results are identical for every value. No public API, CLI flag or
// server setting reaches it.
type Ablation struct {
	// NoPushdown leaves every WHERE conjunct to the residual filter
	// instead of applying it as soon as its variables are bound.
	NoPushdown bool
	// NoReorder pins the textual order: chains scan from their left
	// end and conjunct patterns fold left to right.
	NoReorder bool
	// NoPropColumns sends predicates, property reads and projections
	// through the expression interpreter and the ppg.Properties maps
	// instead of the snapshot's property columns.
	NoPropColumns bool
	// NoIncrementalSnapshot runs the full csr.Build on every
	// generation mismatch instead of applying the recorded delta.
	NoIncrementalSnapshot bool
}

// Evaluator evaluates statements against a catalog.
type Evaluator struct {
	cat      *catalog.Catalog
	ablation Ablation
	limits   gov.Limits // zero fields = ungoverned

	registry *obs.Registry    // lifetime per-operator metrics
	trace    obs.TraceHandler // user span hook; nil = no tracing
	sink     *obs.Collector   // user-supplied collector; nil = pooled

	// scratchPool recycles metrics-only collectors for statements that
	// run without a user sink. A pool rather than one shared scratch
	// collector: read-only statements execute concurrently under the
	// engine's read lock, and sharing one collector across them would
	// interleave their spans.
	scratchPool sync.Pool

	// planCache holds compiled statements keyed on normalised source
	// text (see prepared.go); nil disables source-level caching.
	planCache *plancache.Cache
	// memoMu guards the two memos below. Concurrent read-only
	// statements share the evaluator, so the memos cannot rely on
	// caller serialisation (configuration setters still do: the
	// engine calls them under its exclusive lock).
	memoMu sync.Mutex
	// limitsFP memoizes the cache key's limits fingerprint.
	limitsFP limitsFP
	// normMemo remembers the last source→normalised-text mapping, so
	// repeated traffic of one statement skips re-normalisation.
	normMemo struct{ src, text string }
}

// New creates an evaluator over the given catalog.
func New(cat *catalog.Catalog) *Evaluator { return NewAblated(cat, Ablation{}) }

// NewAblated is New with optimisations switched off (tests and
// ablation benchmarks only).
func NewAblated(cat *catalog.Catalog, ab Ablation) *Evaluator {
	ev := &Evaluator{
		cat:       cat,
		ablation:  ab,
		registry:  obs.NewRegistry(),
		planCache: plancache.New(0),
	}
	ev.scratchPool.New = func() any { return obs.NewCollector() }
	return ev
}

// Catalog returns the evaluator's catalog.
func (ev *Evaluator) Catalog() *catalog.Catalog { return ev.cat }

// SetLimits installs the per-statement resource budget.
func (ev *Evaluator) SetLimits(l gov.Limits) { ev.limits = l }

// Limits returns the current per-statement resource budget.
func (ev *Evaluator) Limits() gov.Limits { return ev.limits }

// SetTraceHandler installs the span hook invoked at every operator
// start/end; nil detaches it.
func (ev *Evaluator) SetTraceHandler(h obs.TraceHandler) { ev.trace = h }

// SetCollector installs a user-held collector that accumulates spans
// across statements; nil reverts to the internal per-statement
// scratch collector.
func (ev *Evaluator) SetCollector(col *obs.Collector) { ev.sink = col }

// checkBudget enforces the binding-table bound.
func (c *evalCtx) checkBudget(tbl *bindings.Table) error {
	if limit := c.gov.Limits().MaxBindings; limit > 0 && tbl.Len() > limit {
		return c.gov.BindingsError(tbl.Len())
	}
	return nil
}

// joinBudget joins two tables under the binding budget, aborting the
// materialisation as soon as it overflows.
func (c *evalCtx) joinBudget(a, b *bindings.Table) (*bindings.Table, error) {
	limit := c.gov.Limits().MaxBindings
	out, over := bindings.JoinLimited(a, b, limit)
	if over {
		return nil, c.gov.BindingsError(limit + 1)
	}
	return out, nil
}

// leftJoinBudget is joinBudget for the OPTIONAL left-outer join.
func (c *evalCtx) leftJoinBudget(a, b *bindings.Table) (*bindings.Table, error) {
	limit := c.gov.Limits().MaxBindings
	out, over := bindings.LeftJoinLimited(a, b, limit)
	if over {
		return nil, c.gov.BindingsError(limit + 1)
	}
	return out, nil
}

// Result is the outcome of a statement: a graph (the normal, closed
// case), a table (the SELECT extension), or a rendered plan (EXPLAIN
// and EXPLAIN ANALYZE statements).
type Result struct {
	Graph *ppg.Graph
	Table *table.Table
	Plan  string
}

// Error is an evaluation error.
type Error struct{ Msg string }

func (e *Error) Error() string { return "eval error: " + e.Msg }

func errf(format string, args ...any) error {
	return &Error{Msg: fmt.Sprintf(format, args...)}
}

// scope resolves names visible at one point of evaluation: query-local
// GRAPH bindings and PATH views, chaining to the enclosing scope and
// finally the catalog.
type scope struct {
	parent *scope
	graphs map[string]*ppg.Graph
	paths  map[string]*ast.PathClause
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, graphs: map[string]*ppg.Graph{}, paths: map[string]*ast.PathClause{}}
}

func (s *scope) lookupGraph(name string) (*ppg.Graph, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if g, ok := cur.graphs[name]; ok {
			return g, true
		}
	}
	return nil, false
}

func (s *scope) lookupPath(name string) (*ast.PathClause, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if pc, ok := cur.paths[name]; ok {
			return pc, true
		}
	}
	return nil, false
}

// tempPath is a computed (not yet stored) path bound during MATCH: a
// fresh path identifier associated with a walk of some source graph
// (§A.2, the x –w in r→ y case), or an ALL-paths projection. A walk
// stays in the form the k-shortest search found it — accepted arrival
// arr of res, stored against the arrow when reversed — until CONSTRUCT
// reads its ordinals (ords) or an expression its nodes or edges (walk).
// Computed paths carry no labels and no properties.
type tempPath struct {
	id         ppg.PathID
	snap       *csr.Snapshot // of the source graph: the ordinals' frame
	projection bool
	cost       float64 // cost(p); 0 for a projection
	length     int     // number of edges

	res      *rpq.Shortest
	arr      int32
	reversed bool
	col      *obs.Collector // counts the walks built
	built    bool           // counted once, whichever reader came first

	path *ppg.Path // a projection's from the start; a walk's once walk has built it
}

// ords appends the snapshot ordinals of a k-shortest walk's nodes and
// edges, read in the arrow's direction, from µ(x) to µ(y). The first
// read counts the walk as built.
func (tp *tempPath) ords(nodes, edges []int32) ([]int32, []int32, error) {
	n0, e0 := len(nodes), len(edges)
	nodes, edges, ok := tp.res.Ords(tp.arr, nodes, edges)
	if !ok {
		return nil, nil, errf("path #%d: a PATH-view step names an element outside its source graph", tp.id)
	}
	if tp.reversed {
		// The search ran against the arrow (from the pattern's left node
		// with a reversed regex).
		slices.Reverse(nodes[n0:])
		slices.Reverse(edges[e0:])
	}
	if !tp.built {
		tp.built = true
		tp.col.WalkBuilt()
	}
	return nodes, edges, nil
}

// walk returns the path's node and edge sequences, building a
// k-shortest walk's on first use; several rows may hold one path.
// Evaluation of a statement is sequential, so no lock guards it.
func (tp *tempPath) walk() (*ppg.Path, error) {
	if tp.path == nil {
		nodes, edges, err := tp.ords(nil, nil)
		if err != nil {
			return nil, err
		}
		p := &ppg.Path{ID: tp.id, Nodes: make([]ppg.NodeID, len(nodes)), Edges: make([]ppg.EdgeID, len(edges))}
		for i, u := range nodes {
			p.Nodes[i] = tp.snap.NodeID(u)
		}
		for i, e := range edges {
			p.Edges[i] = tp.snap.EdgeID(e)
		}
		tp.path = p
	}
	return tp.path, nil
}

// tempPathOf returns the computed path a path reference names, or nil.
func (c *evalCtx) tempPathOf(ref value.Value) *tempPath {
	if ref.Kind() != value.KindPath {
		return nil
	}
	id, _ := ref.RefID()
	return c.tempPaths[ppg.PathID(id)]
}

// nfaKey identifies a compiled automaton: the regex node of the
// statement AST (ASTs are immutable during evaluation, so pointer
// identity suffices) plus the traversal orientation.
type nfaKey struct {
	rx       *ast.Regex
	reversed bool
}

// evalCtx carries the per-statement mutable state.
type evalCtx struct {
	ev        *Evaluator
	gov       *gov.Governor
	col       *obs.Collector // nil-safe; set by evalGoverned
	tempPaths map[ppg.PathID]*tempPath
	anonSeq   int

	// build is what the CONSTRUCTs of this statement cut stored paths
	// from (build.go), made on first use.
	build *buildScratch

	// pendingViews holds GRAPH VIEW results defined by this statement,
	// in definition order. They are visible to the rest of the
	// statement (resolveGraphName consults them before the catalog)
	// but reach the catalog only when the whole statement succeeds —
	// a failed statement therefore leaves the engine's registered
	// graphs exactly as they were (no partial mutation).
	pendingViews []*ppg.Graph

	// views stages the views of earlier statements of the same engine
	// write (ExecOpts.Views); nil outside a staged write.
	views *Views

	// params are this execution's $name bindings, by the cache entry's
	// parameter ids (CachedStatement.bind).
	params []value.Value

	// defGraph is this execution's session default-graph override
	// ("" = catalog default); see ExecOpts.DefaultGraph.
	defGraph string

	// cached is the cache entry this execution runs under: its compiled
	// expressions, and the NFAs and chain plans that compiledNFA and
	// evalChainNamed look up before computing and publish after.
	cached *CachedStatement
}

func (ev *Evaluator) newCtx(gv *gov.Governor) *evalCtx {
	return &evalCtx{
		ev:        ev,
		gov:       gv,
		tempPaths: map[ppg.PathID]*tempPath{},
	}
}

func (c *evalCtx) freshAnon() string {
	c.anonSeq++
	return fmt.Sprintf("@anon%d", c.anonSeq)
}

// defaultGraph resolves the statement's implicit target: the session
// override when set (resolved like ON <name>, so tables-as-graphs
// work), the catalog default otherwise (nil when none is registered).
// Views staged earlier in the same write count as registered, the
// first of them becoming the default of a catalog without one.
func (c *evalCtx) defaultGraph() (*ppg.Graph, error) {
	name := c.defGraph
	if name == "" {
		if name = c.ev.cat.DefaultName(); name == "" && c.views != nil && len(c.views.staged) > 0 {
			name = c.views.staged[0].Name()
		}
		if g, ok := c.views.lookup(name); ok {
			return g, nil
		}
		return c.ev.cat.Default(), nil
	}
	if g, ok := c.views.lookup(name); ok {
		return g, nil
	}
	g, err := c.ev.cat.Resolve(name)
	if err != nil {
		return nil, errf("session default graph: %v", err)
	}
	return g, nil
}

// defaultGraphOrNil is defaultGraph for contexts that fall back to no
// graph rather than failing (expression environments).
func (c *evalCtx) defaultGraphOrNil() *ppg.Graph {
	g, _ := c.defaultGraph()
	return g
}

// EvalStatement evaluates one statement: PATH and GRAPH definitions
// first, then the query. A definition-only statement returns the last
// defined graph (or an empty graph for pure PATH definitions).
func (ev *Evaluator) EvalStatement(stmt *ast.Statement) (*Result, error) {
	return ev.EvalStatementContext(context.Background(), stmt)
}

// stmtText renders a statement for error reports, bounded so a
// pathological query does not flood logs.
func stmtText(stmt *ast.Statement) string {
	s := stmt.String()
	const max = 300
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// EvalStatementContext evaluates one statement under the caller's
// context and the evaluator's Limits. Cancellation, deadline expiry
// and exhausted budgets surface as *gov.QueryError with the matching
// Kind; a panic anywhere in evaluation is contained and returned as a
// KindInternal error carrying the statement text. On any failure the
// catalog and every registered graph are left exactly as they were —
// GRAPH VIEW definitions reach the catalog only after the whole
// statement has succeeded.
func (ev *Evaluator) EvalStatementContext(ctx context.Context, stmt *ast.Statement) (*Result, error) {
	return ev.EvalExec(ctx, Exec{stmt: stmt})
}

// EvalExec is EvalStatementContext with the execution extras
// (parameter bindings, session overrides, plan-cache entry and probe
// outcome) threaded through; every source-level and AST-level entry
// point lands here.
func (ev *Evaluator) EvalExec(ctx context.Context, ex Exec) (*Result, error) {
	if err := ex.ensureCompiled(); err != nil {
		return nil, err
	}
	switch ex.stmt.Explain {
	case ast.ExplainPlan:
		plan, err := ev.explainExec(ctx, ex)
		if err != nil {
			return nil, err
		}
		return &Result{Plan: plan}, nil
	case ast.ExplainAnalyze:
		plan, err := ev.ExplainAnalyzeExec(ctx, ex)
		if err != nil {
			return nil, err
		}
		return &Result{Plan: plan}, nil
	}
	col := ev.sink
	var pooled *obs.Collector
	if col != nil {
		col.SetHandler(ev.trace)
	} else {
		// A pooled collector is reset per statement: metrics-only
		// (no labels) unless a trace handler wants the events.
		pooled = ev.scratchPool.Get().(*obs.Collector)
		pooled.Reset(ev.trace)
		col = pooled
	}
	res, err := ev.evalGoverned(ctx, col, ex)
	if pooled != nil {
		ev.scratchPool.Put(pooled)
	}
	return res, err
}

// evalGoverned runs one compiled statement under governance with col
// collecting operator spans; every statement — plain, traced, or the
// execution leg of EXPLAIN ANALYZE — goes through here, so all three
// share one cancellation/budget/containment path. The statement's
// aggregate stats are folded into the evaluator's registry.
func (ev *Evaluator) evalGoverned(ctx context.Context, col *obs.Collector, ex Exec) (res *Result, err error) {
	stmt := ex.stmt
	if ctx == nil {
		ctx = context.Background()
	}
	limits := ev.limits
	if ex.opts.Limits != nil {
		limits = *ex.opts.Limits
	}
	if limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limits.Timeout)
		defer cancel()
	}
	c := ev.newCtx(gov.New(ctx, limits))
	c.col = col
	c.params = ex.cached.bind(ex.params)
	c.cached = ex.cached
	c.defGraph = ex.opts.DefaultGraph
	c.views = ex.opts.Views
	if ex.probe {
		col.PlanCacheEvent(ex.hit, ex.compile)
	}
	mark := col.Mark()
	sp := col.Start(obs.OpStatement)
	if sp.Verbose() {
		sp.SetLabel(stmtText(stmt))
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, gov.PanicError(r, stmtText(stmt))
		}
		col.RecordBudget(c.gov.FrontierUsed(), c.gov.ResultsUsed())
		if err != nil {
			sp.Fail()
		} else {
			sp.Rows(0, resultRows(res)).End()
		}
		ev.registry.Observe(col.Since(mark), err)
	}()
	// Entry checkpoint: a statement under an already-dead context
	// fails here, before any clause runs — even one whose evaluation
	// would otherwise touch no loop (empty scans, pure definitions).
	if err := c.gov.Checkpoint(faultinject.SiteEvalStart); err != nil {
		return nil, err
	}
	out, err := c.evalStatement(newScope(nil), stmt)
	if err != nil {
		return nil, err
	}
	for _, g := range c.pendingViews {
		if err := c.commitView(g); err != nil {
			return nil, errf("registering view %s: %v", g.Name(), err)
		}
	}
	return out, nil
}

// commitView hands a view of the succeeded statement to the catalog:
// staged in the write's Views when there is one, registered at once
// otherwise.
func (c *evalCtx) commitView(g *ppg.Graph) error {
	if c.views == nil {
		return c.ev.cat.RegisterGraph(g)
	}
	if err := c.ev.cat.StageGraph(g); err != nil {
		return err
	}
	c.views.staged = append(c.views.staged, g)
	return nil
}

// resultRows is the statement span's output cardinality: result table
// rows, or the element count of the constructed graph.
func resultRows(res *Result) int64 {
	switch {
	case res == nil:
		return 0
	case res.Table != nil:
		return int64(res.Table.Len())
	case res.Graph != nil:
		return int64(res.Graph.NumNodes() + res.Graph.NumEdges() + res.Graph.NumPaths())
	}
	return 0
}

func (c *evalCtx) evalStatement(s *scope, stmt *ast.Statement) (*Result, error) {
	for _, pc := range stmt.Paths {
		if _, dup := s.paths[pc.Name]; dup {
			return nil, errf("duplicate PATH view %q", pc.Name)
		}
		s.paths[pc.Name] = pc
	}
	var lastGraph *ppg.Graph
	for _, gc := range stmt.Graphs {
		child := newScope(s)
		res, err := c.evalStatement(child, gc.Body)
		if err != nil {
			return nil, err
		}
		if res.Graph == nil {
			return nil, errf("GRAPH %s AS (...): body is not a graph query", gc.Name)
		}
		g := res.Graph
		g.SetName(gc.Name)
		if gc.View {
			// Stage the view: visible to the rest of this statement
			// through resolveGraphName, committed to the catalog only
			// when the whole statement succeeds.
			if g.Name() == "" {
				return nil, errf("registering view %s: view needs a name", gc.Name)
			}
			c.pendingViews = append(c.pendingViews, g)
		} else {
			s.graphs[gc.Name] = g
		}
		lastGraph = g
	}
	if stmt.Query == nil {
		if lastGraph == nil {
			lastGraph = ppg.New("")
		}
		return &Result{Graph: lastGraph}, nil
	}
	return c.evalQuery(s, stmt.Query, bindings.Unit())
}

// evalQuery evaluates a full graph query given the outer binding
// table (the Ω′ of §A.5; {µ∅} at the top level, the outer row for
// correlated EXISTS subqueries).
func (c *evalCtx) evalQuery(s *scope, q ast.Query, outer *bindings.Table) (*Result, error) {
	switch x := q.(type) {
	case *ast.SetQuery:
		left, err := c.evalQuery(s, x.Left, outer)
		if err != nil {
			return nil, err
		}
		right, err := c.evalQuery(s, x.Right, outer)
		if err != nil {
			return nil, err
		}
		if left.Graph == nil || right.Graph == nil {
			return nil, errf("set operations require graph operands (SELECT queries cannot be combined with %s)", x.Op)
		}
		var g *ppg.Graph
		switch x.Op {
		case ast.SetUnion:
			g = ppg.Union("", left.Graph, right.Graph)
		case ast.SetIntersect:
			g = ppg.Intersect("", left.Graph, right.Graph)
		case ast.SetMinus:
			g = ppg.Minus("", left.Graph, right.Graph)
		}
		return &Result{Graph: g}, nil
	case *ast.BasicQuery:
		return c.evalBasic(s, x, outer)
	}
	return nil, errf("unknown query node %T", q)
}

func (c *evalCtx) evalBasic(s *scope, bq *ast.BasicQuery, outer *bindings.Table) (*Result, error) {
	var (
		tbl    *bindings.Table
		graphs []*ppg.Graph
		err    error
	)
	switch {
	case bq.From != "":
		tbl, err = c.fromTable(bq.From)
		if err != nil {
			return nil, err
		}
		tbl = bindings.Join(tbl, outer)
	case bq.Match != nil:
		tbl, graphs, err = c.evalMatch(s, bq.Match, outer)
		if err != nil {
			return nil, err
		}
	default:
		tbl = outer
	}
	if bq.Select != nil {
		sp := c.col.Start(obs.OpSelect)
		if sp.Verbose() {
			sp.SetLabel(selectLabel(bq.Select))
		}
		t, err := c.evalSelect(s, bq.Select, tbl, graphs)
		if err != nil {
			sp.Fail()
			return nil, err
		}
		sp.Rows(int64(tbl.Len()), int64(t.Len())).End()
		return &Result{Table: t}, nil
	}
	sp := c.col.Start(obs.OpConstruct)
	if sp.Verbose() {
		sp.SetLabel(constructLabel)
	}
	g, err := c.evalConstruct(s, bq.Construct, tbl, graphs)
	if err != nil {
		sp.Fail()
		return nil, err
	}
	sp.Rows(int64(tbl.Len()), int64(g.NumNodes()+g.NumEdges()+g.NumPaths())).End()
	return &Result{Graph: g}, nil
}

// resolveLocation finds the graph a located pattern matches on.
func (c *evalCtx) resolveLocation(s *scope, lp *ast.LocatedPattern) (*ppg.Graph, error) {
	switch {
	case lp.OnQuery != nil:
		// The ON subquery's operators are recorded one level down so
		// plan annotation matches only top-level spans.
		c.col.EnterSub()
		res, err := c.evalQuery(s, lp.OnQuery, bindings.Unit())
		c.col.ExitSub()
		if err != nil {
			return nil, err
		}
		if res.Graph == nil {
			return nil, errf("ON (subquery) must yield a graph")
		}
		return res.Graph, nil
	case lp.OnGraph != "":
		return c.resolveGraphName(s, lp.OnGraph)
	default:
		g, err := c.defaultGraph()
		if err != nil {
			return nil, err
		}
		if g != nil {
			return g, nil
		}
		return nil, errf("no default graph: use ON or register a graph first")
	}
}

func (c *evalCtx) resolveGraphName(s *scope, name string) (*ppg.Graph, error) {
	if g, ok := s.lookupGraph(name); ok {
		return g, nil
	}
	// Views defined earlier in this statement but not yet committed
	// (latest definition wins, matching catalog overwrite semantics).
	for i := len(c.pendingViews) - 1; i >= 0; i-- {
		if c.pendingViews[i].Name() == name {
			return c.pendingViews[i], nil
		}
	}
	if g, ok := c.views.lookup(name); ok {
		return g, nil
	}
	g, err := c.ev.cat.Resolve(name)
	if err != nil {
		return nil, errf("%v", err)
	}
	return g, nil
}

// fromTable imports a binding table for the FROM clause (§5).
// Column names become variables; a NULL cell leaves its variable
// unbound in that row.
func (c *evalCtx) fromTable(name string) (*bindings.Table, error) {
	t, ok := c.ev.cat.Table(name)
	if !ok {
		return nil, errf("catalog: unknown binding table %q", name)
	}
	tbl := bindings.Blank(len(t.Rows), t.Cols...)
	for ci, col := range t.Cols {
		slot := tbl.SlotOf(col)
		for ri, row := range t.Rows {
			if v := row[ci]; !v.IsNull() {
				tbl.Set(ri, slot, v)
			}
		}
	}
	return tbl, nil
}
