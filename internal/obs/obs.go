// Package obs is the execution-observability layer: a cheap
// per-statement Collector threaded alongside the governance Governor
// through every operator (scans, expansions, path searches, joins,
// filters, CONSTRUCT/SELECT) and the rpq kernels.
//
// Design constraints, in order:
//
//  1. Zero cost when absent. Every recording entry point is nil-safe
//     on a nil *Collector / nil *ActiveSpan, so uninstrumented
//     evaluation pays one pointer test per operator, not per row.
//  2. No per-row work. Spans record rows in/out as table lengths at
//     operator boundaries; rpq kernels count steps locally and flush
//     once at kernel end.
//  3. One statement, one collector. A statement runs on one goroutine
//     and records into its own Collector, so the collector holds plain
//     fields: no lock, no atomic. Only the Registry, which outlives
//     statements and is read while they run, is atomic.
//
// Counters are one table: a Counter names a slot of the collector's
// counts, of Stats.Counts and of the registry. Adding one takes a
// constant with its name, its event method, and a Metrics field with
// its fill line in Registry.Snapshot.
package obs

import "time"

// Op identifies an operator class. The set mirrors the EXPLAIN tree:
// one value per line kind the plan printer can emit.
type Op uint8

const (
	// OpStatement wraps a whole statement evaluation.
	OpStatement Op = iota
	// OpScan is the node scan seeding a pattern chain.
	OpScan
	// OpExpand is one adjacency expansion step (edge pattern).
	OpExpand
	// OpPath is one path-pattern step (reachability / k-shortest /
	// ALL-paths search seeded from the frontier table).
	OpPath
	// OpFilter is an eager pushed-down conjunct application.
	OpFilter
	// OpResidual is the residual WHERE filter (subqueries et al.).
	OpResidual
	// OpJoin is the conjunct-pattern fold of one MATCH.
	OpJoin
	// OpLeftJoin is one OPTIONAL block's left outer join.
	OpLeftJoin
	// OpConstruct is the CONSTRUCT clause building the result graph.
	OpConstruct
	// OpSelect is the SELECT clause building the result table.
	OpSelect
	// OpShortest is a k-shortest product-automaton kernel run.
	OpShortest
	// OpReach is a reachability-sweep kernel run.
	OpReach
	// OpAllPaths is an ALL-paths enumeration kernel run.
	OpAllPaths

	numOps = int(OpAllPaths) + 1
)

var opNames = [numOps]string{
	"statement", "scan", "expand", "path", "filter", "residual",
	"join", "left-join", "construct", "select",
	"shortest", "reach", "all-paths",
}

func (o Op) String() string {
	if int(o) < numOps {
		return opNames[o]
	}
	return "op?"
}

// Span is one finished operator execution. Rows are table lengths at
// the operator boundary; Pops/Arrivals are kernel frontier counters
// (pops from the search frontier, pushes onto it).
type Span struct {
	Op    Op
	Label string // plan-line text; empty unless the collector is verbose
	Depth int32  // 0 for top-level operators, >0 inside subqueries

	RowsIn   int64
	RowsOut  int64
	Pops     int64
	Arrivals int64

	Indexed bool   // scan used the label index (vs. full node scan)
	Seek    string // scan took its candidates from this property's equality index
	Err     bool

	Elapsed time.Duration
}

// TraceHandler receives operator span events. Implementations must be
// safe for concurrent use: concurrent statements run on their own
// goroutines, so SpanStart/SpanEnd of different statements may
// interleave. The engine
// never retains the Span past the SpanEnd call.
type TraceHandler interface {
	// SpanStart fires when an operator begins. The label is not yet
	// known (it is set during execution); depth>0 means a subquery.
	SpanStart(op Op, depth int)
	// SpanEnd fires with the completed span.
	SpanEnd(span Span)
}

// Counter identifies one statement counter. Names are the Metrics
// JSON fields the registry exports them under.
type Counter uint8

const (
	// NFAHits and NFAMisses are regex→NFA compilation cache probes.
	NFAHits Counter = iota
	NFAMisses
	// CSRReuses and CSRBuilds are CSR snapshot probes: the cached
	// generation reused, or the snapshot built.
	CSRReuses
	CSRBuilds
	// FrontierUsed and ResultsUsed are the governor's consumed budgets,
	// metered only when the corresponding limit is set.
	FrontierUsed
	ResultsUsed
	// PropColHits and PropColFallbacks are predicate rows answered from
	// the snapshot's property columns vs. by the interpreter.
	PropColHits
	PropColFallbacks
	// PropIndexSeeks and PropIndexBuilds are node scans that took their
	// candidates from a property column's value index, and the indexes
	// built for them.
	PropIndexSeeks
	PropIndexBuilds
	// WalksFound and WalksBuilt are k-shortest walks kept by the
	// kernels, and those materialised because a query dereferenced them.
	WalksFound
	WalksBuilt
	// PlanCacheHits, PlanCacheMisses and PlanCacheCompileNS are the
	// statement's plan-cache probe and its entry's compile time.
	PlanCacheHits
	PlanCacheMisses
	PlanCacheCompileNS

	numCounters = int(PlanCacheCompileNS) + 1
)

var counterNames = [numCounters]string{
	"nfa_cache_hits", "nfa_cache_misses", "csr_reuses", "csr_builds",
	"frontier_used", "results_used", "prop_col_hits", "prop_col_fallbacks",
	"prop_index_seeks", "prop_index_builds", "rpq_walks_found", "rpq_walks_built",
	"plan_cache_hits", "plan_cache_misses", "plan_cache_compile_ns",
}

func (k Counter) String() string {
	if int(k) < numCounters {
		return counterNames[k]
	}
	return "counter?"
}

// Collector records one statement's spans and counters. It belongs to
// the goroutine running that statement. The zero value is ready; Reset
// readies a reused one. A nil *Collector is a valid no-op receiver for
// Start and the event methods.
type Collector struct {
	spans   []Span
	handler TraceHandler
	verbose bool  // record labels (EXPLAIN ANALYZE / tracing)
	depth   int32 // subquery nesting
	counts  [numCounters]int64
}

// Reset clears all spans and counters and installs h as the trace
// handler. verbose records span labels; the metrics-only path leaves
// it off and skips label formatting entirely.
func (c *Collector) Reset(h TraceHandler, verbose bool) {
	*c = Collector{spans: c.spans[:0], handler: h, verbose: verbose}
}

// EnterSub marks entry into a subquery (EXISTS, pattern predicate, ON
// subquery, path-view materialisation). Spans recorded inside carry
// Depth>0 so plan annotation and the registry count only top-level
// operators, while trace handlers still see the full tree.
func (c *Collector) EnterSub() {
	if c != nil {
		c.depth++
	}
}

// ExitSub closes the innermost subquery scope.
func (c *Collector) ExitSub() {
	if c != nil {
		c.depth--
	}
}

// add bumps counter k by n.
func (c *Collector) add(k Counter, n int64) {
	if c != nil {
		c.counts[k] += n
	}
}

// pick is a when true, b otherwise.
func pick(cond bool, a, b Counter) Counter {
	if cond {
		return a
	}
	return b
}

// NFAEvent records a regex→NFA compilation cache probe.
func (c *Collector) NFAEvent(hit bool) { c.add(pick(hit, NFAHits, NFAMisses), 1) }

// PlanCacheEvent records one plan-cache probe for the executing
// statement. compile is the entry's compilation time: the cost a hit
// avoided, or the cost a miss just paid.
func (c *Collector) PlanCacheEvent(hit bool, compile time.Duration) {
	c.add(pick(hit, PlanCacheHits, PlanCacheMisses), 1)
	c.add(PlanCacheCompileNS, int64(compile))
}

// CSREvent records a CSR snapshot probe: hit means the cached
// generation was reused, miss means the snapshot was built.
func (c *Collector) CSREvent(hit bool) { c.add(pick(hit, CSRReuses, CSRBuilds), 1) }

// PropColEvent records columnar-predicate activity, batched per
// operator: hits counts predicate evaluations answered from the
// snapshot's property columns, falls those that fell back to the
// interpreter (refs the snapshot does not know).
func (c *Collector) PropColEvent(hits, falls int64) {
	c.add(PropColHits, hits)
	c.add(PropColFallbacks, falls)
}

// PropIndexEvent records one node scan's use of the property columns'
// equality indexes: whether it took its candidates from one (a seek),
// and how many indexes it had to build on the way.
func (c *Collector) PropIndexEvent(seek bool, builds int64) {
	if seek {
		c.add(PropIndexSeeks, 1)
	}
	c.add(PropIndexBuilds, builds)
}

// WalksFound records the walks one k-shortest kernel run kept: the
// walks its result represents, whether or not anything builds them.
func (c *Collector) WalksFound(n int64) { c.add(WalksFound, n) }

// WalkBuilt records one kept walk materialised as a graph-level node
// and edge sequence — a query dereferenced the path variable bound to
// it.
func (c *Collector) WalkBuilt() { c.add(WalksBuilt, 1) }

// RecordBudget adds the governor's consumed budget for one statement.
// The counters are nonzero only when the corresponding limit is set:
// the governor meters only what it bounds, so the hot kernels pay
// nothing by default (kernel spans still report frontier activity via
// Pops/Arrivals).
func (c *Collector) RecordBudget(frontier, results int64) {
	c.add(FrontierUsed, frontier)
	c.add(ResultsUsed, results)
}

// Start opens a span for op. On a nil collector it returns nil, and
// every *ActiveSpan method is nil-safe, so call sites need no guard:
//
//	sp := c.col.Start(obs.OpScan)
//	... work ...
//	sp.Rows(0, int64(tbl.Len())).End()
func (c *Collector) Start(op Op) *ActiveSpan {
	if c == nil {
		return nil
	}
	sp := &ActiveSpan{c: c, start: time.Now()}
	sp.span.Op = op
	sp.span.Depth = c.depth
	if c.handler != nil {
		c.handler.SpanStart(op, int(sp.span.Depth))
	}
	return sp
}

// ActiveSpan is an in-flight operator measurement. Methods chain and
// are nil-safe; End (or Fail) finalises the span exactly once.
type ActiveSpan struct {
	c     *Collector
	span  Span
	start time.Time
}

// Verbose reports whether the span records labels. Callers use it to
// skip label formatting on the metrics-only path.
func (sp *ActiveSpan) Verbose() bool {
	return sp != nil && sp.c.verbose
}

// SetLabel attaches the plan-line text identifying this operator.
func (sp *ActiveSpan) SetLabel(label string) *ActiveSpan {
	if sp != nil {
		sp.span.Label = label
	}
	return sp
}

// Rows records the operator's input and output cardinality.
func (sp *ActiveSpan) Rows(in, out int64) *ActiveSpan {
	if sp != nil {
		sp.span.RowsIn = in
		sp.span.RowsOut = out
	}
	return sp
}

// Indexed records whether a scan used the label index.
func (sp *ActiveSpan) Indexed(used bool) *ActiveSpan {
	if sp != nil {
		sp.span.Indexed = used
	}
	return sp
}

// Seek records the property key whose equality index supplied a scan's
// candidates ("" when it did not seek).
func (sp *ActiveSpan) Seek(key string) *ActiveSpan {
	if sp != nil {
		sp.span.Seek = key
	}
	return sp
}

// Frontier records kernel frontier counters: pops from the search
// frontier and arrivals pushed onto it.
func (sp *ActiveSpan) Frontier(pops, arrivals int64) *ActiveSpan {
	if sp != nil {
		sp.span.Pops = pops
		sp.span.Arrivals = arrivals
	}
	return sp
}

// End finalises the span, appends it to the collector, and notifies
// the trace handler.
func (sp *ActiveSpan) End() {
	if sp == nil {
		return
	}
	sp.span.Elapsed = time.Since(sp.start)
	c := sp.c
	c.spans = append(c.spans, sp.span)
	if c.handler != nil {
		c.handler.SpanEnd(sp.span)
	}
}

// Fail finalises the span with the error flag set.
func (sp *ActiveSpan) Fail() {
	if sp == nil {
		return
	}
	sp.span.Err = true
	sp.End()
}

// Spans returns the statement's finished spans in completion order.
// The slice is the collector's own, valid until the next Reset.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	return c.spans
}

// OpStat aggregates the spans of one operator class.
type OpStat struct {
	Count    int64
	RowsIn   int64
	RowsOut  int64
	Pops     int64
	Arrivals int64
	Elapsed  time.Duration
}

// Stats is the aggregate view of one statement: per-operator totals,
// indexed by Op, and the counters, indexed by Counter.
type Stats struct {
	Ops    [numOps]OpStat
	Counts [numCounters]int64
}

// Stats aggregates the collector's history. Subquery spans (Depth>0)
// are folded into the same operator classes — a row scanned inside
// EXISTS is still a row scanned.
func (c *Collector) Stats() Stats {
	var st Stats
	if c == nil {
		return st
	}
	for i := range c.spans {
		sp := &c.spans[i]
		os := &st.Ops[sp.Op]
		os.Count++
		os.RowsIn += sp.RowsIn
		os.RowsOut += sp.RowsOut
		os.Pops += sp.Pops
		os.Arrivals += sp.Arrivals
		os.Elapsed += sp.Elapsed
	}
	st.Counts = c.counts
	return st
}
