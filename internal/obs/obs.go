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
//     once at kernel end. This also makes row counts deterministic
//     across parallelism levels — a chunked parallel scan and a
//     sequential scan produce the same table, hence the same counts.
//  3. Race-safe. The evaluator runs operators on worker goroutines
//     and engines are used from tests concurrently; all counters are
//     atomic and the span list is mutex-guarded.
//
// A Collector accumulates; Mark/Since carve out the slice belonging
// to one statement so a long-lived sink Collector (WithCollector) can
// span many queries while the engine still reports per-statement
// stats to its Registry.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

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
// safe for concurrent use: operators run on worker goroutines, so
// SpanStart/SpanEnd for different spans may interleave and event
// order between sibling operators is not deterministic. The engine
// never retains the Span past the SpanEnd call.
type TraceHandler interface {
	// SpanStart fires when an operator begins. The label is not yet
	// known (it is set during execution); depth>0 means a subquery.
	SpanStart(op Op, depth int)
	// SpanEnd fires with the completed span.
	SpanEnd(span Span)
}

// Collector accumulates spans and cache/budget counters for one or
// more statements. The zero value is NOT ready; use NewCollector. A
// nil *Collector is a valid no-op receiver for Start and the event
// methods.
type Collector struct {
	mu      sync.Mutex
	spans   []Span
	handler TraceHandler

	verbose atomic.Bool  // record labels (EXPLAIN ANALYZE / tracing)
	depth   atomic.Int32 // subquery nesting, muting labels below 0

	nfaHits      atomic.Int64
	nfaMisses    atomic.Int64
	csrReuses    atomic.Int64
	csrBuilds    atomic.Int64
	snapFull     atomic.Int64
	snapDeltas   atomic.Int64
	snapFalls    atomic.Int64
	snapDeltaOps atomic.Int64
	snapShared   atomic.Int64
	snapCopied   atomic.Int64
	frontierUsed atomic.Int64
	resultsUsed  atomic.Int64
	propColHits  atomic.Int64
	propColFalls atomic.Int64
	propIdxSeeks atomic.Int64
	propIdxBuild atomic.Int64
	walksFound   atomic.Int64
	walksBuilt   atomic.Int64

	planHits      atomic.Int64
	planMisses    atomic.Int64
	planCompileNS atomic.Int64
}

// NewCollector returns a collector that records span labels (verbose
// mode), suitable for EXPLAIN ANALYZE and for user-held collectors.
func NewCollector() *Collector {
	c := &Collector{}
	c.verbose.Store(true)
	return c
}

// Reset clears all spans and counters and installs h as the trace
// handler. Label recording is enabled only when a handler is present;
// the metrics-only path skips label formatting entirely. Reset is how
// the evaluator reuses one scratch collector across statements.
func (c *Collector) Reset(h TraceHandler) {
	c.mu.Lock()
	c.spans = c.spans[:0]
	c.handler = h
	c.mu.Unlock()
	c.verbose.Store(h != nil)
	c.depth.Store(0)
	c.nfaHits.Store(0)
	c.nfaMisses.Store(0)
	c.csrReuses.Store(0)
	c.csrBuilds.Store(0)
	c.snapFull.Store(0)
	c.snapDeltas.Store(0)
	c.snapFalls.Store(0)
	c.snapDeltaOps.Store(0)
	c.snapShared.Store(0)
	c.snapCopied.Store(0)
	c.frontierUsed.Store(0)
	c.resultsUsed.Store(0)
	c.propColHits.Store(0)
	c.propColFalls.Store(0)
	c.propIdxSeeks.Store(0)
	c.propIdxBuild.Store(0)
	c.walksFound.Store(0)
	c.walksBuilt.Store(0)
	c.planHits.Store(0)
	c.planMisses.Store(0)
	c.planCompileNS.Store(0)
}

// SetHandler installs (or clears) the trace handler without touching
// recorded spans or counters.
func (c *Collector) SetHandler(h TraceHandler) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.handler = h
	c.mu.Unlock()
}

// EnterSub marks entry into a subquery (EXISTS, pattern predicate, ON
// subquery, path-view materialisation). Spans recorded inside carry
// Depth>0 so plan annotation and the registry count only top-level
// operators, while trace handlers still see the full tree.
func (c *Collector) EnterSub() {
	if c == nil {
		return
	}
	c.depth.Add(1)
}

// ExitSub closes the innermost subquery scope.
func (c *Collector) ExitSub() {
	if c == nil {
		return
	}
	c.depth.Add(-1)
}

// NFAEvent records a regex→NFA compilation cache probe.
func (c *Collector) NFAEvent(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.nfaHits.Add(1)
	} else {
		c.nfaMisses.Add(1)
	}
}

// PlanCacheEvent records one plan-cache probe for the executing
// statement. compile is the entry's compilation time: the cost a hit
// avoided, or the cost a miss just paid.
func (c *Collector) PlanCacheEvent(hit bool, compile time.Duration) {
	if c == nil {
		return
	}
	if hit {
		c.planHits.Add(1)
	} else {
		c.planMisses.Add(1)
	}
	c.planCompileNS.Add(int64(compile))
}

// CSREvent records a CSR snapshot probe: hit means the cached
// generation was reused, miss means the snapshot was (re)built.
func (c *Collector) CSREvent(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.csrReuses.Add(1)
	} else {
		c.csrBuilds.Add(1)
	}
}

// SnapshotBuild records one CSR snapshot acquisition that was NOT a
// cache reuse (those go through CSREvent alone). Exactly one of the
// three outcomes applies per call: a delta apply (delta=true, with its
// op count and the approximate shared/copied byte split of the
// resulting snapshot), a fallback (fallback=true: a delta existed but
// was declined and a full build ran), or a plain full build (both
// false: no previous snapshot or recording was off).
func (c *Collector) SnapshotBuild(delta, fallback bool, deltaOps int, bytesShared, bytesCopied int64) {
	if c == nil {
		return
	}
	switch {
	case delta:
		c.snapDeltas.Add(1)
		c.snapDeltaOps.Add(int64(deltaOps))
		c.snapShared.Add(bytesShared)
		c.snapCopied.Add(bytesCopied)
	case fallback:
		c.snapFalls.Add(1)
	default:
		c.snapFull.Add(1)
	}
}

// PropColEvent records columnar-predicate activity, batched per
// filter chunk: hits counts predicate evaluations answered from the
// snapshot's property columns, falls those that fell back to the
// interpreter (refs the snapshot does not know).
func (c *Collector) PropColEvent(hits, falls int64) {
	if c == nil {
		return
	}
	if hits != 0 {
		c.propColHits.Add(hits)
	}
	if falls != 0 {
		c.propColFalls.Add(falls)
	}
}

// PropIndexEvent records one node scan's use of the property columns'
// equality indexes: whether it took its candidates from one (a seek),
// and how many indexes it had to build on the way.
func (c *Collector) PropIndexEvent(seek bool, builds int64) {
	if c == nil {
		return
	}
	if seek {
		c.propIdxSeeks.Add(1)
	}
	if builds != 0 {
		c.propIdxBuild.Add(builds)
	}
}

// WalksFound records the walks one k-shortest kernel run kept: the
// walks its result represents, whether or not anything builds them.
func (c *Collector) WalksFound(n int64) {
	if c == nil {
		return
	}
	c.walksFound.Add(n)
}

// WalkBuilt records one kept walk materialised as a graph-level node
// and edge sequence — a query dereferenced the path variable bound to
// it.
func (c *Collector) WalkBuilt() {
	if c == nil {
		return
	}
	c.walksBuilt.Add(1)
}

// RecordBudget adds the governor's consumed budget for one statement.
// The counters are nonzero only when the corresponding limit is set:
// the governor deliberately skips its atomics when unlimited, so the
// hot kernels pay nothing by default (kernel spans still report
// frontier activity via Pops/Arrivals).
func (c *Collector) RecordBudget(frontier, results int64) {
	if c == nil {
		return
	}
	if frontier != 0 {
		c.frontierUsed.Add(frontier)
	}
	if results != 0 {
		c.resultsUsed.Add(results)
	}
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
	sp.span.Depth = c.depth.Load()
	c.mu.Lock()
	h := c.handler
	c.mu.Unlock()
	if h != nil {
		h.SpanStart(op, int(sp.span.Depth))
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
	return sp != nil && sp.c.verbose.Load()
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
	c.mu.Lock()
	c.spans = append(c.spans, sp.span)
	h := c.handler
	c.mu.Unlock()
	if h != nil {
		h.SpanEnd(sp.span)
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

// Mark is a position in a collector's history; Since/SpansSince
// report only what was recorded after the mark, letting one sink
// collector serve many statements.
type Mark struct {
	spans     int
	nfaHits   int64
	nfaMisses int64
	csrReuses int64
	csrBuilds int64
	snapFull  int64
	snapDelta int64
	snapFalls int64
	snapOps   int64
	snapShare int64
	snapCopy  int64
	frontier  int64
	results   int64
	propHits  int64
	propFalls int64
	idxSeeks  int64
	idxBuilds int64
	walksFnd  int64
	walksBlt  int64

	planHits    int64
	planMisses  int64
	planCompile int64
}

// Mark snapshots the collector's current position. Safe on nil (the
// zero Mark then matches the empty history).
func (c *Collector) Mark() Mark {
	if c == nil {
		return Mark{}
	}
	c.mu.Lock()
	n := len(c.spans)
	c.mu.Unlock()
	return Mark{
		spans:       n,
		nfaHits:     c.nfaHits.Load(),
		nfaMisses:   c.nfaMisses.Load(),
		csrReuses:   c.csrReuses.Load(),
		csrBuilds:   c.csrBuilds.Load(),
		snapFull:    c.snapFull.Load(),
		snapDelta:   c.snapDeltas.Load(),
		snapFalls:   c.snapFalls.Load(),
		snapOps:     c.snapDeltaOps.Load(),
		snapShare:   c.snapShared.Load(),
		snapCopy:    c.snapCopied.Load(),
		frontier:    c.frontierUsed.Load(),
		results:     c.resultsUsed.Load(),
		propHits:    c.propColHits.Load(),
		propFalls:   c.propColFalls.Load(),
		idxSeeks:    c.propIdxSeeks.Load(),
		idxBuilds:   c.propIdxBuild.Load(),
		walksFnd:    c.walksFound.Load(),
		walksBlt:    c.walksBuilt.Load(),
		planHits:    c.planHits.Load(),
		planMisses:  c.planMisses.Load(),
		planCompile: c.planCompileNS.Load(),
	}
}

// SpansSince returns a copy of the spans recorded after m.
func (c *Collector) SpansSince(m Mark) []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.spans >= len(c.spans) {
		return nil
	}
	out := make([]Span, len(c.spans)-m.spans)
	copy(out, c.spans[m.spans:])
	return out
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

// Stats is the aggregate view of a collector (or a Since window).
type Stats struct {
	Ops [numOps]OpStat

	NFAHits      int64
	NFAMisses    int64
	CSRReuses    int64
	CSRBuilds    int64
	FrontierUsed int64

	// CSR snapshot maintenance: how non-reused snapshots were obtained
	// (full build, incremental delta apply, declined-delta fallback),
	// the mutation ops the applied deltas carried, and the approximate
	// bytes the delta-applied snapshots share with vs. copied from
	// their predecessors.
	SnapshotFullBuilds   int64
	SnapshotDeltaApplies int64
	SnapshotFallbacks    int64
	SnapshotDeltaOps     int64
	SnapshotBytesShared  int64
	SnapshotBytesCopied  int64

	ResultsUsed      int64
	PropColHits      int64
	PropColFallbacks int64

	// Equality-index activity of node scans: scans that took their
	// candidates from a property column's value index, and indexes
	// built (first seek of a column version).
	PropIndexSeeks  int64
	PropIndexBuilds int64

	// k-shortest walks: kept by the kernels, and materialised because a
	// query dereferenced them.
	WalksFound int64
	WalksBuilt int64

	PlanCacheHits    int64
	PlanCacheMisses  int64
	PlanCacheCompile time.Duration
}

// Op returns the aggregate for one operator class.
func (s *Stats) Op(op Op) OpStat { return s.Ops[op] }

// Since aggregates everything recorded after m. Subquery spans
// (Depth>0) are folded into the same operator classes — a row scanned
// inside EXISTS is still a row scanned.
func (c *Collector) Since(m Mark) Stats {
	var st Stats
	if c == nil {
		return st
	}
	c.mu.Lock()
	spans := c.spans[min(m.spans, len(c.spans)):]
	for i := range spans {
		sp := &spans[i]
		os := &st.Ops[sp.Op]
		os.Count++
		os.RowsIn += sp.RowsIn
		os.RowsOut += sp.RowsOut
		os.Pops += sp.Pops
		os.Arrivals += sp.Arrivals
		os.Elapsed += sp.Elapsed
	}
	c.mu.Unlock()
	st.NFAHits = c.nfaHits.Load() - m.nfaHits
	st.NFAMisses = c.nfaMisses.Load() - m.nfaMisses
	st.CSRReuses = c.csrReuses.Load() - m.csrReuses
	st.CSRBuilds = c.csrBuilds.Load() - m.csrBuilds
	st.SnapshotFullBuilds = c.snapFull.Load() - m.snapFull
	st.SnapshotDeltaApplies = c.snapDeltas.Load() - m.snapDelta
	st.SnapshotFallbacks = c.snapFalls.Load() - m.snapFalls
	st.SnapshotDeltaOps = c.snapDeltaOps.Load() - m.snapOps
	st.SnapshotBytesShared = c.snapShared.Load() - m.snapShare
	st.SnapshotBytesCopied = c.snapCopied.Load() - m.snapCopy
	st.FrontierUsed = c.frontierUsed.Load() - m.frontier
	st.ResultsUsed = c.resultsUsed.Load() - m.results
	st.PropColHits = c.propColHits.Load() - m.propHits
	st.PropColFallbacks = c.propColFalls.Load() - m.propFalls
	st.PropIndexSeeks = c.propIdxSeeks.Load() - m.idxSeeks
	st.PropIndexBuilds = c.propIdxBuild.Load() - m.idxBuilds
	st.WalksFound = c.walksFound.Load() - m.walksFnd
	st.WalksBuilt = c.walksBuilt.Load() - m.walksBlt
	st.PlanCacheHits = c.planHits.Load() - m.planHits
	st.PlanCacheMisses = c.planMisses.Load() - m.planMisses
	st.PlanCacheCompile = time.Duration(c.planCompileNS.Load() - m.planCompile)
	return st
}

// Stats aggregates the collector's full history.
func (c *Collector) Stats() Stats { return c.Since(Mark{}) }
