package obs

import (
	"sync/atomic"
	"time"
)

// Registry accumulates per-operator statistics across the lifetime of
// an engine. All counters are atomic: statements observe their stats
// concurrently with snapshot readers (expvar, \metrics).
type Registry struct {
	queries atomic.Int64
	errors  atomic.Int64

	ops [numOps]opCounters

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
	propIdxSeeks atomic.Int64
	propIdxBuild atomic.Int64
	walksFound   atomic.Int64
	walksBuilt   atomic.Int64
}

type opCounters struct {
	count    atomic.Int64
	rowsIn   atomic.Int64
	rowsOut  atomic.Int64
	pops     atomic.Int64
	arrivals atomic.Int64
	elapsed  atomic.Int64 // nanoseconds
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Observe folds one statement's stats into the registry.
func (r *Registry) Observe(st Stats, err error) {
	if r == nil {
		return
	}
	r.queries.Add(1)
	if err != nil {
		r.errors.Add(1)
	}
	for i := range st.Ops {
		os := &st.Ops[i]
		if os.Count == 0 {
			continue
		}
		oc := &r.ops[i]
		oc.count.Add(os.Count)
		oc.rowsIn.Add(os.RowsIn)
		oc.rowsOut.Add(os.RowsOut)
		oc.pops.Add(os.Pops)
		oc.arrivals.Add(os.Arrivals)
		oc.elapsed.Add(int64(os.Elapsed))
	}
	r.nfaHits.Add(st.NFAHits)
	r.nfaMisses.Add(st.NFAMisses)
	r.csrReuses.Add(st.CSRReuses)
	r.csrBuilds.Add(st.CSRBuilds)
	r.snapFull.Add(st.SnapshotFullBuilds)
	r.snapDeltas.Add(st.SnapshotDeltaApplies)
	r.snapFalls.Add(st.SnapshotFallbacks)
	r.snapDeltaOps.Add(st.SnapshotDeltaOps)
	r.snapShared.Add(st.SnapshotBytesShared)
	r.snapCopied.Add(st.SnapshotBytesCopied)
	r.frontierUsed.Add(st.FrontierUsed)
	r.resultsUsed.Add(st.ResultsUsed)
	r.propIdxSeeks.Add(st.PropIndexSeeks)
	r.propIdxBuild.Add(st.PropIndexBuilds)
	r.walksFound.Add(st.WalksFound)
	r.walksBuilt.Add(st.WalksBuilt)
}

// OpMetrics is the exported aggregate for one operator class.
type OpMetrics struct {
	Count     int64         `json:"count"`
	RowsIn    int64         `json:"rows_in"`
	RowsOut   int64         `json:"rows_out"`
	Pops      int64         `json:"pops,omitempty"`
	Arrivals  int64         `json:"arrivals,omitempty"`
	ElapsedNS int64         `json:"elapsed_ns"`
	Elapsed   time.Duration `json:"-"`
}

// Metrics is a point-in-time snapshot of a Registry, shaped for JSON
// export (expvar, -metrics, \metrics).
type Metrics struct {
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`

	// Read/write path split: statements executed as reads vs. as
	// writes (serialised behind the writer mutex). Not fed through
	// Observe — the engine counts them at dispatch and fills them when
	// it snapshots.
	ReadStatements  int64 `json:"read_statements"`
	WriteStatements int64 `json:"write_statements"`

	Operators map[string]OpMetrics `json:"operators"`

	NFACacheHits   int64 `json:"nfa_cache_hits"`
	NFACacheMisses int64 `json:"nfa_cache_misses"`
	CSRReuses      int64 `json:"csr_reuses"`
	CSRBuilds      int64 `json:"csr_builds"`
	FrontierUsed   int64 `json:"frontier_used"`
	ResultsUsed    int64 `json:"results_used"`

	// Incremental snapshot maintenance: of the csr_builds above, how
	// many were full rebuilds vs. delta applies vs. declined-delta
	// fallbacks, plus the applied deltas' op count and shared/copied
	// byte split.
	SnapshotFullBuilds   int64 `json:"snapshot_full_builds,omitempty"`
	SnapshotDeltaApplies int64 `json:"snapshot_delta_applies,omitempty"`
	SnapshotFallbacks    int64 `json:"snapshot_fallbacks,omitempty"`
	SnapshotDeltaOps     int64 `json:"snapshot_delta_ops,omitempty"`
	SnapshotBytesShared  int64 `json:"snapshot_bytes_shared,omitempty"`
	SnapshotBytesCopied  int64 `json:"snapshot_bytes_copied,omitempty"`

	// Equality seeks: node scans whose candidates came from a property
	// column's value index, and the indexes built for them (one per
	// sought column per snapshot version that rewrote it).
	PropIndexSeeks  int64 `json:"prop_index_seeks"`
	PropIndexBuilds int64 `json:"prop_index_builds"`

	// k-shortest walks the kernels kept, and how many of them queries
	// dereferenced and therefore built.
	RPQWalksFound int64 `json:"rpq_walks_found"`
	RPQWalksBuilt int64 `json:"rpq_walks_built"`

	// Plan-cache lifetime counters. These are not fed through Observe:
	// the cache outlives statements, so the engine fills them from the
	// cache's own counters when it snapshots.
	PlanCacheHits      int64 `json:"plan_cache_hits"`
	PlanCacheMisses    int64 `json:"plan_cache_misses"`
	PlanCacheEvictions int64 `json:"plan_cache_evictions"`
	PlanCacheEntries   int64 `json:"plan_cache_entries"`
	PlanCacheCompileNS int64 `json:"plan_cache_compile_ns"`

	// Write-ahead-log lifetime counters, filled by the durable engine
	// from its log when it snapshots (zero on a non-durable engine).
	WALAppends       int64 `json:"wal_appends,omitempty"`
	WALAppendedBytes int64 `json:"wal_appended_bytes,omitempty"`
	WALBatched       int64 `json:"wal_batched,omitempty"`
	WALSyncs         int64 `json:"wal_syncs,omitempty"`
	WALRolls         int64 `json:"wal_rolls,omitempty"`
	WALCheckpoints   int64 `json:"wal_checkpoints,omitempty"`
	WALReplayed      int64 `json:"wal_replayed,omitempty"`
	WALTornTruncated int64 `json:"wal_torn_truncated,omitempty"`
}

// Snapshot returns a consistent-enough copy of the registry: each
// counter is read atomically; cross-counter skew is bounded by
// in-flight statements.
func (r *Registry) Snapshot() Metrics {
	m := Metrics{Operators: map[string]OpMetrics{}}
	if r == nil {
		return m
	}
	m.Queries = r.queries.Load()
	m.Errors = r.errors.Load()
	for i := range r.ops {
		oc := &r.ops[i]
		n := oc.count.Load()
		if n == 0 {
			continue
		}
		ns := oc.elapsed.Load()
		m.Operators[Op(i).String()] = OpMetrics{
			Count:     n,
			RowsIn:    oc.rowsIn.Load(),
			RowsOut:   oc.rowsOut.Load(),
			Pops:      oc.pops.Load(),
			Arrivals:  oc.arrivals.Load(),
			ElapsedNS: ns,
			Elapsed:   time.Duration(ns),
		}
	}
	m.NFACacheHits = r.nfaHits.Load()
	m.NFACacheMisses = r.nfaMisses.Load()
	m.CSRReuses = r.csrReuses.Load()
	m.CSRBuilds = r.csrBuilds.Load()
	m.SnapshotFullBuilds = r.snapFull.Load()
	m.SnapshotDeltaApplies = r.snapDeltas.Load()
	m.SnapshotFallbacks = r.snapFalls.Load()
	m.SnapshotDeltaOps = r.snapDeltaOps.Load()
	m.SnapshotBytesShared = r.snapShared.Load()
	m.SnapshotBytesCopied = r.snapCopied.Load()
	m.FrontierUsed = r.frontierUsed.Load()
	m.ResultsUsed = r.resultsUsed.Load()
	m.PropIndexSeeks = r.propIdxSeeks.Load()
	m.PropIndexBuilds = r.propIdxBuild.Load()
	m.RPQWalksFound = r.walksFound.Load()
	m.RPQWalksBuilt = r.walksBuilt.Load()
	return m
}
