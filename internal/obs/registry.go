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

	ops    [numOps]opCounters
	counts [numCounters]atomic.Int64
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
	for k, n := range st.Counts {
		if n != 0 {
			r.counts[k].Add(n)
		}
	}
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

	// The statement counters, one field per Counter under its name.
	NFACacheHits   int64 `json:"nfa_cache_hits"`
	NFACacheMisses int64 `json:"nfa_cache_misses"`
	CSRReuses      int64 `json:"csr_reuses"`
	CSRBuilds      int64 `json:"csr_builds"`
	FrontierUsed   int64 `json:"frontier_used"`
	ResultsUsed    int64 `json:"results_used"`

	// SnapshotFullBuilds repeats CSRBuilds: every snapshot built is a
	// full build. It stays for readers of the name.
	SnapshotFullBuilds int64 `json:"snapshot_full_builds"`

	// Predicate rows answered from the snapshot's property columns, and
	// rows that fell back to the interpreter.
	PropColHits      int64 `json:"prop_col_hits"`
	PropColFallbacks int64 `json:"prop_col_fallbacks"`

	// Equality seeks: node scans whose candidates came from a property
	// column's value index, and the indexes built for them (one per
	// sought column per snapshot).
	PropIndexSeeks  int64 `json:"prop_index_seeks"`
	PropIndexBuilds int64 `json:"prop_index_builds"`

	// k-shortest walks the kernels kept, and how many of them queries
	// dereferenced and therefore built.
	RPQWalksFound int64 `json:"rpq_walks_found"`
	RPQWalksBuilt int64 `json:"rpq_walks_built"`

	// Plan-cache lifetime counters. The engine replaces the registry's
	// sums with the cache's own counters when it snapshots: the cache
	// outlives statements, and evictions and occupancy are not
	// statement events.
	PlanCacheHits      int64 `json:"plan_cache_hits"`
	PlanCacheMisses    int64 `json:"plan_cache_misses"`
	PlanCacheEvictions int64 `json:"plan_cache_evictions"`
	PlanCacheEntries   int64 `json:"plan_cache_entries"`
	PlanCacheCompileNS int64 `json:"plan_cache_compile_ns"`

	// Write-ahead-log lifetime counters, filled by the durable engine
	// from its log when it snapshots (zero on a non-durable engine).
	WALAppends       int64 `json:"wal_appends,omitempty"`
	WALAppendedBytes int64 `json:"wal_appended_bytes,omitempty"`
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
	m.NFACacheHits = r.counts[NFAHits].Load()
	m.NFACacheMisses = r.counts[NFAMisses].Load()
	m.CSRReuses = r.counts[CSRReuses].Load()
	m.CSRBuilds = r.counts[CSRBuilds].Load()
	m.SnapshotFullBuilds = m.CSRBuilds
	m.FrontierUsed = r.counts[FrontierUsed].Load()
	m.ResultsUsed = r.counts[ResultsUsed].Load()
	m.PropColHits = r.counts[PropColHits].Load()
	m.PropColFallbacks = r.counts[PropColFallbacks].Load()
	m.PropIndexSeeks = r.counts[PropIndexSeeks].Load()
	m.PropIndexBuilds = r.counts[PropIndexBuilds].Load()
	m.RPQWalksFound = r.counts[WalksFound].Load()
	m.RPQWalksBuilt = r.counts[WalksBuilt].Load()
	m.PlanCacheHits = r.counts[PlanCacheHits].Load()
	m.PlanCacheMisses = r.counts[PlanCacheMisses].Load()
	m.PlanCacheCompileNS = r.counts[PlanCacheCompileNS].Load()
	return m
}
