package gcore

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"gcore/internal/catalog"
	"gcore/internal/faultinject"
	"gcore/internal/ppg"
	"gcore/internal/table"
	"gcore/internal/value"
	"gcore/internal/wal"
)

// Durability. A DurableEngine is an Engine whose catalog survives
// crashes: every mutation — graph registrations (including the
// materialised graphs of GRAPH VIEW), table registrations, default
// changes, and element-level graph mutations — is appended to a
// write-ahead log in the data directory before it is applied, and
// checkpoints periodically compact the log into the SaveCatalog JSON
// snapshot layout plus the log watermark the snapshot was taken at.
// Recovery (OpenDurable on an existing directory) loads the last
// committed checkpoint and replays the log tail, restoring the exact
// committed state: a torn record tail is truncated, and replay never
// runs past a bad checksum.
//
// The data directory is the wal package's log directory:
//
//	<dir>/0000000000000001.wal ...   log segments
//	<dir>/ckpt-<seq>/                checkpoints (SaveCatalog layout
//	                                 plus watermark.json)
//	<dir>/CURRENT                    pointer to the live checkpoint

// Re-exported WAL types. SyncPolicy selects when appended records are
// fsynced; see WithSyncPolicy.
type (
	// SyncPolicy selects the WAL fsync policy.
	SyncPolicy = wal.SyncPolicy
	// WALStats are the log's lifetime counters (see DurableEngine.WALStats).
	WALStats = wal.Stats
	// WALCorruptError reports unrecoverable log or checkpoint damage
	// found during recovery; the damaged file is named (and, for
	// segments, quarantined with a .corrupt suffix).
	WALCorruptError = wal.CorruptError
)

// The fsync policies.
const (
	// SyncAlways fsyncs every record: a returned mutation is committed.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs at most once per interval (WithSyncInterval);
	// a crash can lose the records since the previous sync.
	SyncInterval = wal.SyncInterval
	// SyncOnCheckpoint fsyncs only at checkpoints and on Close.
	SyncOnCheckpoint = wal.SyncOnCheckpoint
)

// DurOption configures OpenDurable.
type DurOption func(*durConfig)

type durConfig struct {
	walOpts         wal.Options
	checkpointEvery int64
	engineOpts      []Option
}

// WithSyncPolicy selects the WAL fsync policy (default SyncAlways).
func WithSyncPolicy(p SyncPolicy) DurOption {
	return func(c *durConfig) { c.walOpts.Policy = p }
}

// WithSyncInterval sets the SyncInterval period (default 100ms).
func WithSyncInterval(d time.Duration) DurOption {
	return func(c *durConfig) { c.walOpts.Interval = d }
}

// WithSegmentSize sets the log segment roll threshold (default 4 MiB).
func WithSegmentSize(n int64) DurOption {
	return func(c *durConfig) { c.walOpts.SegmentSize = n }
}

// WithCheckpointEvery makes the engine take a checkpoint automatically
// once n records have been appended since the last one (checked at the
// end of every write — statement, script, registration or MutateGraph
// — so one write's records are never split across a checkpoint). Zero
// (the default) disables automatic checkpoints; Checkpoint can always
// be called explicitly.
func WithCheckpointEvery(n int64) DurOption {
	return func(c *durConfig) { c.checkpointEvery = n }
}

// WithEngineOptions passes construction options to the underlying
// Engine (limits, plan cache size, ...).
func WithEngineOptions(opts ...Option) DurOption {
	return func(c *durConfig) { c.engineOpts = append(c.engineOpts, opts...) }
}

// DurableEngine is an Engine backed by a write-ahead log. All Engine
// methods are available; mutating ones append to the log before they
// apply, so any mutation that returns nil is recoverable (under
// SyncAlways, committed to disk). Close the engine to release the log.
//
// A durable graph changes only through the engine (queries,
// Register*) and the graph's own mutators (Add*, Set*), whose hook logs
// each change before it applies and fails the mutation if the log
// cannot take it, so memory is never ahead of the log. Elements are
// read-only: a Props map written in place is a change no log sees.
type DurableEngine struct {
	*Engine
	log *wal.Log
	cfg durConfig

	// sinceCkpt counts records appended since the last checkpoint. It
	// is atomic because the hooks also fire when a caller mutates a
	// registered graph directly, outside the engine mutex.
	sinceCkpt atomic.Int64
}

// walRecord is the logical log record: one catalog or graph mutation,
// encoded as JSON (the payload the wal package checksums and frames).
type walRecord struct {
	// Op is the mutation kind: register_graph, register_table,
	// set_default, add_node, add_edge, add_path, set_node_labels,
	// set_edge_labels, set_node_props, set_edge_props or set_path_props.
	// Replay also reads graph_snapshot, a registered graph's whole new
	// content, which older engines wrote and nothing writes now.
	Op string `json:"op"`
	// Name is the graph (or table, or default) the record applies to.
	Name string `json:"name,omitempty"`
	// ID is the element identifier for element-level records.
	ID uint64 `json:"id,omitempty"`
	// Labels carries the new label set for set_*_labels records.
	Labels []string `json:"labels,omitempty"`
	// Data is the element / graph / table / properties document in the
	// interchange encoding.
	Data json.RawMessage `json:"data,omitempty"`

	// appendData, when set, writes Data straight into the payload as the
	// record is encoded (see encode); decoding fills Data instead.
	appendData func([]byte) ([]byte, error)
}

// encode returns the record's payload, written in one pass: the bytes
// json.Marshal writes for the record whose Data is what appendData
// appends (Data comes last, so the document is appended in place).
func (r walRecord) encode() ([]byte, error) {
	dst := value.AppendJSONString(append(make([]byte, 0, 64), `{"op":`...), r.Op)
	if r.Name != "" {
		dst = value.AppendJSONString(append(dst, `,"name":`...), r.Name)
	}
	if r.ID != 0 {
		dst = strconv.AppendUint(append(dst, `,"id":`...), r.ID, 10)
	}
	if len(r.Labels) > 0 {
		dst = append(dst, `,"labels":[`...)
		for i, l := range r.Labels {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = value.AppendJSONString(dst, l)
		}
		dst = append(dst, ']')
	}
	if r.appendData != nil {
		var err error
		if dst, err = r.appendData(append(dst, `,"data":`...)); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// OpenDurable opens (creating if needed) a durable engine rooted at
// dir. On an existing directory it recovers: the last committed
// checkpoint is loaded and the log tail replayed. Unrecoverable
// damage — corruption of committed records or checkpoints, as opposed
// to a torn tail — fails with a *WALCorruptError naming the
// quarantined file.
func OpenDurable(dir string, opts ...DurOption) (*DurableEngine, error) {
	var cfg durConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	log, err := wal.Open(dir, cfg.walOpts)
	if err != nil {
		return nil, err
	}
	d := &DurableEngine{Engine: NewEngine(cfg.engineOpts...), log: log, cfg: cfg}
	if err := d.recover(); err != nil {
		log.Close()
		return nil, err
	}
	d.installHooks()
	if cfg.checkpointEvery > 0 {
		d.Engine.checkpoint = d.maybeCheckpoint
	}
	return d, nil
}

// recover restores the committed state: checkpoint, then log tail. It
// runs before hooks are installed, so nothing it applies is re-logged.
func (d *DurableEngine) recover() error {
	ckpt, wm, ok, err := d.log.CurrentCheckpoint()
	if err != nil {
		return err
	}
	if ok {
		if err := d.LoadCatalog(ckpt); err != nil {
			return fmt.Errorf("gcore: loading checkpoint %s: %w", ckpt, err)
		}
	}
	var from wal.Watermark
	if ok {
		from = wm
	}
	return d.log.ReplayFrom(from, func(payload []byte) error {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("gcore: undecodable wal record: %w", err)
		}
		return d.applyWALRecord(rec)
	})
}

// applyWALRecord applies one logged mutation during recovery.
func (d *DurableEngine) applyWALRecord(rec walRecord) error {
	e := d.Engine
	e.mu.Lock()
	defer e.mu.Unlock()
	switch rec.Op {
	case "register_graph", "graph_snapshot":
		g := ppg.New("")
		if err := g.UnmarshalJSON(rec.Data); err != nil {
			return fmt.Errorf("gcore: replaying %s %s: %w", rec.Op, rec.Name, err)
		}
		if rec.Op == "graph_snapshot" {
			// The logged content takes the registered graph's place
			// under its registered name.
			if _, ok := e.cat.Graph(rec.Name); !ok {
				return fmt.Errorf("gcore: replaying graph_snapshot for unknown graph %q", rec.Name)
			}
			g.SetName(rec.Name)
			e.cat.PublishGraph(g)
			return nil
		}
		if g.Name() != rec.Name {
			return fmt.Errorf("gcore: replaying %s: record for %q carries graph %q", rec.Op, rec.Name, g.Name())
		}
		if err := e.cat.RegisterGraph(g); err != nil {
			return err
		}
		e.applyPendingDefault(g.Name())
		return nil
	case "register_table":
		t := table.New(rec.Name)
		if err := t.UnmarshalJSON(rec.Data); err != nil {
			return fmt.Errorf("gcore: replaying register_table %s: %w", rec.Name, err)
		}
		return e.cat.RegisterTable(t)
	case "set_default":
		return e.cat.SetDefault(rec.Name)
	}
	// Element-level records target a registered graph.
	g, ok := e.cat.Graph(rec.Name)
	if !ok {
		return fmt.Errorf("gcore: replaying %s for unknown graph %q", rec.Op, rec.Name)
	}
	switch rec.Op {
	case "add_node":
		n, err := ppg.DecodeNode(rec.Data)
		if err != nil {
			return err
		}
		if err := g.AddNode(n); err != nil {
			return err
		}
		e.cat.IDs().Reserve(uint64(n.ID))
		return nil
	case "add_edge":
		ed, err := ppg.DecodeEdge(rec.Data)
		if err != nil {
			return err
		}
		if err := g.AddEdge(ed); err != nil {
			return err
		}
		e.cat.IDs().Reserve(uint64(ed.ID))
		return nil
	case "add_path":
		p, err := ppg.DecodePath(rec.Data)
		if err != nil {
			return err
		}
		if err := g.AddPath(p); err != nil {
			return err
		}
		e.cat.IDs().Reserve(uint64(p.ID))
		return nil
	case "set_node_labels":
		return g.SetNodeLabels(NodeID(rec.ID), NewLabels(rec.Labels...))
	case "set_edge_labels":
		return g.SetEdgeLabels(EdgeID(rec.ID), NewLabels(rec.Labels...))
	case "set_node_props":
		p, err := ppg.DecodeProperties(rec.Data)
		if err != nil {
			return err
		}
		return g.SetNodeProps(NodeID(rec.ID), p)
	case "set_edge_props":
		p, err := ppg.DecodeProperties(rec.Data)
		if err != nil {
			return err
		}
		return g.SetEdgeProps(EdgeID(rec.ID), p)
	case "set_path_props":
		p, err := ppg.DecodeProperties(rec.Data)
		if err != nil {
			return err
		}
		return g.SetPathProps(PathID(rec.ID), p)
	}
	return fmt.Errorf("gcore: unknown wal record op %q", rec.Op)
}

// installHooks arms the write-ahead boundary: the catalog's change
// hook (which also hooks each graph as it is registered) and the
// mutation hook of every graph already recovered.
func (d *DurableEngine) installHooks() {
	d.Engine.cat.SetChangeHook(d.catalogChange)
	for _, name := range d.Engine.cat.GraphNames() {
		g, _ := d.Engine.cat.Graph(name)
		g.SetMutationHook(d.graphMutation)
	}
}

// catalogChange logs a catalog mutation before the catalog applies it.
// Newly registered graphs get the mutation hook here, so a graph is
// hooked from the instant it is durable — including the materialised
// graphs GRAPH VIEW stages against the catalog, which a write logs and
// fsyncs under the shared lock and publishes only afterwards.
func (d *DurableEngine) catalogChange(ch catalog.Change) error {
	var rec walRecord
	switch ch.Op {
	case "register_graph":
		rec = walRecord{Op: "register_graph", Name: ch.Graph.Name(), appendData: ch.Graph.AppendJSON}
	case "register_table":
		rec = walRecord{Op: "register_table", Name: ch.Table.Name, appendData: ch.Table.AppendJSON}
	case "set_default":
		rec = walRecord{Op: "set_default", Name: ch.Name}
	default:
		return fmt.Errorf("gcore: unknown catalog change %q", ch.Op)
	}
	if err := d.appendRecord(rec); err != nil {
		return err
	}
	if ch.Op == "register_graph" {
		ch.Graph.SetMutationHook(d.graphMutation)
	}
	return nil
}

// graphMutation logs one element-level mutation of a registered graph
// before the graph applies it.
func (d *DurableEngine) graphMutation(g *ppg.Graph, m ppg.Mutation) error {
	rec := walRecord{Name: g.Name()}
	props := func(p ppg.Properties) func([]byte) ([]byte, error) {
		return func(dst []byte) ([]byte, error) { return ppg.AppendProperties(dst, p) }
	}
	switch m.Op {
	case ppg.MutAddNode:
		rec.Op, rec.appendData = "add_node", func(dst []byte) ([]byte, error) { return ppg.AppendNode(dst, m.Node) }
	case ppg.MutAddEdge:
		rec.Op, rec.appendData = "add_edge", func(dst []byte) ([]byte, error) { return ppg.AppendEdge(dst, m.Edge) }
	case ppg.MutAddPath:
		rec.Op, rec.appendData = "add_path", func(dst []byte) ([]byte, error) { return ppg.AppendPath(dst, m.Path) }
	case ppg.MutSetNodeLabels:
		rec.Op, rec.ID, rec.Labels = "set_node_labels", uint64(m.NodeID), m.Labels
	case ppg.MutSetEdgeLabels:
		rec.Op, rec.ID, rec.Labels = "set_edge_labels", uint64(m.EdgeID), m.Labels
	case ppg.MutSetNodeProps:
		rec.Op, rec.ID, rec.appendData = "set_node_props", uint64(m.NodeID), props(m.Props)
	case ppg.MutSetEdgeProps:
		rec.Op, rec.ID, rec.appendData = "set_edge_props", uint64(m.EdgeID), props(m.Props)
	case ppg.MutSetPathProps:
		rec.Op, rec.ID, rec.appendData = "set_path_props", uint64(m.PathID), props(m.Props)
	default:
		return fmt.Errorf("gcore: unknown graph mutation %v on %s", m.Op, g.Name())
	}
	return d.appendRecord(rec)
}

// appendRecord encodes and appends one logical record. The caller is
// inside a mutation (an engine write, or a direct mutation of a
// registered graph), so this must not checkpoint; it only counts.
func (d *DurableEngine) appendRecord(rec walRecord) error {
	payload, err := rec.encode()
	if err != nil {
		return fmt.Errorf("gcore: encoding %s %s for wal: %w", rec.Op, rec.Name, err)
	}
	if _, err := d.log.Append(payload); err != nil {
		return err
	}
	d.sinceCkpt.Add(1)
	return nil
}

// Checkpoint compacts the log now: the catalog is materialised in the
// SaveCatalog layout into a staging directory and committed with the
// current log watermark; superseded segments and checkpoints are
// deleted. Recovery cost is proportional to the records appended
// since the last checkpoint. A checkpoint holds the writer mutex, so
// the catalog it saves is exactly what the log holds up to the
// watermark, and the shared lock, so readers keep running meanwhile.
func (d *DurableEngine) Checkpoint() error {
	d.Engine.wmu.Lock()
	defer d.Engine.wmu.Unlock()
	return d.Engine.shared(d.checkpointLocked)
}

// checkpointLocked takes a checkpoint; the caller holds the writer
// mutex and the shared lock.
func (d *DurableEngine) checkpointLocked() error {
	stage, err := d.log.BeginCheckpoint()
	if err != nil {
		return err
	}
	if err := faultinject.Check(faultinject.SiteWALCheckpointWrite); err != nil {
		os.RemoveAll(stage)
		return fmt.Errorf("gcore: staging checkpoint: %w", err)
	}
	if err := d.Engine.saveCatalogLocked(stage); err != nil {
		os.RemoveAll(stage)
		return err
	}
	wm := d.log.Watermark()
	if err := d.log.CommitCheckpoint(stage, wm); err != nil {
		os.RemoveAll(stage)
		return err
	}
	d.sinceCkpt.Store(0)
	return nil
}

// maybeCheckpoint ends every write (Engine.endWrite: writer mutex and
// shared lock held, nothing half logged) and checkpoints when the
// WithCheckpointEvery budget is spent.
func (d *DurableEngine) maybeCheckpoint() {
	if d.sinceCkpt.Load() < d.cfg.checkpointEvery {
		return
	}
	// Automatic checkpoints are best-effort: a failure leaves the log
	// as the recovery source and the next write retries.
	_ = d.checkpointLocked()
}

// Sync forces an fsync of the log tail regardless of policy: every
// mutation appended so far is committed when it returns.
func (d *DurableEngine) Sync() error { return d.log.Sync() }

// WALStats returns the write-ahead log's lifetime counters.
func (d *DurableEngine) WALStats() WALStats { return d.log.Stats() }

// Metrics is the engine metrics snapshot with the WAL counters filled.
func (d *DurableEngine) Metrics() Metrics {
	m := d.Engine.Metrics()
	s := d.log.Stats()
	m.WALAppends = s.Appends
	m.WALAppendedBytes = s.AppendedBytes
	m.WALSyncs = s.Syncs
	m.WALRolls = s.Rolls
	m.WALCheckpoints = s.Checkpoints
	m.WALReplayed = s.Replayed
	m.WALTornTruncated = s.TornTruncated
	return m
}

// Close syncs and closes the log (committing any unsynced tail) and
// detaches the durability hooks. The embedded Engine remains usable
// in memory; further mutations are no longer logged.
func (d *DurableEngine) Close() error {
	e := d.Engine
	e.wmu.Lock()
	e.mu.Lock()
	e.cat.SetChangeHook(nil)
	for _, name := range e.cat.GraphNames() {
		g, _ := e.cat.Graph(name)
		g.SetMutationHook(nil)
	}
	e.checkpoint = nil
	e.mu.Unlock()
	e.wmu.Unlock()
	return d.log.Close()
}
