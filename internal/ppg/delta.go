package ppg

// Delta capture for incremental snapshot maintenance. Between two
// Snapshot builds the graph accumulates the identifiers of the nodes
// and edges it appended; a snapshot builder can then extend the
// previous build by exactly those elements instead of rebuilding from
// scratch. The delta records identifiers only — never values — because
// it is applied at Snapshot() time, when the graph already holds every
// appended element, and the recorder costs one append per insertion.
//
// The delta covers appends only. Every mutation that changes an
// element in place (SetNodeLabels, SetEdgeLabels, SetNodeProps,
// SetEdgeProps, TouchProps) or replaces the graph wholesale
// (ReplaceWith/UnmarshalJSON) drops it, as does exceeding MaxDeltaOps;
// SnapshotWith then falls back to the full build. Paths are not part
// of the CSR snapshot, so path mutations bump the generation without
// entering the delta — an all-path delta is valid and empty.

// Delta lists the nodes and edges appended since the previous snapshot
// build, in insertion order.
type Delta struct {
	AddedNodes []NodeID
	AddedEdges []EdgeID
}

// Ops counts the recorded insertions (path ones are not recorded).
func (d *Delta) Ops() int { return len(d.AddedNodes) + len(d.AddedEdges) }

// MaxDeltaOps bounds the per-graph delta buffer. A burst of mutations
// past this size is no longer "a delta" in any useful sense — the
// full rebuild is both simpler and cheaper — so recording stops and
// the next snapshot rebuilds.
const MaxDeltaOps = 1 << 16

// startDelta begins a fresh recording epoch: the graph state the
// current snapshot cache reflects is the delta's base. Called under
// snapMu whenever the cache is (re)filled.
func (g *Graph) startDelta() {
	g.deltaOK = true
	g.delta = Delta{}
}

// dropDelta abandons recording until the next snapshot build; the
// next Snapshot call takes the full-build path. Every mutation the
// delta cannot express calls it.
func (g *Graph) dropDelta() {
	g.deltaOK = false
	g.delta = Delta{}
}

// noteOp admits one mutation into the delta, dropping the delta
// instead when the buffer is full. Callers record only on true.
func (g *Graph) noteOp() bool {
	if !g.deltaOK {
		return false
	}
	if g.delta.Ops() >= MaxDeltaOps {
		g.dropDelta()
		return false
	}
	return true
}

func (g *Graph) noteAddNode(id NodeID) {
	if g.noteOp() {
		g.delta.AddedNodes = append(g.delta.AddedNodes, id)
	}
}

func (g *Graph) noteAddEdge(id EdgeID) {
	if g.noteOp() {
		g.delta.AddedEdges = append(g.delta.AddedEdges, id)
	}
}

// SnapshotWith is Snapshot with an incremental path: on a cache miss
// where the previous snapshot is still held and every mutation since
// it was recorded, inc (when non-nil) is offered the previous value
// and the delta. A non-nil result is cached as the new snapshot; nil
// declines (the delta is not worth applying or cannot be), and the
// full build runs as usual. Either way a fresh recording epoch starts,
// so the next miss again sees exactly the mutations since this one.
//
// The contract of Snapshot is unchanged: a value cached at generation
// G is served only while Generation() == G, so a stale snapshot is
// never returned. inc runs under the cache lock, like build.
func (g *Graph) SnapshotWith(build func() any, inc func(prev any, d *Delta) any) any {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if g.snapVal != nil && g.snapGen == g.gen {
		return g.snapVal
	}
	if g.snapVal != nil && g.deltaOK && inc != nil {
		if v := inc(g.snapVal, &g.delta); v != nil {
			g.snapVal = v
			g.snapGen = g.gen
			g.startDelta()
			return v
		}
	}
	g.snapVal = build()
	g.snapGen = g.gen
	g.startDelta()
	return g.snapVal
}
