package rpq

import (
	"gcore/internal/csr"
	"gcore/internal/gov"
	"gcore/internal/obs"
	"gcore/internal/ppg"
)

// checkStride is the number of frontier iterations a search loop runs
// between governor checkpoints: cancellation lands within one stride
// while the non-blocking poll stays invisible in profiles. The first
// iteration is always checked so injected faults fire deterministically.
const checkStride = 256

// Segment is one weighted step contributed by a PATH view (§A.4): a
// pair of endpoint nodes, the evaluated COST (strictly positive), and
// the expansion — the underlying walk — used to materialise stored
// paths. Nodes includes both endpoints; Edges the traversed edges.
type Segment struct {
	From, To ppg.NodeID
	Cost     float64
	Nodes    []ppg.NodeID
	Edges    []ppg.EdgeID
}

// ViewResolver supplies the segments of a PATH view leaving a node,
// in deterministic order.
type ViewResolver interface {
	Segments(name string, from ppg.NodeID) ([]Segment, error)
}

// Engine evaluates regular path queries over one graph.
type Engine struct {
	g     *ppg.Graph
	views ViewResolver

	// gov governs the search loops: cancellation checkpoints and the
	// product-frontier budget. A nil governor (engines built directly,
	// e.g. in tests) runs ungoverned — every method on it is nil-safe.
	gov *gov.Governor

	// col receives one span per kernel run, carrying the frontier
	// counters the kernel already maintains (pops, arrivals) — zero
	// per-step recording cost. Nil runs unobserved.
	col *obs.Collector

	// snap is the CSR snapshot of g the kernels (csr_search.go) run
	// over; resCache memoises each automaton's resolved transitions.
	snap     *csr.Snapshot
	resCache map[*NFA][][]rtrans
}

// Attach binds the engine to one statement: g governs its search loops
// and col receives one span per kernel run (k-shortest, reachability,
// ALL-paths) with its frontier totals. Either may be nil. An engine,
// like the statement it serves, is used from one goroutine.
func (e *Engine) Attach(g *gov.Governor, col *obs.Collector) { e.gov, e.col = g, col }

// NewEngine creates an engine; views may be nil if the regexes used
// contain no ~view references. Searches run over the graph's CSR
// snapshot (built or reused via the generation-tagged cache).
func NewEngine(g *ppg.Graph, views ViewResolver) *Engine {
	return NewEngineOn(g, csr.Of(g), views)
}

// NewEngineOn is NewEngine over a snapshot of g the caller already
// holds, so the searches see the same version as the caller's reads.
func NewEngineOn(g *ppg.Graph, snap *csr.Snapshot, views ViewResolver) *Engine {
	return &Engine{g: g, views: views, snap: snap}
}

// cfg is a product-automaton configuration in graph terms, as the
// simple-path and trail baselines walk it.
type cfg struct {
	n ppg.NodeID
	q int
}

// AllPaths is the forward product reachability from one source,
// recording every product transition; per-destination projections are
// then extracted with Projection. This is the graph-projection
// summarisation ([10]) that makes ALL-paths queries tractable even
// when the number of conforming paths is infinite.
type AllPaths struct {
	src     ppg.NodeID
	nfa     *NFA
	snap    *csr.Snapshot
	reached map[ccfg]bool
	rev     map[ccfg][]int32 // incoming product-edge indexes per config
	edges   []prodEdge
}
