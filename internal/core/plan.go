package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
	"gcore/internal/obs"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Selectivity-driven MATCH planning. A basic graph pattern is a
// conjunctive query under homomorphism semantics (§A.2): every
// evaluation order yields the same bindings. Two decisions are made
// from exact statistics of the target graph's CSR snapshot, both
// semantically invisible (the binding table is restored to the exact
// row order the textual plan would produce, because row order feeds
// CONSTRUCT's fresh-identity assignment and the deterministic output
// order):
//
//  1. Chain start — a chain of edge patterns can be evaluated from any
//     of its node patterns: scan that node, extend rightwards to the
//     last node, then leftwards to the first over flipped edges, and
//     sort the rows back into forward emission order. The start with
//     the smallest estimated cost wins (planChain).
//  2. Conjunct join order — the comma-separated patterns of one MATCH
//     are each evaluated (in textual order, which keeps anonymous
//     variable numbering stable), but folded into the joined table
//     cheapest-first by the same cost; hidden per-pattern row ordinals
//     restore the textual fold order afterwards.
//
// The statistics never look at a constant's value, so a literal and a
// $param choose the same plan, a cached plan stays valid across
// executions, and static EXPLAIN prints the start the evaluator takes.
// EXPLAIN surfaces both decisions (start and per-step estimates per
// chain, fold order per MATCH) through the same planChain/joinOrder
// calls.

// chainPlan is the planner's decision for one pattern chain: the node
// pattern evaluation starts at, the estimated rows after the start scan
// and after each step in evaluation order (nil when the graph is only
// known at run time), and their sum, the cost that also ranks the
// chain in its MATCH's join fold (math.MaxInt when unknown).
type chainPlan struct {
	start int
	ests  []int
	cost  int
}

// chainStep is one extension of a chain evaluation: over link, from
// node pattern from to node pattern to, against the link's textual
// direction when flip is set.
type chainStep struct {
	link, from, to int
	flip           bool
}

// chainSteps lists the steps of a chain of links evaluated from node
// pattern start: rightwards to the last node, then leftwards to the
// first.
func chainSteps(links, start int) []chainStep {
	steps := make([]chainStep, 0, links)
	for i := start; i < links; i++ {
		steps = append(steps, chainStep{link: i, from: i, to: i + 1})
	}
	for i := start - 1; i >= 0; i-- {
		steps = append(steps, chainStep{link: i, from: i + 1, to: i, flip: true})
	}
	return steps
}

// linkOf returns the step's link as it is traversed: a flipped step
// runs a copy of its edge pattern with the direction reversed (the
// shared AST is never mutated).
func (st chainStep) linkOf(gp *ast.GraphPattern) ast.Link {
	link := gp.Links[st.link]
	if !st.flip {
		return link
	}
	cp := *link.(*ast.EdgePattern)
	cp.Dir = flipDir(cp.Dir)
	return &cp
}

func flipDir(d ast.Direction) ast.Direction {
	switch d {
	case ast.DirOut:
		return ast.DirIn
	case ast.DirIn:
		return ast.DirOut
	}
	return d
}

// nodeEst is what the planner knows about one node pattern: the
// interned labels of the partition a scan would take (nil for every
// node), its size, and card, the rows the pattern is estimated to keep
// — the partition, or the mean posting length of a seekable `=`
// conjunct on the pattern's variable when that is smaller.
type nodeEst struct {
	labels []int32
	base   float64
	card   float64
}

// sel is the share of the partition the pattern keeps.
func (e nodeEst) sel() float64 {
	if e.base == 0 {
		return 0
	}
	return e.card / e.base
}

// estimateNode sizes one node pattern. The partition is the one
// scanCandidates takes: the label conjunct with the fewest nodes (the
// sum over its disjuncts). The `=` conjuncts are those the pattern's
// scan would consume (prefilterConjuncts on the leaves' shape, which
// ignores the constant). A column nothing has sought yet has its
// value index built to measure it: the evaluator, passing its collector,
// keeps the index for the scans to come and counts the build there;
// static EXPLAIN (nil) leaves the column unindexed.
func estimateNode(snap *csr.Snapshot, np *ast.NodePattern, conjs []*conjunct, col *obs.Collector) nodeEst {
	e := nodeEst{base: float64(snap.NumNodes())}
	for i, disj := range resolveSpec(snap, np.Labels) {
		size := 0
		for _, lid := range disj {
			size += len(snap.NodesWithLabel(lid))
		}
		if i == 0 || float64(size) < e.base {
			e.labels, e.base = disj, float64(size)
		}
	}
	e.card = e.base
	if np.Var == "" {
		return e
	}
	schema := appendBindVars([]string{np.Var}, np.Props)
	_, leaves := prefilterConjuncts(np, np.Var, func(v string) bool { return slices.Contains(schema, v) }, conjs, shapeOnly)
	for _, l := range leaves {
		if l.op != ast.OpEq {
			continue
		}
		post := 0.0 // no node carries the key: nothing is equal
		if pc := snap.NodeCol(l.key); pc != nil {
			var built bool
			if post, built = pc.MeanPosting(col != nil); built {
				col.PropIndexEvent(false, 1)
			}
		}
		e.card = min(e.card, post)
	}
	return e
}

// fanOut is the average number of edges matching ep's labels that a
// node of from's partition has in direction dir: the snapshot's degree
// sums over the partition's labels, for the edge label conjunct with the
// fewest such edges, divided by the partition size.
func fanOut(snap *csr.Snapshot, from nodeEst, ep *ast.EdgePattern, dir ast.Direction) float64 {
	if from.base == 0 {
		return 0
	}
	nodeLabels := from.labels
	if nodeLabels == nil {
		nodeLabels = []int32{csr.AnyLabel}
	}
	degree := func(edgeLabels []int32, in bool) float64 {
		var n int64
		for _, nl := range nodeLabels {
			for _, el := range edgeLabels {
				n += snap.Degree(nl, el, in)
			}
		}
		return float64(n)
	}
	edgeSpec := resolveSpec(snap, ep.Labels)
	if len(edgeSpec) == 0 {
		edgeSpec = resolvedSpec{{csr.AnyLabel}}
	}
	best := math.Inf(1)
	for _, disj := range edgeSpec {
		var n float64
		if dir != ast.DirIn {
			n += degree(disj, false)
		}
		if dir != ast.DirOut {
			n += degree(disj, true)
		}
		best = min(best, n)
	}
	return best / from.base
}

// planChain decides where a chain's evaluation starts. Each start k is
// costed as the sum of the rows estimated after its scan and after each
// of its steps: the scan keeps the node's card, an edge step multiplies
// by the fan-out of its edge from the node it leaves and by the share
// of the partition the node it reaches keeps, and a path step by the
// card of its destination (times k for a k-shortest search). The
// cheapest start wins, the leftmost among equals. Only chains made
// entirely of edge patterns may start past their first node: path
// patterns carry orientation-dependent search semantics (cost,
// shortest-k) that the emission-order restore does not model. A nil
// snapshot (a graph only known at run time) plans the first node with
// no estimates.
func planChain(gp *ast.GraphPattern, snap *csr.Snapshot, conjs []*conjunct, col *obs.Collector) chainPlan {
	if snap == nil {
		return chainPlan{cost: math.MaxInt}
	}
	nodes := make([]nodeEst, len(gp.Nodes))
	for i, np := range gp.Nodes {
		nodes[i] = estimateNode(snap, np, conjs, col)
	}
	// Per link, the factor of a step over it: rightwards [0] and
	// leftwards [1].
	starts := len(gp.Nodes)
	factors := make([][2]float64, len(gp.Links))
	for i, link := range gp.Links {
		switch x := link.(type) {
		case *ast.EdgePattern:
			factors[i][0] = fanOut(snap, nodes[i], x, x.Dir) * nodes[i+1].sel()
			factors[i][1] = fanOut(snap, nodes[i+1], x, flipDir(x.Dir)) * nodes[i].sel()
		case *ast.PathPattern:
			factors[i][0] = nodes[i+1].card * float64(max(x.K, 1))
			starts = 1
		}
	}
	var (
		best     []float64
		bestCost float64
		pl       chainPlan
	)
	for k := 0; k < starts; k++ {
		rows := nodes[k].card
		ests := []float64{rows}
		cost := rows
		for _, st := range chainSteps(len(gp.Links), k) {
			if st.flip {
				rows *= factors[st.link][1]
			} else {
				rows *= factors[st.link][0]
			}
			ests = append(ests, rows)
			cost += rows
		}
		if k == 0 || cost < bestCost {
			pl.start, best, bestCost = k, ests, cost
		}
	}
	pl.ests = make([]int, len(best))
	for i, est := range best {
		pl.ests[i] = estInt(est)
	}
	pl.cost = estInt(bestCost)
	return pl
}

// estInt rounds an estimate for display and for the fold order; an
// estimate past the int range saturates at math.MaxInt, the "unknown"
// rank.
func estInt(f float64) int {
	if f >= math.MaxInt64 {
		return math.MaxInt
	}
	return int(math.Round(f))
}

// restoreForwardOrder sorts the rows of a chain evaluated from an
// interior or last node into the order evaluation from its first node
// would have emitted them. That evaluation is a depth-first expansion
// over ascending iterators, so its emission order is the lexicographic
// order of, per row: the first node's identifier, its bind positions,
// and per link (in forward order) the traversal pass (out before in,
// for undirected edges), the edge identifier, and the bind positions of
// the edge and the right node. A bind position is the index of the
// bound value in the property's value-set iteration order, which is
// exactly the branching order of appendCombos. The keys are laid out
// flat, one fixed-width run of integers per row, and only elements
// with {k = v} entries or an undirected edge are looked up in the
// snapshot.
func restoreForwardOrder(tbl *bindings.Table, gp *ast.GraphPattern, names patternNames, snap *csr.Snapshot) *bindings.Table {
	n := tbl.Len()
	if n <= 1 {
		return tbl
	}
	nodeSlots := make([]int, len(gp.Nodes))
	nodeBinds := make([]bindPlan, len(gp.Nodes))
	width := 1
	for i, np := range gp.Nodes {
		nodeSlots[i] = tbl.SlotOf(names.node[i])
		nodeBinds[i] = newBindPlan(tbl, np.Props)
		width += len(nodeBinds[i].specs)
	}
	linkSlots := make([]int, len(gp.Links))
	edgeBinds := make([]bindPlan, len(gp.Links))
	edges := make([]*ast.EdgePattern, len(gp.Links))
	for i, link := range gp.Links {
		edges[i] = link.(*ast.EdgePattern)
		linkSlots[i] = tbl.SlotOf(names.link[i])
		edgeBinds[i] = newBindPlan(tbl, edges[i].Props)
		width += 1 + len(edgeBinds[i].specs)
		if edges[i].Dir == ast.DirBoth {
			width++
		}
	}
	nodeProps := func(id ppg.NodeID) ppg.Properties {
		u, _ := snap.Ord(id)
		return snap.Node(u).Props
	}
	keys := make([]uint64, 0, n*width)
	for ri := 0; ri < n; ri++ {
		row := tbl.RowAt(ri)
		cur, _ := nodeOf(row[nodeSlots[0]])
		keys = append(keys, uint64(cur))
		if len(nodeBinds[0].specs) > 0 {
			keys = nodeBinds[0].appendPositions(keys, row, nodeProps(cur))
		}
		for i, ep := range edges {
			eid, _ := row[linkSlots[i]].RefID()
			var eo int32
			if ep.Dir == ast.DirBoth || len(edgeBinds[i].specs) > 0 {
				eo, _ = snap.EdgeOrd(ppg.EdgeID(eid))
			}
			if ep.Dir == ast.DirBoth {
				pass := uint64(1)
				if snap.NodeID(snap.Src(eo)) == cur {
					pass = 0 // out pass (self-loops emit there too)
				}
				keys = append(keys, pass)
			}
			keys = append(keys, eid)
			if len(edgeBinds[i].specs) > 0 {
				keys = edgeBinds[i].appendPositions(keys, row, snap.Edge(eo).Props)
			}
			cur, _ = nodeOf(row[nodeSlots[i+1]])
			if len(nodeBinds[i+1].specs) > 0 {
				keys = nodeBinds[i+1].appendPositions(keys, row, nodeProps(cur))
			}
		}
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		return slices.Compare(keys[a*width:(a+1)*width], keys[b*width:(b+1)*width])
	})
	return tbl.Pick(perm)
}

// appendPositions appends, per {k = v} entry of the plan, the position
// of the row's bound value in the element's value set for k.
func (bp bindPlan) appendPositions(keys []uint64, row []value.Value, props ppg.Properties) []uint64 {
	for i, ps := range bp.specs {
		pos := 0
		for j, el := range props.Get(ps.Key).Elems() {
			if value.Equal(el, row[bp.slots[i]]) {
				pos = j
				break
			}
		}
		keys = append(keys, uint64(pos))
	}
	return keys
}

// foldConjuncts joins the conjunct-pattern tables of one MATCH in
// estimate order (joinOrder), restoring the textual fold's row order.
// Chain tables bind every schema variable in every row, so the
// textual fold's output order is exactly the lexicographic order of
// the constituent row ordinals — tag each table with a hidden ordinal
// column, fold cheapest-first under the join budget, stable-sort by
// the ordinals in textual order, and drop them.
func (c *evalCtx) foldConjuncts(tables []*bindings.Table, ests []int) (*bindings.Table, error) {
	switch len(tables) {
	case 0:
		return bindings.Unit(), nil
	case 1:
		return tables[0], nil
	}
	order := joinOrder(ests)
	if orderIsTextual(order) {
		tbl := tables[0]
		var err error
		for _, t := range tables[1:] {
			if tbl, err = c.joinBudget(tbl, t); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	}
	ordVars := make([]string, len(tables))
	for i := range tables {
		ordVars[i] = fmt.Sprintf("@jo%d", i)
	}
	tbl := tables[order[0]].WithOrdinal(ordVars[order[0]])
	var err error
	for _, i := range order[1:] {
		if tbl, err = c.joinBudget(tbl, tables[i].WithOrdinal(ordVars[i])); err != nil {
			return nil, err
		}
	}
	return tbl.Sorted(ordVars...).DropVars(ordVars...), nil
}

// joinOrder returns the fold order for the conjunct-pattern tables of
// one MATCH: indices sorted by estimate ascending, ties in textual
// order.
func joinOrder(ests []int) []int {
	order := make([]int, len(ests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ests[order[a]] < ests[order[b]] })
	return order
}

func orderIsTextual(order []int) bool {
	for i, o := range order {
		if o != i {
			return false
		}
	}
	return true
}
