package core

import (
	"fmt"
	"math"
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Selectivity-driven MATCH planning. Two decisions are made from the
// label-index cardinalities of the target graph, both semantically
// invisible (the binding table is restored to the exact row order the
// textual plan would produce, because row order feeds CONSTRUCT's
// fresh-identity assignment and the deterministic output order):
//
//  1. Chain direction — a pattern chain of edge patterns can be
//     evaluated from either end; the evaluator starts at the end
//     whose node pattern has the smaller label-index estimate and
//     walks the chain with edge directions flipped, then sorts the
//     rows back into forward emission order.
//  2. Conjunct join order — the comma-separated patterns of one MATCH
//     are each evaluated (in textual order, which keeps anonymous
//     variable numbering stable), but folded into the joined table
//     smallest-estimate-first; hidden per-pattern row ordinals
//     restore the textual fold order afterwards.
//
// EXPLAIN surfaces both decisions (scan start/direction per chain,
// fold order per MATCH) through the same planChain/joinOrder calls.

// estimateNodeScan is the planner's cardinality estimate for scanning
// one node pattern: the most selective label conjunct's index bucket
// size (mirroring indexedNodeOrdinals), or the node count when the
// pattern is unlabelled.
func estimateNodeScan(g *ppg.Graph, np *ast.NodePattern) int {
	if g == nil {
		return math.MaxInt
	}
	if len(np.Labels) == 0 {
		return g.NumNodes()
	}
	best := math.MaxInt
	for _, disj := range np.Labels {
		size := 0
		for _, l := range disj {
			size += g.NumNodesWithLabel(l)
		}
		if size < best {
			best = size
		}
	}
	return best
}

// chainPlan is the planner's decision for one pattern chain.
type chainPlan struct {
	reversed bool
	estFwd   int
	estRev   int               // math.MaxInt when the chain cannot be reversed
	runGp    *ast.GraphPattern // the pattern to evaluate (reversed copy when reversed)
}

// startEstimate is the estimate of the scan that will actually run.
func (pl chainPlan) startEstimate() int {
	if pl.reversed {
		return pl.estRev
	}
	return pl.estFwd
}

// planChain decides the scan start of a chain. Only chains made
// entirely of edge patterns are reversible: path patterns carry
// orientation-dependent search semantics (cost, shortest-k) that the
// emission-order restore does not model. textual (Ablation.NoReorder)
// pins the forward direction.
func planChain(gp *ast.GraphPattern, g *ppg.Graph, textual bool) chainPlan {
	pl := chainPlan{estFwd: estimateNodeScan(g, gp.Nodes[0]), estRev: math.MaxInt, runGp: gp}
	if textual || g == nil || len(gp.Links) == 0 {
		return pl
	}
	for _, link := range gp.Links {
		if _, ok := link.(*ast.EdgePattern); !ok {
			return pl
		}
	}
	pl.estRev = estimateNodeScan(g, gp.Nodes[len(gp.Nodes)-1])
	if pl.estRev < pl.estFwd {
		pl.reversed = true
		pl.runGp = reverseChain(gp)
	}
	return pl
}

// reverseChain builds the mirrored pattern: nodes and links in
// reverse order, each edge's direction flipped (DirBoth stays). The
// shared AST is never mutated — edge patterns are shallow-copied.
func reverseChain(gp *ast.GraphPattern) *ast.GraphPattern {
	rev := &ast.GraphPattern{P: gp.P}
	rev.Nodes = make([]*ast.NodePattern, len(gp.Nodes))
	for i, np := range gp.Nodes {
		rev.Nodes[len(gp.Nodes)-1-i] = np
	}
	rev.Links = make([]ast.Link, len(gp.Links))
	for i, link := range gp.Links {
		ep := link.(*ast.EdgePattern)
		cp := *ep
		switch ep.Dir {
		case ast.DirOut:
			cp.Dir = ast.DirIn
		case ast.DirIn:
			cp.Dir = ast.DirOut
		}
		rev.Links[len(gp.Links)-1-i] = &cp
	}
	return rev
}

// reverseNames mirrors a patternNames assignment. Names are assigned
// on the textual pattern first (keeping anonymous numbering identical
// to the unplanned evaluation) and reversed alongside the chain.
func reverseNames(pn patternNames) patternNames {
	out := patternNames{node: make([]string, len(pn.node)), link: make([]string, len(pn.link))}
	for i, v := range pn.node {
		out.node[len(pn.node)-1-i] = v
	}
	for i, v := range pn.link {
		out.link[len(pn.link)-1-i] = v
	}
	return out
}

// restoreForwardOrder sorts the rows of a reverse-evaluated chain
// into the order the forward evaluation would have emitted them.
// Forward evaluation is a depth-first expansion over ascending
// iterators, so its emission order is the lexicographic order of,
// per row: the first node's reference, its bind-value positions, and
// per link (in forward order) the traversal pass (out before in, for
// undirected edges), the edge reference, and the bind-value positions
// of the edge and the right node. Bind values are keyed by their
// index in the property's value-set iteration order, which is exactly
// the branching order of appendCombos.
func (c *evalCtx) restoreForwardOrder(tbl *bindings.Table, gp *ast.GraphPattern, names patternNames, g *ppg.Graph) *bindings.Table {
	if tbl.Len() <= 1 {
		return tbl
	}
	nodeSlots := make([]int, len(gp.Nodes))
	for i, v := range names.node {
		nodeSlots[i] = tbl.SlotOf(v)
	}
	linkSlots := make([]int, len(gp.Links))
	for i, v := range names.link {
		linkSlots[i] = tbl.SlotOf(v)
	}
	bindSlots := func(specs []*ast.PropSpec) ([]int, []*ast.PropSpec) {
		var slots []int
		var binds []*ast.PropSpec
		for _, ps := range specs {
			if ps.Mode == ast.PropBind {
				slots = append(slots, tbl.SlotOf(ps.Var))
				binds = append(binds, ps)
			}
		}
		return slots, binds
	}
	type elemBinds struct {
		slots []int
		specs []*ast.PropSpec
	}
	nodeBinds := make([]elemBinds, len(gp.Nodes))
	for i, np := range gp.Nodes {
		nodeBinds[i].slots, nodeBinds[i].specs = bindSlots(np.Props)
	}
	edgeBinds := make([]elemBinds, len(gp.Links))
	for i, link := range gp.Links {
		ep := link.(*ast.EdgePattern)
		edgeBinds[i].slots, edgeBinds[i].specs = bindSlots(ep.Props)
	}

	valIndex := func(props ppg.Properties, key string, v value.Value) int {
		for i, el := range props.Get(key).Elems() {
			if value.Equal(el, v) {
				return i
			}
		}
		return -1
	}
	appendBinds := func(key []value.Value, row []value.Value, eb elemBinds, props ppg.Properties) []value.Value {
		for i, ps := range eb.specs {
			key = append(key, value.Int(int64(valIndex(props, ps.Key, row[eb.slots[i]]))))
		}
		return key
	}

	keys := make([][]value.Value, tbl.Len())
	for ri := 0; ri < tbl.Len(); ri++ {
		row := tbl.RowAt(ri)
		var key []value.Value
		curID, _ := nodeOf(row[nodeSlots[0]])
		key = append(key, row[nodeSlots[0]])
		if n, ok := g.Node(curID); ok {
			key = appendBinds(key, row, nodeBinds[0], n.Props)
		}
		for i := range gp.Links {
			ev := row[linkSlots[i]]
			eid, _ := ev.RefID()
			e, okE := g.Edge(ppg.EdgeID(eid))
			ep := gp.Links[i].(*ast.EdgePattern)
			if ep.Dir == ast.DirBoth && okE {
				pass := int64(1)
				if e.Src == curID {
					pass = 0 // out pass (self-loops emit there too)
				}
				key = append(key, value.Int(pass))
			}
			key = append(key, ev)
			if okE {
				key = appendBinds(key, row, edgeBinds[i], e.Props)
			}
			nextID, _ := nodeOf(row[nodeSlots[i+1]])
			if n, ok := g.Node(nextID); ok {
				key = appendBinds(key, row, nodeBinds[i+1], n.Props)
			}
			curID = nextID
		}
		keys[ri] = key
	}
	perm := make([]int, tbl.Len())
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ka, kb := keys[perm[a]], keys[perm[b]]
		for i := 0; i < len(ka) && i < len(kb); i++ {
			if cmp := value.Compare(ka[i], kb[i]); cmp != 0 {
				return cmp < 0
			}
		}
		return len(ka) < len(kb)
	})
	return tbl.Pick(perm)
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
	order := joinOrder(ests, c.ev.ablation.NoReorder)
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
	return tbl.SortStableByVars(ordVars).DropVars(ordVars...), nil
}

// joinOrder returns the fold order for the conjunct-pattern tables of
// one MATCH: indices sorted by estimate ascending, ties (and every
// estimate, when textual — Ablation.NoReorder) in textual order.
func joinOrder(ests []int, textual bool) []int {
	order := make([]int, len(ests))
	for i := range order {
		order[i] = i
	}
	if textual {
		return order
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
