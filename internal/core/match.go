package core

import (
	"math"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/faultinject"
	"gcore/internal/obs"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// checkStride is how many trivial per-element iterations a hot loop
// runs between governor checkpoints: small enough that cancellation
// lands within one checkpoint interval, large enough that the
// non-blocking context poll stays invisible in profiles.
const checkStride = 256

// mergeSlabs folds chunk outputs — dense row slabs — into a table in
// input order: each slab is a block copy, with the bindings budget
// enforced after each chunk so an overflowing materialisation aborts
// early.
func (c *evalCtx) mergeSlabs(tbl *bindings.Table, parts [][]value.Value) (*bindings.Table, error) {
	for _, part := range parts {
		tbl.AppendSlab(part)
		if err := c.checkBudget(tbl); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// evalMatch computes the binding table of a MATCH clause (§A.2):
// located patterns are evaluated on their graphs and joined; the
// result is correlated with the outer bindings, filtered by WHERE,
// and extended by the OPTIONAL blocks as ordered left-outer joins.
// It returns the table together with the graphs involved (used to
// resolve element labels and properties in later expressions).
func (c *evalCtx) evalMatch(s *scope, mc *ast.MatchClause, outer *bindings.Table) (*bindings.Table, []*ppg.Graph, error) {
	var (
		tbl    *bindings.Table
		graphs []*ppg.Graph
	)
	// Pure conjuncts of WHERE are pushed into the pattern chains and
	// applied as soon as their variables are bound — before expensive
	// path searches — which is semantically transparent (§A.2: the
	// filter is a per-row predicate over its own variables).
	conjs := c.prepareConjunctsCached(mc.Where)
	// Evaluate every conjunct pattern in textual order (stable
	// anonymous numbering), then fold the joins smallest estimate
	// first — hidden row ordinals restore the textual fold order so
	// downstream row-order-sensitive stages (CONSTRUCT identity
	// assignment, canonical output order) see identical tables.
	var (
		tables []*bindings.Table
		ests   []int
	)
	for _, lp := range mc.Patterns {
		g, err := c.resolveLocation(s, lp)
		if err != nil {
			return nil, nil, err
		}
		graphs = append(graphs, g)
		t, est, err := c.evalChainPlanned(s, lp.Pattern, g, conjs)
		if err != nil {
			return nil, nil, err
		}
		if lp.OnQuery != nil {
			// EXPLAIN cannot see into ON (subquery) graphs; keep the
			// runtime decision aligned with the surfaced plan.
			est = math.MaxInt
		}
		tables = append(tables, t)
		ests = append(ests, est)
	}
	var err error
	if len(tables) > 1 {
		// The join span covers only multi-pattern folds, matching the
		// one "join order" line EXPLAIN prints in that case.
		jsp := c.col.Start(obs.OpJoin)
		if jsp.Verbose() {
			jsp.SetLabel("conjunct join fold")
		}
		var rowsIn int64
		for _, t := range tables {
			rowsIn += int64(t.Len())
		}
		tbl, err = c.foldConjuncts(tables, ests)
		if err != nil {
			jsp.Fail()
			return nil, nil, err
		}
		jsp.Rows(rowsIn, int64(tbl.Len())).End()
	} else {
		tbl, err = c.foldConjuncts(tables, ests)
		if err != nil {
			return nil, nil, err
		}
	}
	// Correlate with the outer query's bindings (Jγ0KΩ,G semantics).
	tbl, err = c.joinBudget(tbl, outer)
	if err != nil {
		return nil, nil, err
	}

	patternGraph := c.defaultGraphOrNil()
	if len(graphs) > 0 {
		patternGraph = graphs[0]
	}
	if mc.Where != nil {
		env := c.newEnv(s, graphs, patternGraph)
		// Span only when conjuncts remain, matching the one "residual
		// filter" line EXPLAIN prints in that case.
		var rsp *obs.ActiveSpan
		if anyUnapplied(conjs) {
			rsp = c.col.Start(obs.OpResidual)
			if rsp.Verbose() {
				rsp.SetLabel("residual filter")
			}
		}
		rowsIn := int64(tbl.Len())
		filtered, err := c.residualFilter(conjs, tbl, env)
		if err != nil {
			rsp.Fail()
			return nil, nil, err
		}
		rsp.Rows(rowsIn, int64(filtered.Len())).End()
		tbl = filtered
	}
	for _, ob := range mc.Optionals {
		// The left-join span brackets the whole block: its chains,
		// fold, block filter and the outer join itself.
		osp := c.col.Start(obs.OpLeftJoin)
		if osp.Verbose() {
			osp.SetLabel("OPTIONAL left join")
		}
		rowsIn := int64(tbl.Len())
		bGraphs := []*ppg.Graph{}
		bConjs := c.prepareConjunctsCached(ob.Where)
		var (
			bTables []*bindings.Table
			bEsts   []int
		)
		for _, lp := range ob.Patterns {
			g, err := c.resolveLocation(s, lp)
			if err != nil {
				osp.Fail()
				return nil, nil, err
			}
			bGraphs = append(bGraphs, g)
			t, est, err := c.evalChainPlanned(s, lp.Pattern, g, bConjs)
			if err != nil {
				osp.Fail()
				return nil, nil, err
			}
			if lp.OnQuery != nil {
				est = math.MaxInt
			}
			bTables = append(bTables, t)
			bEsts = append(bEsts, est)
		}
		var bt *bindings.Table
		var err error
		if len(bTables) > 1 {
			jsp := c.col.Start(obs.OpJoin)
			if jsp.Verbose() {
				jsp.SetLabel("conjunct join fold")
			}
			var jIn int64
			for _, t := range bTables {
				jIn += int64(t.Len())
			}
			bt, err = c.foldConjuncts(bTables, bEsts)
			if err != nil {
				jsp.Fail()
				osp.Fail()
				return nil, nil, err
			}
			jsp.Rows(jIn, int64(bt.Len())).End()
		} else {
			bt, err = c.foldConjuncts(bTables, bEsts)
			if err != nil {
				osp.Fail()
				return nil, nil, err
			}
		}
		if ob.Where != nil {
			bg := patternGraph
			if len(bGraphs) > 0 {
				bg = bGraphs[0]
			}
			env := c.newEnv(s, append(append([]*ppg.Graph{}, graphs...), bGraphs...), bg)
			var rsp *obs.ActiveSpan
			if anyUnapplied(bConjs) {
				rsp = c.col.Start(obs.OpResidual)
				if rsp.Verbose() {
					rsp.SetLabel("block filter")
				}
			}
			fIn := int64(bt.Len())
			filtered, err := c.residualFilter(bConjs, bt, env)
			if err != nil {
				rsp.Fail()
				osp.Fail()
				return nil, nil, err
			}
			rsp.Rows(fIn, int64(filtered.Len())).End()
			bt = filtered
		}
		graphs = append(graphs, bGraphs...)
		tbl, err = c.leftJoinBudget(tbl, bt)
		if err != nil {
			osp.Fail()
			return nil, nil, err
		}
		osp.Rows(rowsIn, int64(tbl.Len())).End()
	}
	return tbl, graphs, nil
}

// anyUnapplied reports whether a WHERE conjunct is still pending at
// the residual-filter point; it gates the residual span so spans line
// up one-to-one with the residual lines EXPLAIN prints.
func anyUnapplied(conjs []*conjunct) bool {
	for _, cj := range conjs {
		if !cj.applied {
			return true
		}
	}
	return false
}

// evalGraphPattern evaluates one basic graph pattern chain on g,
// producing the table of all homomorphic matches.
func (c *evalCtx) evalGraphPattern(s *scope, gp *ast.GraphPattern, g *ppg.Graph) (*bindings.Table, error) {
	return c.evalGraphPatternWith(s, gp, g, nil)
}

// evalGraphPatternWith additionally applies pushed-down WHERE
// conjuncts as soon as their variables are bound along the chain.
func (c *evalCtx) evalGraphPatternWith(s *scope, gp *ast.GraphPattern, g *ppg.Graph, conjs []*conjunct) (*bindings.Table, error) {
	tbl, _, err := c.evalChainPlanned(s, gp, g, conjs)
	return tbl, err
}

// evalChainPlanned evaluates one chain under the selectivity planner:
// the scan may start from the chain's cheaper end (planChain), with
// the rows sorted back into forward emission order afterwards. It
// also returns the planner's estimate for the chain's start scan,
// which evalMatch uses to order conjunct joins.
func (c *evalCtx) evalChainPlanned(s *scope, gp *ast.GraphPattern, g *ppg.Graph, conjs []*conjunct) (*bindings.Table, int, error) {
	// Give anonymous elements fresh internal names so positions stay
	// independent (homomorphism semantics: no implicit sharing). Names
	// are assigned on the textual pattern — independent of planning —
	// so anonymous numbering matches the unplanned evaluation.
	names := c.patternVarNames(gp)
	pl, planned := chainPlan{}, false
	if c.cached != nil {
		pl, planned = c.cached.chainPlanFor(gp, g)
	}
	if !planned {
		pl = planChain(gp, g, c.ev.ablation.NoReorder)
		if c.cached != nil {
			c.cached.storeChainPlan(gp, g, pl)
		}
	}
	run, runNames := gp, names
	if pl.reversed {
		run, runNames = pl.runGp, reverseNames(names)
	}

	// Each step span covers the operator plus the eager conjunct
	// application riding on it, mirroring the "⊳ filter" suffix of the
	// plan line; its label is the exact plan-line text so EXPLAIN
	// ANALYZE can match measurements to lines.
	sp := c.col.Start(obs.OpScan)
	if sp.Verbose() {
		sp.SetLabel(scanStepLabel(run.Nodes[0]))
	}
	tbl, stat, err := c.scanNodes(g, run.Nodes[0], runNames.node[0], conjs)
	if err != nil {
		sp.Fail()
		return nil, 0, err
	}
	if tbl, err = c.applyReady(conjs, tbl, g); err != nil {
		sp.Fail()
		return nil, 0, err
	}
	sp.Indexed(stat.indexed).Seek(stat.seekKey).Rows(stat.examined, int64(tbl.Len())).End()
	for i, link := range run.Links {
		rowsIn := int64(tbl.Len())
		var sp *obs.ActiveSpan
		switch x := link.(type) {
		case *ast.EdgePattern:
			sp = c.col.Start(obs.OpExpand)
			if sp.Verbose() {
				sp.SetLabel(expandStepLabel(x, run.Nodes[i+1]))
			}
			tbl, err = c.extendEdge(g, tbl, runNames.node[i], x, runNames.link[i], run.Nodes[i+1], runNames.node[i+1])
		case *ast.PathPattern:
			sp = c.col.Start(obs.OpPath)
			if sp.Verbose() {
				sp.SetLabel(pathStepLabel(x, run.Nodes[i+1]))
			}
			tbl, err = c.extendPath(s, g, tbl, runNames.node[i], x, runNames.link[i], run.Nodes[i+1], runNames.node[i+1], conjs)
		}
		if err != nil {
			sp.Fail()
			return nil, 0, err
		}
		if tbl, err = c.applyReady(conjs, tbl, g); err != nil {
			sp.Fail()
			return nil, 0, err
		}
		if err := c.checkBudget(tbl); err != nil {
			sp.Fail()
			return nil, 0, err
		}
		sp.Rows(rowsIn, int64(tbl.Len())).End()
	}
	if pl.reversed {
		tbl = c.restoreForwardOrder(tbl, gp, names, g)
	}
	return tbl, pl.startEstimate(), nil
}

// patternNames assigns a variable name to every element of a chain.
type patternNames struct {
	node []string
	link []string
}

func (c *evalCtx) patternVarNames(gp *ast.GraphPattern) patternNames {
	pn := patternNames{node: make([]string, len(gp.Nodes)), link: make([]string, len(gp.Links))}
	for i, n := range gp.Nodes {
		if n.Var != "" {
			pn.node[i] = n.Var
		} else {
			pn.node[i] = c.freshAnon()
		}
	}
	for i, l := range gp.Links {
		var v string
		switch x := l.(type) {
		case *ast.EdgePattern:
			v = x.Var
		case *ast.PathPattern:
			v = x.Var
		}
		if v == "" {
			v = c.freshAnon()
		}
		pn.link[i] = v
	}
	return pn
}

// nodeMatches checks labels and filter properties of a node pattern.
func (c *evalCtx) nodeMatches(g *ppg.Graph, n *ppg.Node, np *ast.NodePattern) (bool, error) {
	if !labelSpecMatches(np.Labels, n.Labels) {
		return false, nil
	}
	return c.propsMatch(g, n.Props, np.Props)
}

// labelSpecMatches: every conjunct needs at least one matching
// disjunct (":Post|Comment" matches either label).
func labelSpecMatches(spec ast.LabelSpec, ls ppg.Labels) bool {
	for _, disj := range spec {
		found := false
		for _, l := range disj {
			if ls.Has(l) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// propsMatch checks filter entries ({name='Wagner'}): the value must
// be a member of the property's value set.
func (c *evalCtx) propsMatch(g *ppg.Graph, props ppg.Properties, specs []*ast.PropSpec) (bool, error) {
	for _, ps := range specs {
		if ps.Mode != ast.PropFilter {
			continue
		}
		env := c.newEnv(nil, []*ppg.Graph{g}, g)
		env.row = bindings.Empty()
		v, err := env.eval(ps.Expr)
		if err != nil {
			return false, err
		}
		got := props.Get(ps.Key)
		if ok, _ := value.In(v, got).AsBool(); !ok {
			return false, nil
		}
	}
	return true, nil
}

// propCombo is the columnar form of one PropBind spec: the output
// slot to bind and the property's value set.
type propCombo struct {
	slot int
	vals []value.Value
}

// appendCombos appends one dense row per combination of combo values
// to dst, expanding depth-first in spec order (later specs vary
// fastest): binding entries ({employer=e}) unroll to one row per
// element of the property's value set. A pre-bound slot survives only
// when its value is a member of the spec's (deduplicated) value set;
// an empty value set drops the row (§3: Peter, without employer,
// simply drops out). scratch is restored on return.
func appendCombos(dst []value.Value, scratch []value.Value, combos []propCombo) []value.Value {
	if len(combos) == 0 {
		return append(dst, scratch...)
	}
	cb := combos[0]
	if prev := scratch[cb.slot]; !prev.IsAbsent() {
		for _, v := range cb.vals {
			if value.Equal(prev, v) {
				return appendCombos(dst, scratch, combos[1:])
			}
		}
		return dst
	}
	for _, v := range cb.vals {
		scratch[cb.slot] = v
		dst = appendCombos(dst, scratch, combos[1:])
	}
	scratch[cb.slot] = value.Absent
	return dst
}

// hasCombo reports whether appendCombos would append at least one row.
// scratch is restored on return.
func hasCombo(scratch []value.Value, combos []propCombo) bool {
	if len(combos) == 0 {
		return true
	}
	cb := combos[0]
	if prev := scratch[cb.slot]; !prev.IsAbsent() {
		for _, v := range cb.vals {
			if value.Equal(prev, v) {
				return hasCombo(scratch, combos[1:])
			}
		}
		return false
	}
	found := false
	for _, v := range cb.vals {
		scratch[cb.slot] = v
		if found = hasCombo(scratch, combos[1:]); found {
			break
		}
	}
	scratch[cb.slot] = value.Absent
	return found
}

// bindPlan precomputes the PropBind slots of a pattern element
// against an output schema.
type bindPlan struct {
	specs []*ast.PropSpec
	slots []int
}

func newBindPlan(tbl *bindings.Table, specs []*ast.PropSpec) bindPlan {
	var bp bindPlan
	for _, ps := range specs {
		if ps.Mode == ast.PropBind {
			bp.specs = append(bp.specs, ps)
			bp.slots = append(bp.slots, tbl.SlotOf(ps.Var))
		}
	}
	return bp
}

// addCombos appends the plan's combos for one element's properties.
func (bp bindPlan) addCombos(combos []propCombo, props ppg.Properties) []propCombo {
	for i, ps := range bp.specs {
		combos = append(combos, propCombo{slot: bp.slots[i], vals: props.Get(ps.Key).Elems()})
	}
	return combos
}

// exprParallelSafe reports whether an expression can be evaluated
// concurrently with other rows: it must be free of subqueries (EXISTS,
// pattern predicates) and aggregates, which touch shared evaluator
// state. collectExprVars already classifies exactly this ("pushable").
func exprParallelSafe(e ast.Expr) bool {
	return collectExprVars(e, map[string]bool{})
}

// specsParallelSafe reports whether every filter entry of a pattern's
// property specs is parallel-safe. Bind entries never evaluate
// expressions, so only filters matter.
func specsParallelSafe(specs []*ast.PropSpec) bool {
	for _, ps := range specs {
		if ps.Mode == ast.PropFilter && !exprParallelSafe(ps.Expr) {
			return false
		}
	}
	return true
}

// scanNodes produces the binding table of a single node pattern.
// Candidates come from the snapshot's per-label ordinal partitions
// whenever the pattern names a label (the full ordinal range
// otherwise) — or, when a pushed-down `x.key = constant` conjunct can
// seek its column's equality index to a shorter list, from that
// (scanCandidates). Label conjuncts are integer tests, WHERE conjuncts
// compilable against the property columns run on the candidate
// ordinals before any row is materialised (prefilterPreds), and only
// the remaining property checks touch the live ppg structs. Candidate
// chunks are matched concurrently and merged in input order.
func (c *evalCtx) scanNodes(g *ppg.Graph, np *ast.NodePattern, varName string, conjs []*conjunct) (*bindings.Table, scanStat, error) {
	if np.Copy {
		return nil, scanStat{}, errf("the copy form (=%s) is only allowed in CONSTRUCT", np.Var)
	}
	snap := c.snapOf(g)
	tbl := bindings.EmptyTable(appendBindVars([]string{varName}, np.Props)...)
	varSlot := tbl.SlotOf(varName)
	bp := newBindPlan(tbl, np.Props)
	w := tbl.Width()
	preds := c.prefilterPreds(snap, np, varName, tbl.HasVar, conjs)
	ords, labelTests, stat := scanCandidates(snap, resolveSpec(snap, np.Labels), preds)
	c.col.PropIndexEvent(stat.seekKey != "", stat.builds)
	parts, err := c.mapSlabs(len(ords), specsParallelSafe(np.Props), func(lo, hi int) ([]value.Value, error) {
		var slab []value.Value
		scratch := make([]value.Value, w)
		var combos []propCombo
		var colHits int64
		defer func() { c.col.PropColEvent(colHits, 0) }()
	cands:
		for i, u := range ords[lo:hi] {
			if i&(checkStride-1) == 0 {
				if err := c.gov.Checkpoint(faultinject.SiteCoreScan); err != nil {
					return nil, err
				}
			}
			if !labelTests.matchesNode(snap, u) {
				continue
			}
			for _, pr := range preds {
				colHits++
				if !pr.node.test(u, pr.p) {
					continue cands
				}
			}
			n := snap.Node(u)
			ok, err := c.propsMatch(g, n.Props, np.Props)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			for s := range scratch {
				scratch[s] = value.Absent
			}
			scratch[varSlot] = value.NodeRef(uint64(snap.NodeID(u)))
			combos = bp.addCombos(combos[:0], n.Props)
			slab = appendCombos(slab, scratch, combos)
		}
		return slab, nil
	})
	if err != nil {
		return nil, stat, err
	}
	tbl, err = c.mergeSlabs(tbl, parts)
	return tbl, stat, err
}

// extendEdge extends every row of tbl over one edge pattern to the
// next node pattern. Adjacency walks the snapshot's flat CSR arrays
// and the label tests are integer comparisons, in deterministic order
// (out ascending, then in ascending, self-loops emitted once under
// DirBoth).
func (c *evalCtx) extendEdge(g *ppg.Graph, tbl *bindings.Table, leftVar string, ep *ast.EdgePattern, edgeVar string, rightNp *ast.NodePattern, rightVar string) (*bindings.Table, error) {
	if ep.Copy {
		return nil, errf("the copy form [=%s] is only allowed in CONSTRUCT", ep.Var)
	}
	snap := c.snapOf(g)
	vars := append(tbl.Vars(), edgeVar, rightVar)
	out := bindings.EmptyTable(appendBindVars(appendBindVars(vars, ep.Props), rightNp.Props)...)
	eSpec := resolveSpec(snap, ep.Labels)
	nSpec := resolveSpec(snap, rightNp.Labels)
	ex := newExtendPlan(tbl, out, leftVar, edgeVar, rightVar, ep.Props, rightNp)

	safe := specsParallelSafe(ep.Props) && specsParallelSafe(rightNp.Props)
	parts, err := c.mapSlabs(tbl.Len(), safe, func(lo, hi int) ([]value.Value, error) {
		var slab []value.Value
		scratch := make([]value.Value, out.Width())
		var combos []propCombo
		for ri := lo; ri < hi; ri++ {
			if err := c.gov.Checkpoint(faultinject.SiteCoreExtend); err != nil {
				return nil, err
			}
			row := tbl.RowAt(ri)
			uid, ok := nodeOf(ex.left(row))
			if !ok {
				continue
			}
			u, ok := snap.Ord(uid)
			if !ok {
				continue
			}
			emit := func(eo, otherOrd int32) error {
				if !eSpec.matchesEdge(snap, eo) {
					return nil
				}
				e := snap.Edge(eo)
				if ok, err := c.propsMatch(g, e.Props, ep.Props); err != nil || !ok {
					return err
				}
				// Pre-bound edge/node variables must agree.
				other := snap.NodeID(otherOrd)
				link := value.EdgeRef(uint64(e.ID))
				if !ex.linkAgrees(row, link) || !ex.rightAgrees(row, other) {
					return nil
				}
				if !nSpec.matchesNode(snap, otherOrd) {
					return nil
				}
				on := snap.Node(otherOrd)
				if ok, err := c.propsMatch(g, on.Props, rightNp.Props); err != nil || !ok {
					return err
				}
				combos = ex.fill(scratch, row, link, uint64(other), e.Props, on.Props, combos)
				slab = appendCombos(slab, scratch, combos)
				return nil
			}
			var err error
			if ep.Dir == ast.DirOut || ep.Dir == ast.DirBoth {
				for _, eo := range snap.Out(u) {
					if err = emit(eo, snap.Dst(eo)); err != nil {
						return nil, err
					}
				}
			}
			if ep.Dir == ast.DirIn || ep.Dir == ast.DirBoth {
				for _, eo := range snap.In(u) {
					if ep.Dir == ast.DirBoth && snap.Src(eo) == snap.Dst(eo) {
						continue // self-loop already emitted by the out pass
					}
					if err = emit(eo, snap.Src(eo)); err != nil {
						return nil, err
					}
				}
			}
		}
		return slab, nil
	})
	if err != nil {
		return nil, err
	}
	return c.mergeSlabs(out, parts)
}

// extendPlan precomputes the slot arithmetic of one extension over a
// link — an edge, or a path — to the next node: where the left, link
// and right variables live in the input schema (for pre-bound
// agreement checks), how input slots map into the output schema, and
// the PropBind plans of the link and the right node.
type extendPlan struct {
	leftIn, linkIn, rightIn int // input slots; -1 when not in the schema
	linkOut, rightOut       int // output slots; linkOut -1 for a reachability test
	inToOut                 []int
	linkBind, rightBind     bindPlan
}

func newExtendPlan(in, out *bindings.Table, leftVar, linkVar, rightVar string, linkProps []*ast.PropSpec, rightNp *ast.NodePattern) extendPlan {
	x := extendPlan{
		leftIn:    in.SlotOf(leftVar),
		linkIn:    in.SlotOf(linkVar),
		rightIn:   in.SlotOf(rightVar),
		linkOut:   out.SlotOf(linkVar),
		rightOut:  out.SlotOf(rightVar),
		inToOut:   make([]int, in.Width()),
		linkBind:  newBindPlan(out, linkProps),
		rightBind: newBindPlan(out, rightNp.Props),
	}
	for s, v := range in.Vars() {
		x.inToOut[s] = out.SlotOf(v)
	}
	return x
}

// left reads the left-node value of an input row.
func (x extendPlan) left(row []value.Value) value.Value {
	if x.leftIn < 0 {
		return value.Absent
	}
	return row[x.leftIn]
}

// linkAgrees checks a pre-bound link variable against the candidate.
func (x extendPlan) linkAgrees(row []value.Value, link value.Value) bool {
	if x.linkIn >= 0 {
		if prev := row[x.linkIn]; !prev.IsAbsent() && !value.Equal(prev, link) {
			return false
		}
	}
	return true
}

// rightAgrees checks a pre-bound right-node variable against the
// candidate node.
func (x extendPlan) rightAgrees(row []value.Value, other ppg.NodeID) bool {
	if x.rightIn >= 0 {
		if prev := row[x.rightIn]; !prev.IsAbsent() {
			if id, isNode := nodeOf(prev); !isNode || id != other {
				return false
			}
		}
	}
	return true
}

// fill prepares the output scratch row (input columns copied, link and
// right refs bound) and the bind combos for one accepted candidate.
func (x extendPlan) fill(scratch, row []value.Value, link value.Value, otherID uint64, linkProps, nProps ppg.Properties, combos []propCombo) []propCombo {
	for s := range scratch {
		scratch[s] = value.Absent
	}
	for s, v := range row {
		scratch[x.inToOut[s]] = v
	}
	if x.linkOut >= 0 {
		scratch[x.linkOut] = link
	}
	scratch[x.rightOut] = value.NodeRef(otherID)
	combos = x.linkBind.addCombos(combos[:0], linkProps)
	return x.rightBind.addCombos(combos, nProps)
}

func nodeOf(v value.Value) (ppg.NodeID, bool) {
	if v.Kind() != value.KindNode {
		return 0, false
	}
	id, _ := v.RefID()
	return ppg.NodeID(id), true
}
