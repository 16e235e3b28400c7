package core

import (
	"math"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
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

// evalMatch computes the binding table of a MATCH clause (§A.2):
// located patterns are evaluated on their graphs and joined; the
// result is correlated with the outer bindings, filtered by WHERE,
// and extended by the OPTIONAL blocks as ordered left-outer joins.
// It returns the table together with the graphs involved (used to
// resolve element labels and properties in later expressions).
func (c *evalCtx) evalMatch(s *scope, mc *ast.MatchClause, outer *bindings.Table) (*bindings.Table, []*ppg.Graph, error) {
	// Pure conjuncts of WHERE are pushed into the pattern chains and
	// applied as soon as their variables are bound — before expensive
	// path searches — which is semantically transparent (§A.2: the
	// filter is a per-row predicate over its own variables).
	conjs := c.cached.conjuncts(mc.Where)
	tbl, graphs, err := c.evalPatterns(s, mc.Patterns, conjs)
	if err != nil {
		return nil, nil, err
	}
	// Correlate with the outer query's bindings (Jγ0KΩ,G semantics).
	// A top-level MATCH correlates with {µ∅}, the join's identity: only
	// the budget the join would apply remains.
	if outer.Len() == 1 && outer.Width() == 0 {
		if limit := c.gov.Limits().MaxBindings; limit > 0 && tbl.Len() > limit {
			return nil, nil, c.gov.BindingsError(limit + 1)
		}
	} else if tbl, err = c.joinBudget(tbl, outer); err != nil {
		return nil, nil, err
	}

	patternGraph := firstGraph(graphs, c.defaultGraphOrNil())
	env := c.newEnv(s, graphs, patternGraph)
	if tbl, err = c.residualFilter("residual filter", conjs, tbl, env); err != nil {
		return nil, nil, err
	}
	for _, ob := range mc.Optionals {
		// The left-join span brackets the whole block: its chains,
		// fold, block filter and the outer join itself.
		osp := c.col.Start(obs.OpLeftJoin)
		if osp.Verbose() {
			osp.SetLabel("OPTIONAL left join")
		}
		rowsIn := int64(tbl.Len())
		bConjs := c.cached.conjuncts(ob.Where)
		bt, bGraphs, err := c.evalPatterns(s, ob.Patterns, bConjs)
		if err == nil {
			env := c.newEnv(s, append(append([]*ppg.Graph{}, graphs...), bGraphs...), firstGraph(bGraphs, patternGraph))
			bt, err = c.residualFilter("block filter", bConjs, bt, env)
		}
		if err == nil {
			graphs = append(graphs, bGraphs...)
			tbl, err = c.leftJoinBudget(tbl, bt)
		}
		if err != nil {
			osp.Fail()
			return nil, nil, err
		}
		osp.Rows(rowsIn, int64(tbl.Len())).End()
	}
	return tbl, graphs, nil
}

// evalPatterns evaluates the located patterns of a MATCH or OPTIONAL
// block on their graphs and joins them, returning the graphs too. Every
// conjunct pattern is evaluated in textual order (stable anonymous
// numbering), each restricted to the nodes the earlier ones bound its
// shared node variables to (sip.go), then the joins fold smallest
// estimate first — hidden row ordinals restore the textual fold order
// so downstream row-order-sensitive stages (CONSTRUCT identity
// assignment, canonical output order) see identical tables.
func (c *evalCtx) evalPatterns(s *scope, lps []*ast.LocatedPattern, conjs []*conjunct) (*bindings.Table, []*ppg.Graph, error) {
	var (
		graphs []*ppg.Graph
		tables []*bindings.Table
		ests   []int
	)
	paramsBound := c.paramsBound()
	for j, lp := range lps {
		g, err := c.resolveLocation(s, lp)
		if err != nil {
			return nil, nil, err
		}
		graphs = append(graphs, g)
		var only []ordSet
		if vars := sipVars(c.cached, lps, j, conjs, paramsBound); vars != nil {
			snap := csr.Of(g)
			only = restrict(lp.Pattern, vars, tables, snap)
		}
		t, est, err := c.evalChainPlanned(s, lp.Pattern, g, conjs, only)
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
	if len(tables) < 2 {
		tbl, err := c.foldConjuncts(tables, ests)
		return tbl, graphs, err
	}
	// The join span covers only multi-pattern folds, matching the one
	// "join order" line EXPLAIN prints in that case.
	jsp := c.col.Start(obs.OpJoin)
	if jsp.Verbose() {
		jsp.SetLabel("conjunct join fold")
	}
	var rowsIn int64
	for _, t := range tables {
		rowsIn += int64(t.Len())
	}
	tbl, err := c.foldConjuncts(tables, ests)
	if err != nil {
		jsp.Fail()
		return nil, nil, err
	}
	jsp.Rows(rowsIn, int64(tbl.Len())).End()
	return tbl, graphs, nil
}

// evalGraphPattern evaluates one basic graph pattern chain on g,
// producing the table of all homomorphic matches and the variable each
// position is bound to (anonymous ones under their minted names).
func (c *evalCtx) evalGraphPattern(s *scope, gp *ast.GraphPattern, g *ppg.Graph) (*bindings.Table, patternNames, error) {
	names := c.patternVarNames(gp)
	tbl, _, err := c.evalChainNamed(s, gp, names, g, nil, nil)
	return tbl, names, err
}

// evalChainPlanned evaluates one chain under the selectivity planner,
// applying pushed-down WHERE conjuncts as soon as their variables are
// bound: the scan starts at the node pattern planChain picks, the chain
// extends rightwards to its last node and then leftwards to its first,
// and a chain not started at its first node has its rows sorted back
// into forward emission order. It also returns the chain's planned
// cost, which evalMatch uses to order conjunct joins. only restricts
// the nodes each position may bind (sip.go; nil: none is restricted).
func (c *evalCtx) evalChainPlanned(s *scope, gp *ast.GraphPattern, g *ppg.Graph, conjs []*conjunct, only []ordSet) (*bindings.Table, int, error) {
	// Give anonymous elements fresh internal names so positions stay
	// independent (homomorphism semantics: no implicit sharing). Names
	// are assigned on the textual pattern — independent of planning —
	// so anonymous numbering matches the unplanned evaluation.
	return c.evalChainNamed(s, gp, c.patternVarNames(gp), g, conjs, only)
}

// evalChainNamed is evalChainPlanned with the positions' variable
// names given.
func (c *evalCtx) evalChainNamed(s *scope, gp *ast.GraphPattern, names patternNames, g *ppg.Graph, conjs []*conjunct, only []ordSet) (*bindings.Table, int, error) {
	pl, planned := c.cached.chainPlanFor(gp, g)
	if !planned {
		pl = planChain(gp, c.snapOf(g), conjs, c.col)
		c.cached.storeChainPlan(gp, g, pl)
	}

	// Each step span covers the operator plus the eager conjunct
	// application riding on it, mirroring the "⊳ filter" suffix of the
	// plan line; its label is the exact plan-line text so EXPLAIN
	// ANALYZE can match measurements to lines.
	start := gp.Nodes[pl.start]
	sp := c.col.Start(obs.OpScan)
	if sp.Verbose() {
		sp.SetLabel(scanStepLabel(start))
	}
	tbl, stat, err := c.scanNodes(g, start, names.node[pl.start], conjs, at(only, pl.start))
	if err != nil {
		sp.Fail()
		return nil, 0, err
	}
	if tbl, err = c.applyReady(conjs, tbl, g); err != nil {
		sp.Fail()
		return nil, 0, err
	}
	sp.Indexed(stat.indexed).Seek(stat.seekKey).Rows(stat.examined, int64(tbl.Len())).End()
	for _, st := range chainSteps(len(gp.Links), pl.start) {
		rowsIn := int64(tbl.Len())
		from, to, next := names.node[st.from], names.node[st.to], gp.Nodes[st.to]
		var sp *obs.ActiveSpan
		switch x := st.linkOf(gp).(type) {
		case *ast.EdgePattern:
			sp = c.col.Start(obs.OpExpand)
			if sp.Verbose() {
				sp.SetLabel(expandStepLabel(x, next))
			}
			tbl, err = c.extendEdge(g, tbl, from, x, names.link[st.link], next, to, conjs, at(only, st.to))
		case *ast.PathPattern:
			sp = c.col.Start(obs.OpPath)
			if sp.Verbose() {
				sp.SetLabel(pathStepLabel(x, next))
			}
			tbl, err = c.extendPath(s, g, tbl, from, x, names.link[st.link], next, to, conjs)
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
	if pl.start > 0 {
		tbl = restoreForwardOrder(tbl, gp, names, c.snapOf(g))
	}
	return tbl, pl.cost, nil
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
	var env *env
	for _, ps := range specs {
		if ps.Mode != ast.PropFilter {
			continue
		}
		if env == nil {
			env = c.newEnv(nil, []*ppg.Graph{g}, g)
		}
		v, err := c.expr(ps.Expr).eval(env)
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

// appendCombos appends to dst one row per combination of combo values,
// expanding depth-first in spec order (later specs vary fastest):
// binding entries ({employer=e}) unroll to one row per element of the
// property's value set. A pre-bound slot survives only when its value
// is a member of the spec's (deduplicated) value set; an empty value
// set drops the row (§3: Peter, without employer, simply drops out).
// scratch is restored on return.
func appendCombos(dst *bindings.Table, scratch []value.Value, combos []propCombo) {
	if len(combos) == 0 {
		dst.AppendRow(scratch)
		return
	}
	cb := combos[0]
	if prev := scratch[cb.slot]; !prev.IsAbsent() {
		for _, v := range cb.vals {
			if value.Equal(prev, v) {
				appendCombos(dst, scratch, combos[1:])
				return
			}
		}
		return
	}
	for _, v := range cb.vals {
		scratch[cb.slot] = v
		appendCombos(dst, scratch, combos[1:])
	}
	scratch[cb.slot] = value.Absent
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

// scanNodes produces the binding table of a single node pattern.
// Candidates come from the snapshot's per-label ordinal partitions
// whenever the pattern names a label (the full ordinal range
// otherwise) — or, when a pushed-down `x.key = constant` conjunct can
// seek its column's equality index to a shorter list, from that
// (scanCandidates). Label conjuncts are integer tests, WHERE conjuncts
// that are column leaves run on the candidate ordinals before any row
// is materialised (prefilterPreds), and only the remaining property
// checks touch the live ppg structs; a candidate outside only is
// dropped after all of them. The binding budget is checked as each
// candidate's rows are appended.
func (c *evalCtx) scanNodes(g *ppg.Graph, np *ast.NodePattern, varName string, conjs []*conjunct, only ordSet) (*bindings.Table, scanStat, error) {
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
	scratch := make([]value.Value, w)
	var combos []propCombo
	var colHits int64
	defer func() { c.col.PropColEvent(colHits, 0) }()
cands:
	for i, u := range ords {
		if i&(checkStride-1) == 0 {
			if err := c.gov.Checkpoint(faultinject.SiteCoreScan); err != nil {
				return nil, stat, err
			}
		}
		if !labelTests.matchesNode(snap, u) {
			continue
		}
		for _, pr := range preds {
			colHits++
			if !pr.node.test(u, pr) {
				continue cands
			}
		}
		n := snap.Node(u)
		ok, err := c.propsMatch(g, n.Props, np.Props)
		if err != nil {
			return nil, stat, err
		}
		if !ok || !only.has(u) {
			continue
		}
		for s := range scratch {
			scratch[s] = value.Absent
		}
		scratch[varSlot] = value.NodeRef(uint64(snap.NodeID(u)))
		combos = bp.addCombos(combos[:0], n.Props)
		appendCombos(tbl, scratch, combos)
		if err := c.checkBudget(tbl); err != nil {
			return nil, stat, err
		}
	}
	return tbl, stat, nil
}

// extendEdge extends every row of tbl over one edge pattern to the
// next node pattern. Adjacency walks the snapshot's flat CSR arrays
// and the label tests are integer comparisons, in deterministic order
// (out ascending, then in ascending, self-loops emitted once under
// DirBoth). An edge that passes its own tests meets the destination
// gate (destGate), which also holds the destination to only, before
// anything of its row is built.
func (c *evalCtx) extendEdge(g *ppg.Graph, tbl *bindings.Table, leftVar string, ep *ast.EdgePattern, edgeVar string, rightNp *ast.NodePattern, rightVar string, conjs []*conjunct, only ordSet) (*bindings.Table, error) {
	if ep.Copy {
		return nil, errf("the copy form [=%s] is only allowed in CONSTRUCT", ep.Var)
	}
	snap := c.snapOf(g)
	vars := append(tbl.Vars(), edgeVar, rightVar)
	out := bindings.EmptyTable(appendBindVars(appendBindVars(vars, ep.Props), rightNp.Props)...)
	eSpec := resolveSpec(snap, ep.Labels)
	ex := newExtendPlan(tbl, out, leftVar, edgeVar, rightVar, ep.Props, rightNp)
	gate := c.newDestGate(g, snap, ex, out, rightNp, rightVar, conjs, only)

	scratch := make([]value.Value, out.Width())
	var combos []propCombo
	var colHits int64
	defer func() { c.col.PropColEvent(colHits, 0) }()
	for ri := 0; ri < tbl.Len(); ri++ {
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
			link := value.EdgeRef(uint64(e.ID))
			if !ex.linkAgrees(row, link) {
				return nil
			}
			if ok, err := gate.pass(row, otherOrd, &colHits); err != nil || !ok {
				return err
			}
			combos = ex.fill(scratch, row, link, uint64(snap.NodeID(otherOrd)), e.Props, snap.Node(otherOrd).Props, combos)
			appendCombos(out, scratch, combos)
			return nil
		}
		if ep.Dir == ast.DirOut || ep.Dir == ast.DirBoth {
			for _, eo := range snap.Out(u) {
				if err := emit(eo, snap.Dst(eo)); err != nil {
					return nil, err
				}
			}
		}
		if ep.Dir == ast.DirIn || ep.Dir == ast.DirBoth {
			for _, eo := range snap.In(u) {
				if ep.Dir == ast.DirBoth && snap.Src(eo) == snap.Dst(eo) {
					continue // self-loop already emitted by the out pass
				}
				if err := emit(eo, snap.Src(eo)); err != nil {
					return nil, err
				}
			}
		}
		if err := c.checkBudget(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// destGate is the destination gate of a step: it decides on its ordinal
// whether node u may end a row extending row, before anything per
// destination is built. A pre-bound right variable must name u, and u
// must carry the right node pattern's labels, pass the WHERE conjuncts
// on the right variable that are column leaves and may run this early
// (prefilterConjuncts' rule), and pass the pattern's filter
// entries, and last lie in the step's restriction (sip.go). Only the
// filter entries evaluate expressions and can raise — and a pattern that
// has them gives the gate no conjuncts, so the gate raises exactly where
// building the row used to.
type destGate struct {
	c       *evalCtx
	g       *ppg.Graph
	snap    *csr.Snapshot
	ex      extendPlan
	rightNp *ast.NodePattern
	labels  resolvedSpec // the right node pattern's, interned
	preds   []*colBind   // WHERE conjuncts consumed by the gate
	only    ordSet       // the destinations allowed; nil: any
}

// newDestGate builds the gate of a step whose output table is out,
// consuming its WHERE conjuncts.
func (c *evalCtx) newDestGate(g *ppg.Graph, snap *csr.Snapshot, ex extendPlan, out *bindings.Table, rightNp *ast.NodePattern, rightVar string, conjs []*conjunct, only ordSet) destGate {
	return destGate{c: c, g: g, snap: snap, ex: ex, rightNp: rightNp,
		labels: resolveSpec(snap, rightNp.Labels),
		preds:  c.prefilterPreds(snap, rightNp, rightVar, out.HasVar, conjs),
		only:   only}
}

// pass runs the gate, counting the column tests into colHits.
func (dg *destGate) pass(row []value.Value, u int32, colHits *int64) (bool, error) {
	if !dg.ex.rightAgrees(row, dg.snap.NodeID(u)) || !dg.labels.matchesNode(dg.snap, u) {
		return false, nil
	}
	for _, pr := range dg.preds {
		*colHits++
		if !pr.node.test(u, pr) {
			return false, nil
		}
	}
	ok, err := dg.c.propsMatch(dg.g, dg.snap.Node(u).Props, dg.rightNp.Props)
	return ok && dg.only.has(u), err
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
