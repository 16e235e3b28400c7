package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/gov"
	"gcore/internal/obs"
	"gcore/internal/ppg"
)

// Explain renders the evaluation plan of a statement: head clauses,
// the join tree of each MATCH with the points where WHERE conjuncts
// are applied (predicate pushdown), the chain starts, step estimates
// and join order chosen by the selectivity planner, the path-search
// strategies, the OPTIONAL left-joins, and the CONSTRUCT phases. The plan is purely
// static — nothing is evaluated — and mirrors exactly what the
// evaluator will do, because both share the conjunct analysis and the
// planChain/joinOrder calls. The one divergence: patterns matched
// against query-local graphs (GRAPH clauses, ON subqueries) have no
// catalog graph to estimate from at plan time, so their estimates
// print as "?" here while the runtime plans against the materialised
// graph.
func (ev *Evaluator) Explain(stmt *ast.Statement) (string, error) {
	return ev.ExplainContext(context.Background(), stmt)
}

// ExplainContext is Explain under the caller's context and the
// evaluator's Limits: an EXPLAIN issued against a dead context fails
// with the same KindCanceled/KindTimeout errors evaluation would,
// keeping the governance surface uniform across entry points.
func (ev *Evaluator) ExplainContext(ctx context.Context, stmt *ast.Statement) (string, error) {
	return ev.ExplainOptsContext(ctx, stmt, ExecOpts{})
}

// ExplainOptsContext is ExplainContext with per-call overrides: the
// plan is printed against the session's default graph (estimates and
// chain starts can differ per graph) under the session's limits.
func (ev *Evaluator) ExplainOptsContext(ctx context.Context, stmt *ast.Statement, opts ExecOpts) (string, error) {
	return ev.explainExec(ctx, Exec{stmt: stmt, opts: opts})
}

// explainExec renders the static plan of one execution.
func (ev *Evaluator) explainExec(ctx context.Context, ex Exec) (string, error) {
	if err := ex.ensureCompiled(); err != nil {
		return "", err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	limits := ev.limits
	if ex.opts.Limits != nil {
		limits = *ex.opts.Limits
	}
	if limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limits.Timeout)
		defer cancel()
	}
	if err := gov.New(ctx, limits).Checkpoint(faultinject.SiteEvalStart); err != nil {
		return "", err
	}
	var sb strings.Builder
	explainStatement(ev, ex.opts.DefaultGraph, ex.cached, &sb, ex.stmt, "", nil)
	return sb.String(), nil
}

// staticGraph resolves the target graph of a located pattern from the
// catalog alone, or nil when it is only known at run time (ON
// subqueries, query-local views). def is the session's default-graph
// override ("" = catalog default).
func (ev *Evaluator) staticGraph(def string, lp *ast.LocatedPattern) *ppg.Graph {
	switch {
	case lp.OnQuery != nil:
		return nil
	case lp.OnGraph != "":
		g, err := ev.cat.Resolve(lp.OnGraph)
		if err != nil {
			return nil
		}
		return g
	default:
		if def != "" {
			g, err := ev.cat.Resolve(def)
			if err != nil {
				return nil
			}
			return g
		}
		return ev.cat.Default()
	}
}

// Shared step labels: the plan printer emits them and the evaluator
// records them on operator spans, so EXPLAIN ANALYZE can line actual
// measurements up against plan lines by exact text.

func scanStepLabel(np *ast.NodePattern) string {
	return "node scan " + np.String()
}

func expandStepLabel(x *ast.EdgePattern, next *ast.NodePattern) string {
	return "expand " + x.String() + next.String() + " (adjacency)"
}

func pathStepLabel(x *ast.PathPattern, next *ast.NodePattern) string {
	return pathStrategy(x) + " " + x.String() + next.String()
}

const constructLabel = "CONSTRUCT (identity-respecting, §A.3)"

func selectLabel(sc *ast.SelectClause) string {
	return fmt.Sprintf("SELECT %d column(s) → table", len(sc.Items))
}

func explainStatement(ev *Evaluator, def string, cs *CachedStatement, sb *strings.Builder, stmt *ast.Statement, indent string, ann *planAnnotator) {
	for _, pc := range stmt.Paths {
		fmt.Fprintf(sb, "%sPATH VIEW %s\n", indent, pc.Name)
		fmt.Fprintf(sb, "%s  segment: %s", indent, pc.Patterns[0].String())
		if len(pc.Patterns) > 1 {
			fmt.Fprintf(sb, "  (+%d joined context pattern(s))", len(pc.Patterns)-1)
		}
		sb.WriteByte('\n')
		if pc.Where != nil {
			fmt.Fprintf(sb, "%s  filter: %s\n", indent, ast.ExprString(pc.Where))
		}
		if pc.Cost != nil {
			fmt.Fprintf(sb, "%s  cost:   %s (must be > 0)\n", indent, ast.ExprString(pc.Cost))
		} else {
			fmt.Fprintf(sb, "%s  cost:   1 (hop count)\n", indent)
		}
	}
	for _, gc := range stmt.Graphs {
		kind := "GRAPH (query-local)"
		if gc.View {
			kind = "GRAPH VIEW (registered in the catalog)"
		}
		fmt.Fprintf(sb, "%s%s %s\n", indent, kind, gc.Name)
		explainStatement(ev, def, cs, sb, gc.Body, indent+"  ", ann)
	}
	if stmt.Query != nil {
		explainQuery(ev, def, cs, sb, stmt.Query, indent, ann)
	}
}

func explainQuery(ev *Evaluator, def string, cs *CachedStatement, sb *strings.Builder, q ast.Query, indent string, ann *planAnnotator) {
	switch x := q.(type) {
	case *ast.SetQuery:
		fmt.Fprintf(sb, "%sGRAPH %s (identity-wise, §A.5)\n", indent, x.Op)
		explainQuery(ev, def, cs, sb, x.Left, indent+"  ", ann)
		explainQuery(ev, def, cs, sb, x.Right, indent+"  ", ann)
	case *ast.BasicQuery:
		explainBasic(ev, def, cs, sb, x, indent, ann)
	}
}

func explainBasic(ev *Evaluator, def string, cs *CachedStatement, sb *strings.Builder, bq *ast.BasicQuery, indent string, ann *planAnnotator) {
	boundVars := map[string]bool{}
	boundKnown := true
	switch {
	case bq.From != "":
		fmt.Fprintf(sb, "%sFROM %s (import binding table)\n", indent, bq.From)
		boundKnown = false // columns are only known at run time
	case bq.Match != nil:
		explainMatch(ev, def, cs, sb, bq.Match, indent, ann)
		for _, lp := range bq.Match.Patterns {
			collectVars(lp.Pattern, boundVars)
		}
		for _, ob := range bq.Match.Optionals {
			for _, lp := range ob.Patterns {
				collectVars(lp.Pattern, boundVars)
			}
		}
	default:
		fmt.Fprintf(sb, "%sunit bindings {µ∅}\n", indent)
	}
	switch {
	case bq.Select != nil:
		fmt.Fprintf(sb, "%sSELECT %d column(s)", indent, len(bq.Select.Items))
		if bq.Select.Distinct {
			sb.WriteString(" DISTINCT")
		}
		if len(bq.Select.OrderBy) > 0 {
			fmt.Fprintf(sb, ", ORDER BY %d key(s)", len(bq.Select.OrderBy))
		}
		if bq.Select.Limit >= 0 {
			fmt.Fprintf(sb, ", LIMIT %d", bq.Select.Limit)
		}
		sb.WriteString(" → table")
		sb.WriteString(ann.suffix(obs.OpSelect, ""))
		sb.WriteByte('\n')
	case bq.Construct != nil:
		explainConstruct(sb, bq.Construct, indent, boundVars, boundKnown, ann)
	}
}

func explainMatch(ev *Evaluator, def string, cs *CachedStatement, sb *strings.Builder, mc *ast.MatchClause, indent string, ann *planAnnotator) {
	fmt.Fprintf(sb, "%sMATCH\n", indent)
	conjs := cs.conjuncts(mc.Where)
	// Track which conjuncts each chain will absorb, mirroring
	// applyReady's schema test as variables become bound. Each chain is
	// walked from the start the planner picks, so the step order — and
	// therefore the pushdown points — match the evaluation.
	ests := explainPatterns(ev, def, cs, sb, mc.Patterns, conjs, indent, ann)
	explainJoinOrder(ev, sb, ests, indent, ann)
	var residual []string
	for _, cj := range conjs {
		if !cj.applied {
			kind := ""
			if !cj.pushable {
				kind = " [subquery]"
			}
			residual = append(residual, ast.ExprString(cj.src)+kind)
		}
	}
	if len(residual) > 0 {
		fmt.Fprintf(sb, "%s  residual filter: %s%s\n", indent,
			strings.Join(residual, " AND "), ann.suffix(obs.OpResidual, ""))
	}
	for oi, ob := range mc.Optionals {
		fmt.Fprintf(sb, "%s  left-outer-join OPTIONAL block %d%s\n", indent, oi+1,
			ann.suffix(obs.OpLeftJoin, ""))
		bConjs := cs.conjuncts(ob.Where)
		bEsts := make([]int, len(ob.Patterns))
		for i, lp := range ob.Patterns {
			explainRestriction(ev, cs, sb, ob.Patterns, i, bConjs, indent+"    ")
			pl := ev.staticPlan(def, lp, bConjs)
			bEsts[i] = patternEstimate(lp, pl)
			explainChain(ev, sb, lp.Pattern, pl, bConjs, indent+"    ", ann)
		}
		explainJoinOrder(ev, sb, bEsts, indent+"  ", ann)
		var brest []string
		for _, cj := range bConjs {
			if !cj.applied {
				brest = append(brest, ast.ExprString(cj.src))
			}
		}
		if len(brest) > 0 {
			fmt.Fprintf(sb, "%s    block filter: %s%s\n", indent,
				strings.Join(brest, " AND "), ann.suffix(obs.OpResidual, ""))
		}
	}
}

// explainPatterns prints each conjunct pattern of a MATCH with its
// restriction and the planner's scan decision, returning the
// per-pattern estimates that drive the fold order.
func explainPatterns(ev *Evaluator, def string, cs *CachedStatement, sb *strings.Builder, pats []*ast.LocatedPattern, conjs []*conjunct, indent string, ann *planAnnotator) []int {
	ests := make([]int, len(pats))
	for pi, lp := range pats {
		loc := "default graph"
		if lp.OnGraph != "" {
			loc = "ON " + lp.OnGraph
		}
		if lp.OnQuery != nil {
			loc = "ON (subquery)"
		}
		joiner := "scan"
		if pi > 0 {
			joiner = "hash-join with"
		}
		fmt.Fprintf(sb, "%s  %s pattern %d (%s)\n", indent, joiner, pi+1, loc)
		explainRestriction(ev, cs, sb, pats, pi, conjs, indent+"    ")
		pl := ev.staticPlan(def, lp, conjs)
		ests[pi] = patternEstimate(lp, pl)
		explainChain(ev, sb, lp.Pattern, pl, conjs, indent+"    ", ann)
	}
	return ests
}

// explainRestriction prints the node variables of pattern j that the
// patterns before it restrict (sip.go), the way the evaluator decides
// with every parameter bound. It must run before the chain claims its
// conjuncts.
func explainRestriction(ev *Evaluator, cs *CachedStatement, sb *strings.Builder, pats []*ast.LocatedPattern, j int, conjs []*conjunct, indent string) {
	if vars := sipVars(ev.ablation, cs, pats, j, conjs, true); vars != nil {
		fmt.Fprintf(sb, "%srestricted: %s\n", indent, sipLine(vars))
	}
}

// staticPlan plans a located pattern's chain the way the evaluator
// will, on the snapshot of its catalog graph; a graph only known at run
// time plans the first node with no estimates (the runtime re-plans
// against the materialised graph). It must run before the chain claims
// its conjuncts, as planning does at run time.
func (ev *Evaluator) staticPlan(def string, lp *ast.LocatedPattern, conjs []*conjunct) chainPlan {
	var snap *csr.Snapshot
	if g := ev.staticGraph(def, lp); g != nil {
		snap, _ = ev.snapshot(g)
	}
	return planChain(ev.ablation, lp.Pattern, snap, conjs, nil)
}

// patternEstimate is the fold-order estimate of one located pattern,
// matching evalMatch: ON-subquery patterns always rank last because
// their cardinality is unknowable before the subquery runs.
func patternEstimate(lp *ast.LocatedPattern, pl chainPlan) int {
	if lp.OnQuery != nil {
		return math.MaxInt
	}
	return pl.cost
}

// explainJoinOrder prints the fold order of a multi-pattern MATCH (or
// OPTIONAL block), mirroring foldConjuncts.
func explainJoinOrder(ev *Evaluator, sb *strings.Builder, ests []int, indent string, ann *planAnnotator) {
	if len(ests) < 2 {
		return
	}
	order := joinOrder(ests, ev.ablation.NoReorder)
	parts := make([]string, len(order))
	for i, o := range order {
		parts[i] = fmt.Sprintf("pattern %d [est %s]", o+1, estString(ests[o]))
	}
	fmt.Fprintf(sb, "%s  join order: %s%s\n", indent,
		strings.Join(parts, " ⋈ "), ann.suffix(obs.OpJoin, ""))
}

func estString(est int) string {
	if est == math.MaxInt {
		return "?"
	}
	return fmt.Sprintf("%d", est)
}

// explainChain walks one pattern chain from its planned start,
// reporting the start, each step with its estimate, and the conjuncts
// that become applicable (and marks them applied, like applyReady
// does, so later chains don't re-claim them). Chains over graphs only
// known at run time print no start line and no estimates.
func explainChain(ev *Evaluator, sb *strings.Builder, gp *ast.GraphPattern, pl chainPlan, conjs []*conjunct, indent string, ann *planAnnotator) {
	start := gp.Nodes[pl.start]
	if pl.ests != nil {
		restored := ""
		if pl.start > 0 {
			restored = ", emission order restored"
		}
		fmt.Fprintf(sb, "%sstart: node %d %s [est %s]%s\n", indent, pl.start+1, start.String(), estString(pl.cost), restored)
	}
	bound := map[string]bool{}
	claim := func() []string {
		var out []string
		for _, cj := range conjs {
			if cj.applied || !cj.pushable {
				continue
			}
			ok := len(cj.vars) > 0
			for _, v := range cj.vars {
				if !bound[v] {
					ok = false
					break
				}
			}
			if ok {
				cj.applied = true
				desc := ast.ExprString(cj.src)
				// The index-vs-column decision: column leaves are
				// marked, the rest evaluate row-at-a-time.
				if _, isLeaf := cj.ev.(*colLeaf); isLeaf && !ev.ablation.NoPropColumns {
					desc += " [col]"
				}
				out = append(out, desc)
			}
		}
		return out
	}
	step := func(i int, op obs.Op, desc string) {
		fmt.Fprintf(sb, "%s%s", indent, desc)
		var seek []string
		if op == obs.OpScan {
			seek = seekKeys(ev.ablation, start, conjs)
		}
		if pushed := claim(); len(pushed) > 0 {
			fmt.Fprintf(sb, "  ⊳ filter: %s", strings.Join(pushed, " AND "))
		}
		// An equality start: the scan may take its candidates from the
		// key's value index. Whether a given execution does depends on
		// the column and constant kinds, which only the snapshot and the
		// bindings know — EXPLAIN ANALYZE reports it.
		if len(seek) > 0 {
			fmt.Fprintf(sb, "  [seek %s]", strings.Join(seek, "|"))
		}
		if pl.ests != nil {
			fmt.Fprintf(sb, "  [est %s]", estString(pl.ests[i]))
		}
		if op == obs.OpScan {
			sb.WriteString(ann.scanSuffix(desc))
		} else {
			sb.WriteString(ann.suffix(op, desc))
		}
		sb.WriteByte('\n')
	}
	bindNode := func(np *ast.NodePattern) {
		if np.Var != "" {
			bound[np.Var] = true
		}
		for _, ps := range np.Props {
			if ps.Mode == ast.PropBind {
				bound[ps.Var] = true
			}
		}
	}
	bindNode(start)
	step(0, obs.OpScan, scanStepLabel(start))
	for i, st := range chainSteps(len(gp.Links), pl.start) {
		next := gp.Nodes[st.to]
		switch x := st.linkOf(gp).(type) {
		case *ast.EdgePattern:
			if x.Var != "" {
				bound[x.Var] = true
			}
			for _, ps := range x.Props {
				if ps.Mode == ast.PropBind {
					bound[ps.Var] = true
				}
			}
			bindNode(next)
			step(i+1, obs.OpExpand, expandStepLabel(x, next))
		case *ast.PathPattern:
			if x.Var != "" {
				bound[x.Var] = true
			}
			if x.CostVar != "" {
				bound[x.CostVar] = true
			}
			bindNode(next)
			step(i+1, obs.OpPath, pathStepLabel(x, next))
		}
	}
}

// seekKeys lists the property keys a chain's start scan may seek on:
// the `=` conjuncts its prefilter would consume (the evaluator's own
// gate walk), in WHERE order. It must run before the step claims its
// conjuncts.
func seekKeys(ab Ablation, np *ast.NodePattern, conjs []*conjunct) []string {
	if np.Var == "" {
		return nil
	}
	schema := appendBindVars([]string{np.Var}, np.Props)
	_, leaves := prefilterConjuncts(ab, np, np.Var, func(v string) bool { return slices.Contains(schema, v) }, conjs, shapeOnly)
	var keys []string
	for _, l := range leaves {
		if l.op == ast.OpEq {
			keys = append(keys, l.key)
		}
	}
	return keys
}

func pathStrategy(pp *ast.PathPattern) string {
	switch {
	case pp.Stored:
		if pp.Regex != nil {
			return "stored-path scan + conformance check"
		}
		return "stored-path scan"
	case pp.Mode == ast.PathAll:
		return "ALL-paths projection (product-graph summarisation)"
	case pp.Mode == ast.PathReach:
		return "reachability BFS (product automaton)"
	default:
		algo := "BFS"
		if pp.Regex != nil && len(pp.Regex.Views()) > 0 {
			algo = "Dijkstra over PATH-view segments"
		}
		if pp.K > 1 {
			return fmt.Sprintf("%d-shortest search (%s)", pp.K, algo)
		}
		return "shortest-path search (" + algo + ")"
	}
}

func explainConstruct(sb *strings.Builder, cc *ast.ConstructClause, indent string, bound map[string]bool, boundKnown bool, ann *planAnnotator) {
	fmt.Fprintf(sb, "%s%s%s\n", indent, constructLabel, ann.suffix(obs.OpConstruct, ""))
	for _, item := range cc.Items {
		if item.GraphName != "" {
			fmt.Fprintf(sb, "%s  graph union with %s\n", indent, item.GraphName)
			continue
		}
		gp := item.Pattern
		for _, np := range gp.Nodes {
			grouping := "by identity"
			switch {
			case np.Copy:
				grouping = "copy (fresh identity per group)"
			case len(np.Group) > 0:
				parts := make([]string, len(np.Group))
				for i, e := range np.Group {
					parts[i] = ast.ExprString(e)
				}
				grouping = "GROUP " + strings.Join(parts, ", ")
			case np.Var == "" || (boundKnown && !bound[np.Var]):
				grouping = "per binding (skolem)"
			case !boundKnown:
				grouping = "by identity if bound, else per binding"
			}
			fmt.Fprintf(sb, "%s  node %s  [%s]\n", indent, np.String(), grouping)
		}
		for _, link := range gp.Links {
			switch x := link.(type) {
			case *ast.EdgePattern:
				fmt.Fprintf(sb, "%s  edge %s  [grouped by endpoints]\n", indent, x.String())
			case *ast.PathPattern:
				kind := "path projection (constituents only)"
				if x.Stored {
					kind = "stored path"
				}
				fmt.Fprintf(sb, "%s  %s %s\n", indent, kind, x.String())
			}
		}
		if item.When != nil {
			fmt.Fprintf(sb, "%s  WHEN %s  [per-object filter, dangling-safe rebuild]\n", indent, ast.ExprString(item.When))
		}
	}
}
