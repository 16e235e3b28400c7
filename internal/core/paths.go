package core

import (
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/faultinject"
	"gcore/internal/gov"
	"gcore/internal/par"
	"gcore/internal/ppg"
	"gcore/internal/rpq"
	"gcore/internal/value"
)

// rpqErr normalises an error from the path-search kernels: typed
// governance errors (cancellation, budgets, contained panics) pass
// through unchanged so callers can classify them; anything else
// becomes a plain evaluation error as before.
func rpqErr(err error) error {
	if _, ok := gov.AsQueryError(err); ok {
		return err
	}
	return errf("%v", err)
}

// Path pattern evaluation (§A.2): the four cases of a path pattern in
// MATCH position —
//
//	x  @w (in r)  y   stored paths: members of P, optionally checked
//	                  against a regular expression and label tests;
//	x   w in r    y   fresh paths: the (k-)shortest conforming paths,
//	                  bound under fresh path identifiers;
//	x     in r    y   pure reachability;
//	ALL w in r        every conforming path, summarised as a graph
//	                  projection (only usable for construction).

// viewAdapter implements rpq.ViewResolver over the PATH clauses in
// scope, materialising each view's segment relation on first use per
// graph.
type viewAdapter struct {
	c     *evalCtx
	s     *scope
	g     *ppg.Graph
	cache map[string]map[ppg.NodeID][]rpq.Segment
}

func (va *viewAdapter) Segments(name string, from ppg.NodeID) ([]rpq.Segment, error) {
	if va.cache == nil {
		va.cache = map[string]map[ppg.NodeID][]rpq.Segment{}
	}
	byFrom, ok := va.cache[name]
	if !ok {
		pc, found := va.s.lookupPath(name)
		if !found {
			return nil, errf("unknown PATH view %q", name)
		}
		var err error
		byFrom, err = va.c.materializePathView(va.s, pc, va.g)
		if err != nil {
			return nil, err
		}
		va.cache[name] = byFrom
	}
	return byFrom[from], nil
}

// materializePathView evaluates a PATH clause on g, yielding the
// weighted segment relation (§A.4). The first graph pattern's first
// and last nodes are the segment endpoints; additional comma-separated
// patterns join context usable in WHERE and COST (footnote 3: this is
// strictly more powerful than existential filters because the joined
// variables can appear in the COST expression).
func (c *evalCtx) materializePathView(s *scope, pc *ast.PathClause, g *ppg.Graph) (map[ppg.NodeID][]rpq.Segment, error) {
	// The view's own chains record one level down: their spans belong
	// to the view materialisation, not to the enclosing query's plan.
	c.col.EnterSub()
	defer c.col.ExitSub()
	walk := pc.Patterns[0]
	names := c.patternVarNames(walk)

	tbl, err := c.evalGraphPattern(s, walk, g)
	if err != nil {
		return nil, err
	}
	for _, extra := range pc.Patterns[1:] {
		t, err := c.evalGraphPattern(s, extra, g)
		if err != nil {
			return nil, err
		}
		tbl = bindings.Join(tbl, t)
	}
	env := c.newEnv(s, []*ppg.Graph{g}, g)
	if pc.Where != nil {
		tbl, err = tbl.Filter(func(b bindings.Binding) (bool, error) {
			env.row = b
			v, err := env.eval(pc.Where)
			if err != nil {
				return false, err
			}
			return value.Truth(v)
		})
		if err != nil {
			return nil, err
		}
	}
	out := map[ppg.NodeID][]rpq.Segment{}
	for _, row := range tbl.Rows() {
		from, ok := nodeOf(row[names.node[0]])
		if !ok {
			continue
		}
		to, ok := nodeOf(row[names.node[len(names.node)-1]])
		if !ok {
			continue
		}
		cost := 1.0
		if pc.Cost != nil {
			env.row = row
			v, err := env.eval(pc.Cost)
			if err != nil {
				return nil, err
			}
			f, ok := v.Scalarize().AsFloat()
			if !ok {
				return nil, errf("PATH %s: COST must be numerical, got %s", pc.Name, v.Kind())
			}
			if f <= 0 {
				return nil, errf("PATH %s: COST must be larger than zero, got %g", pc.Name, f)
			}
			cost = f
		}
		seg := rpq.Segment{From: from, To: to, Cost: cost}
		// Expansion: walk the first pattern's chain.
		seg.Nodes = append(seg.Nodes, from)
		valid := true
		for i := range walk.Links {
			switch walk.Links[i].(type) {
			case *ast.EdgePattern:
				ev, ok := row[names.link[i]]
				if !ok || ev.Kind() != value.KindEdge {
					valid = false
					break
				}
				id, _ := ev.RefID()
				seg.Edges = append(seg.Edges, ppg.EdgeID(id))
			case *ast.PathPattern:
				pv, ok := row[names.link[i]]
				if !ok || pv.Kind() != value.KindPath {
					valid = false
					break
				}
				nodes, edges, ok := c.pathElements(g, pv)
				if !ok {
					valid = false
					break
				}
				seg.Edges = append(seg.Edges, edges...)
				// Interior nodes of the sub-path.
				for _, n := range nodes[1 : len(nodes)-1] {
					seg.Nodes = append(seg.Nodes, n)
				}
			}
			nid, ok := nodeOf(row[names.node[i+1]])
			if !ok {
				valid = false
				break
			}
			seg.Nodes = append(seg.Nodes, nid)
		}
		if !valid {
			return nil, errf("PATH %s: could not reconstruct the walk expansion", pc.Name)
		}
		out[from] = append(out[from], seg)
	}
	for from := range out {
		segs := out[from]
		sort.SliceStable(segs, func(i, j int) bool {
			if segs[i].To != segs[j].To {
				return segs[i].To < segs[j].To
			}
			return segs[i].Cost < segs[j].Cost
		})
	}
	return out, nil
}

// pathElements resolves a path reference to its node and edge lists,
// looking at stored paths of g and at computed temp paths.
func (c *evalCtx) pathElements(g *ppg.Graph, ref value.Value) ([]ppg.NodeID, []ppg.EdgeID, bool) {
	id, ok := ref.RefID()
	if !ok {
		return nil, nil, false
	}
	if p, ok := g.Path(ppg.PathID(id)); ok {
		return p.Nodes, p.Edges, true
	}
	if tp, ok := c.tempPaths[ppg.PathID(id)]; ok {
		return tp.path.Nodes, tp.path.Edges, true
	}
	return nil, nil, false
}

// reverseRegex mirrors a regular path expression so that a pattern
// read right-to-left ((a)<-/r/-(b)) can be evaluated left-to-right:
// concatenations flip and edge atoms invert. View references cannot
// be reversed (their cost relation is directional).
func reverseRegex(rx *ast.Regex) (*ast.Regex, error) {
	switch rx.Op {
	case ast.RxEps, ast.RxNodeLabel:
		return rx, nil
	case ast.RxAnyEdge:
		return &ast.Regex{Op: ast.RxAnyInv}, nil
	case ast.RxAnyInv:
		return &ast.Regex{Op: ast.RxAnyEdge}, nil
	case ast.RxLabel:
		return &ast.Regex{Op: ast.RxInvLabel, Label: rx.Label}, nil
	case ast.RxInvLabel:
		return &ast.Regex{Op: ast.RxLabel, Label: rx.Label}, nil
	case ast.RxView:
		return nil, errf("path view ~%s cannot be traversed right-to-left; write the pattern in the view's direction", rx.Label)
	case ast.RxConcat:
		subs := make([]*ast.Regex, len(rx.Subs))
		for i, sub := range rx.Subs {
			r, err := reverseRegex(sub)
			if err != nil {
				return nil, err
			}
			subs[len(rx.Subs)-1-i] = r
		}
		return &ast.Regex{Op: ast.RxConcat, Subs: subs}, nil
	case ast.RxAlt, ast.RxStar, ast.RxPlus, ast.RxOpt:
		subs := make([]*ast.Regex, len(rx.Subs))
		for i, sub := range rx.Subs {
			r, err := reverseRegex(sub)
			if err != nil {
				return nil, err
			}
			subs[i] = r
		}
		return &ast.Regex{Op: rx.Op, Subs: subs}, nil
	}
	return nil, errf("cannot reverse regex op %d", rx.Op)
}

// anyStarRegex is the expression used when a path pattern omits the
// angle brackets: any-edge Kleene star. It is a shared immutable
// singleton so the per-statement NFA cache (keyed by regex pointer)
// hits for every bare path pattern.
var anyStarRegex = &ast.Regex{Op: ast.RxStar, Subs: []*ast.Regex{{Op: ast.RxAnyEdge}}}

func defaultRegex() *ast.Regex { return anyStarRegex }

// compiledNFA compiles a regular path expression — reversed first when
// the pattern is traversed against the arrow — memoising per statement
// in the evalCtx cache.
func (c *evalCtx) compiledNFA(rx *ast.Regex, reversed bool) (*rpq.NFA, error) {
	key := nfaKey{rx: rx, reversed: reversed}
	if n, ok := c.nfaCache[key]; ok {
		c.col.NFAEvent(true)
		return n, nil
	}
	// Automata compiled by earlier executions of a cached statement
	// survive in its plan-cache entry; NFAs are read-only after
	// compilation and independent of graph state, so cross-statement
	// reuse is always sound.
	if c.cached != nil {
		if n, ok := c.cached.nfa(key); ok {
			c.col.NFAEvent(true)
			c.nfaCache[key] = n
			return n, nil
		}
	}
	c.col.NFAEvent(false)
	use := rx
	if reversed {
		var err error
		use, err = reverseRegex(rx)
		if err != nil {
			return nil, err
		}
	}
	n, err := rpq.Compile(use)
	if err != nil {
		return nil, errf("%v", err)
	}
	c.nfaCache[key] = n
	if c.cached != nil {
		c.cached.storeNFA(key, n)
	}
	return n, nil
}

// searchKey identifies one product search: a source node and the
// automaton index (orientation) it ran under.
type searchKey struct {
	src ppg.NodeID
	ni  int
}

// prefillSearches runs the path searches needed by extendPath's row
// loop concurrently, filling the given caches. Jobs are the distinct
// (source, automaton) pairs in the order the sequential loop first
// meets them; errors surface for the lowest-ordered failing job, so
// the reported error matches sequential evaluation.
func (c *evalCtx) prefillSearches(eng *rpq.Engine, tbl *bindings.Table, leftVar string, pp *ast.PathPattern, nfas []*rpq.NFA,
	shortCache map[searchKey]map[ppg.NodeID][]rpq.PathResult, reachCache map[searchKey][]ppg.NodeID, allCache map[searchKey]*rpq.AllPaths) error {
	var srcs []ppg.NodeID
	seen := map[ppg.NodeID]bool{}
	for _, row := range tbl.Rows() {
		if s, ok := nodeOf(row[leftVar]); ok && !seen[s] {
			seen[s] = true
			srcs = append(srcs, s)
		}
	}
	jobs := make([]searchKey, 0, len(srcs)*len(nfas))
	for _, src := range srcs {
		for ni := range nfas {
			jobs = append(jobs, searchKey{src, ni})
		}
	}
	workers := par.Workers(c.ev.workers)
	if workers <= 1 || len(jobs) < 2 {
		return nil // the row loop searches lazily, as before
	}
	switch pp.Mode {
	case ast.PathReach:
		results := make([][]ppg.NodeID, len(jobs))
		err := par.ForEachIdx(c.gov.Context(), len(jobs), workers, func(i int) error {
			r, err := eng.Reachable(jobs[i].src, nfas[jobs[i].ni])
			results[i] = r
			return err
		})
		if err != nil {
			return rpqErr(err)
		}
		for i, job := range jobs {
			reachCache[job] = results[i]
		}
	case ast.PathShortest:
		results := make([]map[ppg.NodeID][]rpq.PathResult, len(jobs))
		err := par.ForEachIdx(c.gov.Context(), len(jobs), workers, func(i int) error {
			r, err := eng.ShortestPaths(jobs[i].src, nfas[jobs[i].ni], pp.K)
			results[i] = r
			return err
		})
		if err != nil {
			return rpqErr(err)
		}
		for i, job := range jobs {
			shortCache[job] = results[i]
		}
	case ast.PathAll:
		results := make([]*rpq.AllPaths, len(jobs))
		err := par.ForEachIdx(c.gov.Context(), len(jobs), workers, func(i int) error {
			r, err := eng.AllPaths(jobs[i].src, nfas[jobs[i].ni])
			results[i] = r
			return err
		})
		if err != nil {
			return rpqErr(err)
		}
		for i, job := range jobs {
			allCache[job] = results[i]
		}
	}
	return nil
}

// extendPath extends every row of tbl over one path pattern.
func (c *evalCtx) extendPath(s *scope, g *ppg.Graph, tbl *bindings.Table, leftVar string, pp *ast.PathPattern, pathVar string, rightNp *ast.NodePattern, rightVar string) (*bindings.Table, error) {
	if pp.Stored {
		return c.extendStoredPath(g, tbl, leftVar, pp, pathVar, rightNp, rightVar)
	}
	// Computed path: build the (direction-adjusted) automata.
	rx := pp.Regex
	if rx == nil {
		rx = defaultRegex()
	}
	var nfas []*rpq.NFA
	switch pp.Dir {
	case ast.DirOut:
		n, err := c.compiledNFA(rx, false)
		if err != nil {
			return nil, err
		}
		nfas = []*rpq.NFA{n}
	case ast.DirIn:
		n, err := c.compiledNFA(rx, true)
		if err != nil {
			return nil, err
		}
		nfas = []*rpq.NFA{n}
	case ast.DirBoth:
		fwd, err := c.compiledNFA(rx, false)
		if err != nil {
			return nil, err
		}
		bwd, err := c.compiledNFA(rx, true)
		if err != nil {
			return nil, err
		}
		nfas = []*rpq.NFA{fwd, bwd}
	}
	views := &viewAdapter{c: c, s: s, g: g}
	snap, _ := c.ev.snapshot(g)
	eng := rpq.NewEngineOn(g, snap, views)
	eng.SetGovernor(c.gov)
	eng.SetCollector(c.col)

	vars := append(tbl.Vars(), rightVar)
	if pp.Mode != ast.PathReach {
		vars = append(vars, pathVar)
	}
	if pp.CostVar != "" {
		vars = append(vars, pp.CostVar)
	}
	out := bindings.EmptyTable(vars...)

	// Cache searches per source node: many rows share a source.
	shortCache := map[searchKey]map[ppg.NodeID][]rpq.PathResult{}
	reachCache := map[searchKey][]ppg.NodeID{}
	allCache := map[searchKey]*rpq.AllPaths{}

	hasViews := false
	for _, n := range nfas {
		if n.HasViews() {
			hasViews = true
		}
	}

	// Parallel prefill: the per-source product searches dominate path
	// pattern cost and are pure graph reads, so they run concurrently
	// — one job per (distinct source, automaton), ordered exactly as
	// the sequential row loop would first encounter them — and land in
	// the caches before the (sequential, deterministic) emit loop
	// below. View-backed automata materialise PATH views through the
	// evaluator context and stay sequential.
	if !hasViews {
		if err := c.prefillSearches(eng, tbl, leftVar, pp, nfas, shortCache, reachCache, allCache); err != nil {
			return nil, err
		}
	}

	for _, row := range tbl.Rows() {
		if err := c.gov.Checkpoint(faultinject.SiteCorePath); err != nil {
			return nil, err
		}
		if err := c.checkBudget(out); err != nil {
			return nil, err
		}
		src, ok := nodeOf(row[leftVar])
		if !ok {
			continue
		}
		if pp.Mode == ast.PathReach {
			// Reachability: union the destinations over all automata
			// (both orientations for an undirected pattern) before
			// emitting, so each (row, dst) appears once — Ω is a set.
			dstSet := map[ppg.NodeID]bool{}
			for ni, nfa := range nfas {
				key := searchKey{src, ni}
				dsts, ok := reachCache[key]
				if !ok {
					var err error
					dsts, err = eng.Reachable(src, nfa)
					if err != nil {
						return nil, rpqErr(err)
					}
					reachCache[key] = dsts
				}
				for _, d := range dsts {
					dstSet[d] = true
				}
			}
			ordered := make([]ppg.NodeID, 0, len(dstSet))
			for d := range dstSet {
				ordered = append(ordered, d)
			}
			sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
			for _, dst := range ordered {
				if err := c.emitPathRow(g, out, row, rightNp, rightVar, dst, nil); err != nil {
					return nil, err
				}
			}
			continue
		}
		if pp.Mode == ast.PathShortest {
			// Gather candidates from every automaton (one per
			// orientation for undirected patterns), keep the k
			// cheapest distinct walks per destination.
			type cand struct {
				pr  rpq.PathResult
				rev bool
			}
			byDst := map[ppg.NodeID][]cand{}
			for ni, nfa := range nfas {
				key := searchKey{src, ni}
				res, ok := shortCache[key]
				if !ok {
					var err error
					res, err = eng.ShortestPaths(src, nfa, pp.K)
					if err != nil {
						return nil, rpqErr(err)
					}
					shortCache[key] = res
				}
				rev := pp.Dir == ast.DirIn || (pp.Dir == ast.DirBoth && ni == 1)
				for d, prs := range res {
					for _, pr := range prs {
						byDst[d] = append(byDst[d], cand{pr: pr, rev: rev})
					}
				}
			}
			dsts := make([]ppg.NodeID, 0, len(byDst))
			for d := range byDst {
				dsts = append(dsts, d)
			}
			sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
			for _, dst := range dsts {
				cands := byDst[dst]
				sort.SliceStable(cands, func(i, j int) bool {
					if cands[i].pr.Cost != cands[j].pr.Cost {
						return cands[i].pr.Cost < cands[j].pr.Cost
					}
					return cands[i].pr.Hops < cands[j].pr.Hops
				})
				taken := 0
				seenWalks := map[rpq.WalkSig]bool{}
				for _, cd := range cands {
					if taken >= pp.K {
						break
					}
					pid := c.ev.cat.IDs().NextPath()
					path := &ppg.Path{ID: pid, Nodes: cd.pr.Nodes, Edges: cd.pr.Edges}
					if cd.rev {
						// The search ran against the arrow (from the
						// pattern's left node with a reversed regex);
						// store δ(w) in the arrow's direction, from
						// µ(x) to µ(y).
						path = reversePath(path)
					}
					sig := walkSignature(path)
					if seenWalks[sig] {
						continue
					}
					seenWalks[sig] = true
					taken++
					c.tempPaths[pid] = &tempPath{path: path, src: g, cost: cd.pr.Cost}
					extra := bindings.Binding{pathVar: value.PathRef(uint64(pid))}
					if pp.CostVar != "" {
						if hasViews {
							extra[pp.CostVar] = value.Float(cd.pr.Cost)
						} else {
							extra[pp.CostVar] = value.Int(int64(cd.pr.Hops))
						}
					}
					if err := c.emitPathRow(g, out, row, rightNp, rightVar, dst, extra); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		for ni, nfa := range nfas {
			key := searchKey{src, ni}
			switch pp.Mode {
			case ast.PathAll:
				ap, ok := allCache[key]
				if !ok {
					var err error
					ap, err = eng.AllPaths(src, nfa)
					if err != nil {
						return nil, rpqErr(err)
					}
					allCache[key] = ap
				}
				for _, dst := range ap.Destinations() {
					nodes, edges, ok := ap.Projection(dst)
					if !ok {
						continue
					}
					pid := c.ev.cat.IDs().NextPath()
					c.tempPaths[pid] = &tempPath{
						path:       &ppg.Path{ID: pid, Nodes: nodes, Edges: edges},
						src:        g,
						projection: true,
					}
					extra := bindings.Binding{pathVar: value.PathRef(uint64(pid))}
					if err := c.emitPathRow(g, out, row, rightNp, rightVar, dst, extra); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return out, nil
}

// walkSignature identifies a walk by its oriented node/edge sequence
// so that equal walks found via different orientations collapse.
func walkSignature(p *ppg.Path) rpq.WalkSig {
	return rpq.SignatureOf(p.Nodes, p.Edges)
}

func reversePath(p *ppg.Path) *ppg.Path {
	rn := make([]ppg.NodeID, len(p.Nodes))
	for i, n := range p.Nodes {
		rn[len(p.Nodes)-1-i] = n
	}
	re := make([]ppg.EdgeID, len(p.Edges))
	for i, e := range p.Edges {
		re[len(p.Edges)-1-i] = e
	}
	return &ppg.Path{ID: p.ID, Nodes: rn, Edges: re}
}

// emitPathRow finishes one path-pattern match: checks and binds the
// right endpoint, merges extra bindings, and adds the row.
func (c *evalCtx) emitPathRow(g *ppg.Graph, out *bindings.Table, row bindings.Binding, rightNp *ast.NodePattern, rightVar string, dst ppg.NodeID, extra bindings.Binding) error {
	if prev, bound := row[rightVar]; bound {
		if pid, isNode := nodeOf(prev); !isNode || pid != dst {
			return nil
		}
	}
	dn, ok := g.Node(dst)
	if !ok {
		return nil
	}
	if ok, err := c.nodeMatches(g, dn, rightNp); err != nil || !ok {
		return err
	}
	base := row.Clone()
	base[rightVar] = value.NodeRef(uint64(dst))
	for k, v := range extra {
		base[k] = v
	}
	for _, r := range bindProps(dn.Props, rightNp.Props, base) {
		out.Add(r)
	}
	return nil
}

// extendStoredPath matches the stored paths of g (the @p case).
func (c *evalCtx) extendStoredPath(g *ppg.Graph, tbl *bindings.Table, leftVar string, pp *ast.PathPattern, pathVar string, rightNp *ast.NodePattern, rightVar string) (*bindings.Table, error) {
	vars := append(tbl.Vars(), pathVar, rightVar)
	if pp.CostVar != "" {
		vars = append(vars, pp.CostVar)
	}
	for _, ps := range pp.Props {
		if ps.Mode == ast.PropBind {
			vars = append(vars, ps.Var)
		}
	}
	out := bindings.EmptyTable(vars...)

	var nfa *rpq.NFA
	if pp.Regex != nil {
		n, err := c.compiledNFA(pp.Regex, false)
		if err != nil {
			return nil, err
		}
		nfa = n
	}
	for _, row := range tbl.Rows() {
		if err := c.gov.Checkpoint(faultinject.SiteCorePath); err != nil {
			return nil, err
		}
		if err := c.checkBudget(out); err != nil {
			return nil, err
		}
		src, ok := nodeOf(row[leftVar])
		if !ok {
			continue
		}
		for _, pid := range g.PathIDs() {
			p, _ := g.Path(pid)
			if !labelSpecMatches(pp.Labels, p.Labels) {
				continue
			}
			if ok, err := c.propsMatch(g, p.Props, pp.Props); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			if prev, bound := row[pathVar]; bound && !value.Equal(prev, value.PathRef(uint64(pid))) {
				continue
			}
			if len(p.Nodes) == 0 {
				continue
			}
			// Orientation: the pattern's left node must be one end.
			type orient struct {
				start, end ppg.NodeID
				rev        bool
			}
			var tries []orient
			first, last := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
			switch pp.Dir {
			case ast.DirOut:
				tries = []orient{{first, last, false}}
			case ast.DirIn:
				tries = []orient{{last, first, true}}
			case ast.DirBoth:
				tries = []orient{{first, last, false}}
				if first != last {
					tries = append(tries, orient{last, first, true})
				}
			}
			for _, o := range tries {
				if o.start != src {
					continue
				}
				if nfa != nil && !storedPathConforms(g, p, nfa, o.rev) {
					continue
				}
				extra := bindings.Binding{pathVar: value.PathRef(uint64(pid))}
				if pp.CostVar != "" {
					extra[pp.CostVar] = value.Int(int64(p.Length()))
				}
				base := row.Clone()
				for _, r := range bindProps(p.Props, pp.Props, base) {
					merged := r.Clone()
					for k, v := range extra {
						merged[k] = v
					}
					if err := c.emitPathRow(g, out, merged, rightNp, rightVar, o.end, nil); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return out, nil
}

// storedPathConforms checks δ(p) against a regular expression by
// simulating the automaton over the path's symbol word.
func storedPathConforms(g *ppg.Graph, p *ppg.Path, nfa *rpq.NFA, reversed bool) bool {
	nodes := p.Nodes
	edges := p.Edges
	if reversed {
		rp := reversePath(p)
		nodes, edges = rp.Nodes, rp.Edges
	}
	var word []rpq.Sym
	for i, nid := range nodes {
		n, ok := g.Node(nid)
		if !ok {
			return false
		}
		word = append(word, rpq.Sym{IsNode: true, Labels: n.Labels})
		if i < len(edges) {
			e, ok := g.Edge(edges[i])
			if !ok {
				return false
			}
			inv := !(e.Src == nid && e.Dst == nodes[i+1])
			word = append(word, rpq.Sym{Labels: e.Labels, Inverse: inv})
		}
	}
	return nfa.MatchesWord(word)
}
