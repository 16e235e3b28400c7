package core

import (
	"math"
	"slices"
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/gov"
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
	tbl, names, err := c.evalGraphPattern(s, walk, g)
	if err != nil {
		return nil, err
	}
	for _, extra := range pc.Patterns[1:] {
		t, _, err := c.evalGraphPattern(s, extra, g)
		if err != nil {
			return nil, err
		}
		tbl = bindings.Join(tbl, t)
	}
	env := c.newEnv(s, []*ppg.Graph{g}, g)
	if pc.Where != nil {
		if tbl, err = c.filter(env, []*conjunct{{cexpr: c.expr(pc.Where)}}, tbl); err != nil {
			return nil, err
		}
	}
	env.setTable(tbl)
	row := func(name string) value.Value {
		v, _ := env.lookup(name)
		return v
	}
	out := map[ppg.NodeID][]rpq.Segment{}
	for ri := 0; ri < tbl.Len(); ri++ {
		env.rowIdx = ri
		from, ok := nodeOf(row(names.node[0]))
		if !ok {
			continue
		}
		to, ok := nodeOf(row(names.node[len(names.node)-1]))
		if !ok {
			continue
		}
		cost := 1.0
		if pc.Cost != nil {
			v, err := c.expr(pc.Cost).eval(env)
			if err != nil {
				return nil, err
			}
			f, ok := v.Scalarize().AsFloat()
			if !ok {
				return nil, errf("PATH %s: COST must be numerical, got %s", pc.Name, v.Kind())
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, errf("PATH %s: COST must be a finite number, got %g", pc.Name, f)
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
				ev := row(names.link[i])
				if ev.Kind() != value.KindEdge {
					valid = false
					break
				}
				id, _ := ev.RefID()
				seg.Edges = append(seg.Edges, ppg.EdgeID(id))
			case *ast.PathPattern:
				pv := row(names.link[i])
				if pv.Kind() != value.KindPath {
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
			nid, ok := nodeOf(row(names.node[i+1]))
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
	if tp := c.tempPathOf(ref); tp != nil {
		p, err := tp.walk()
		if err != nil {
			return nil, nil, false
		}
		return p.Nodes, p.Edges, true
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
// singleton so the NFA cache (keyed by regex pointer)
// hits for every bare path pattern.
var anyStarRegex = &ast.Regex{Op: ast.RxStar, Subs: []*ast.Regex{{Op: ast.RxAnyEdge}}}

func defaultRegex() *ast.Regex { return anyStarRegex }

// compiledNFA compiles a regular path expression — reversed first when
// the pattern is traversed against the arrow — memoising it in the
// statement's cache entry. NFAs are read-only after compilation and
// independent of graph state, so every later use — in this execution
// or another of the entry — is sound.
func (c *evalCtx) compiledNFA(rx *ast.Regex, reversed bool) (*rpq.NFA, error) {
	key := nfaKey{rx: rx, reversed: reversed}
	if n, ok := c.cached.nfa(key); ok {
		c.col.NFAEvent(true)
		return n, nil
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
	c.cached.storeNFA(key, n)
	return n, nil
}

// searchKey identifies one product search: a source node and the
// automaton index (orientation) it ran under.
type searchKey struct {
	src ppg.NodeID
	ni  int
}

// searches memoises the product searches of one path step per
// (source, automaton): many rows share a source.
type searches struct {
	eng   *rpq.Engine
	nfas  []*rpq.NFA
	k     int
	reach map[searchKey][]ppg.NodeID
	short map[searchKey]*rpq.Shortest
	all   map[searchKey]*rpq.AllPaths
}

func (sc *searches) runReach(key searchKey) ([]ppg.NodeID, error) {
	return sc.eng.Reachable(key.src, sc.nfas[key.ni])
}

func (sc *searches) runShortest(key searchKey) (*rpq.Shortest, error) {
	return sc.eng.ShortestPaths(key.src, sc.nfas[key.ni], sc.k)
}

func (sc *searches) runAll(key searchKey) (*rpq.AllPaths, error) {
	return sc.eng.AllPaths(key.src, sc.nfas[key.ni])
}

// memo returns the search of key from cache, running it on a miss.
func memo[T any](cache map[searchKey]T, key searchKey, run func(searchKey) (T, error)) (T, error) {
	r, ok := cache[key]
	if !ok {
		var err error
		if r, err = run(key); err != nil {
			return r, rpqErr(err)
		}
		cache[key] = r
	}
	return r, nil
}

// extendPath extends every row of tbl over one path pattern to the next
// node pattern, on slot rows like extendEdge. Every destination meets
// the destination gate before anything per destination is built, and a
// k-shortest walk binds the path variable to a tempPath over its
// search result — built only if something dereferences it. Per input
// row, rows come out destination by destination, ascending, and a
// destination's walks cheapest first; fresh path identifiers are drawn
// in that order, one per walk examined, whether or not its destination
// passes the gate, so identifiers do not depend on what the gate drops.
func (c *evalCtx) extendPath(s *scope, g *ppg.Graph, tbl *bindings.Table, leftVar string, pp *ast.PathPattern, pathVar string, rightNp *ast.NodePattern, rightVar string, conjs []*conjunct) (*bindings.Table, error) {
	vars := append(tbl.Vars(), rightVar)
	if pp.Stored || pp.Mode != ast.PathReach {
		vars = append(vars, pathVar)
	}
	if pp.CostVar != "" {
		vars = append(vars, pp.CostVar)
	}
	var linkProps []*ast.PropSpec
	if pp.Stored {
		linkProps = pp.Props
	}
	vars = appendBindVars(appendBindVars(vars, linkProps), rightNp.Props)
	out := bindings.EmptyTable(vars...)
	snap := csr.Of(g)
	ex := newExtendPlan(tbl, out, leftVar, pathVar, rightVar, linkProps, rightNp)
	ps := &pathStep{
		destGate: c.newDestGate(g, snap, ex, out, rightNp, rightVar, conjs, nil),
		pp:       pp,
		costOut:  -1,
		out:      out,
		scratch:  make([]value.Value, out.Width()),
	}
	if pp.CostVar != "" {
		ps.costOut = out.SlotOf(pp.CostVar)
	}

	var (
		sc        *searches
		storedNFA *rpq.NFA
	)
	if pp.Stored {
		if pp.Regex != nil {
			n, err := c.compiledNFA(pp.Regex, false)
			if err != nil {
				return nil, err
			}
			storedNFA = n
		}
	} else {
		var err error
		if sc, err = c.pathSearches(s, g, snap, pp); err != nil {
			return nil, err
		}
		for _, n := range sc.nfas {
			ps.hasViews = ps.hasViews || n.HasViews()
		}
	}

	for ri := 0; ri < tbl.Len(); ri++ {
		if err := c.gov.Checkpoint(faultinject.SiteCorePath); err != nil {
			return nil, err
		}
		if err := c.checkBudget(out); err != nil {
			return nil, err
		}
		row := tbl.RowAt(ri)
		src, ok := nodeOf(ex.left(row))
		if !ok {
			continue
		}
		var err error
		switch {
		case pp.Stored:
			err = ps.storedRows(row, src, storedNFA)
		case pp.Mode == ast.PathReach:
			err = ps.reachRows(sc, row, src)
		case pp.Mode == ast.PathShortest:
			err = ps.shortestRows(sc, row, src)
		default:
			err = ps.allRows(sc, row, src)
		}
		if err != nil {
			return nil, err
		}
	}
	c.col.PropColEvent(ps.colHits, 0)
	return out, nil
}

// pathSearches compiles a computed path pattern's automata — one per
// orientation, two for an undirected pattern — and the engine its
// searches run on.
func (c *evalCtx) pathSearches(s *scope, g *ppg.Graph, snap *csr.Snapshot, pp *ast.PathPattern) (*searches, error) {
	rx := pp.Regex
	if rx == nil {
		rx = defaultRegex()
	}
	var orients []bool // reversed, per automaton
	switch pp.Dir {
	case ast.DirOut:
		orients = []bool{false}
	case ast.DirIn:
		orients = []bool{true}
	case ast.DirBoth:
		orients = []bool{false, true}
	}
	sc := &searches{
		k:     pp.K,
		reach: map[searchKey][]ppg.NodeID{},
		short: map[searchKey]*rpq.Shortest{},
		all:   map[searchKey]*rpq.AllPaths{},
	}
	for _, rev := range orients {
		n, err := c.compiledNFA(rx, rev)
		if err != nil {
			return nil, err
		}
		sc.nfas = append(sc.nfas, n)
	}
	sc.eng = rpq.NewEngineOn(g, snap, &viewAdapter{c: c, s: s, g: g})
	sc.eng.Attach(c.gov, c.col)
	return sc, nil
}

// appendBindVars appends the variables a pattern element's {k = v}
// entries bind.
func appendBindVars(vars []string, specs []*ast.PropSpec) []string {
	for _, ps := range specs {
		if ps.Mode == ast.PropBind {
			vars = append(vars, ps.Var)
		}
	}
	return vars
}

// pathStep is the state of one extendPath call: the slot plan, the
// destination gate, and the scratch the rows are built in.
type pathStep struct {
	destGate
	pp       *ast.PathPattern
	colHits  int64 // the gate's column tests, for the prop-column counters
	costOut  int   // output slot of the COST variable, -1 without one
	hasViews bool  // COST binds the summed view cost, not the hop count

	out     *bindings.Table // the rows go straight in
	scratch []value.Value
	combos  []propCombo
	cands   []walkRef  // k-shortest candidates of one destination
	taken   []walkRef  // the distinct ones among them
	tps     []tempPath // the slab the step's walks are cut from
}

// emit appends the rows of one destination u that passed the gate: the
// input row extended by link (the path reference; Absent for a
// reachability test), the destination, cost unless Absent, and one row
// per combination of the destination's {k = v} bindings.
func (ps *pathStep) emit(row []value.Value, link value.Value, u int32, cost value.Value) {
	ps.combos = ps.ex.fill(ps.scratch, row, link, uint64(ps.snap.NodeID(u)), nil, ps.snap.Node(u).Props, ps.combos)
	if ps.costOut >= 0 && !cost.IsAbsent() {
		ps.scratch[ps.costOut] = cost
	}
	appendCombos(ps.out, ps.scratch, ps.combos)
}

// grow makes room in the output for one row per destination of a
// search. It does so only when the gate holds no WHERE conjunct: a
// conjunct may drop most destinations, while one that passes the
// labels alone usually gets a row.
func (ps *pathStep) grow(dsts int) {
	if len(ps.preds) == 0 {
		ps.out.Grow(dsts)
	}
}

// reachRows emits the reachability rows of one input row. The
// destinations are unioned over all automata (both orientations for an
// undirected pattern) first, so each (row, dst) appears once — Ω is a
// set.
func (ps *pathStep) reachRows(sc *searches, row []value.Value, src ppg.NodeID) error {
	dsts, err := memo(sc.reach, searchKey{src, 0}, sc.runReach)
	if err != nil {
		return err
	}
	if len(sc.nfas) == 2 {
		bwd, err := memo(sc.reach, searchKey{src, 1}, sc.runReach)
		if err != nil {
			return err
		}
		both := append(append(make([]ppg.NodeID, 0, len(dsts)+len(bwd)), dsts...), bwd...)
		slices.Sort(both)
		dsts = slices.Compact(both)
	}
	ps.grow(len(dsts))
	for _, dst := range dsts {
		u, ok := ps.snap.Ord(dst)
		if !ok {
			continue
		}
		pass, err := ps.pass(row, u, &ps.colHits)
		if err != nil {
			return err
		}
		if pass {
			ps.emit(row, value.Absent, u, value.Absent)
		}
	}
	return nil
}

// walkRef names one kept walk: the automaton (orientation) whose
// search found it and its accepted arrival there.
type walkRef struct {
	ni  int
	arr int32
}

// reversed reports whether automaton ni ran against the arrow: its
// walks are stored read backwards, from µ(x) to µ(y) along the arrow.
func (ps *pathStep) reversed(ni int) bool {
	return ps.pp.Dir == ast.DirIn || ps.pp.Dir == ast.DirBoth && ni == 1
}

// shortestRows emits the k-shortest rows of one input row: per
// destination, ascending, the k cheapest distinct walks over all
// automata.
func (ps *pathStep) shortestRows(sc *searches, row []value.Value, src ppg.NodeID) error {
	var res [2]*rpq.Shortest
	for ni := range sc.nfas {
		r, err := memo(sc.short, searchKey{src, ni}, sc.runShortest)
		if err != nil {
			return err
		}
		res[ni] = r
		ps.grow(r.Len())
	}
	var next [2]int // per automaton, its next destination
	for {
		u := int32(-1)
		for ni := range sc.nfas {
			if next[ni] < res[ni].Len() {
				if d, _ := res[ni].Dest(next[ni]); u < 0 || d < u {
					u = d
				}
			}
		}
		if u < 0 {
			return nil
		}
		var lists [2][]int32
		for ni := range sc.nfas {
			if next[ni] < res[ni].Len() {
				if d, _ := res[ni].Dest(next[ni]); d == u {
					lists[ni] = res[ni].Arrivals(next[ni])
					next[ni]++
				}
			}
		}
		if err := ps.destWalks(res, lists, row, u); err != nil {
			return err
		}
	}
}

// destWalks emits the rows of destination u from its candidate walks
// per automaton, each list cheapest first. The lists merge by (cost,
// hops), the first automaton's walk first among equals, and the first
// k distinct walks are taken: two orientations can find one walk (an
// empty or closed walk, read in the arrow's direction), which is kept
// once. Every candidate examined draws a path identifier.
func (ps *pathStep) destWalks(res [2]*rpq.Shortest, lists [2][]int32, row []value.Value, u int32) error {
	ps.cands = ps.cands[:0]
	a, b := lists[0], lists[1]
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && !walkBefore(res[1], b[0], res[0], a[0]) {
			ps.cands, a = append(ps.cands, walkRef{0, a[0]}), a[1:]
		} else {
			ps.cands, b = append(ps.cands, walkRef{1, b[0]}), b[1:]
		}
	}
	ps.taken = ps.taken[:0]
	pass := false
	for ci, cd := range ps.cands {
		if len(ps.taken) >= ps.pp.K {
			break
		}
		pid := ps.c.ev.cat.IDs().NextPath()
		if ci == 0 {
			var err error
			if pass, err = ps.pass(row, u, &ps.colHits); err != nil {
				return err
			}
		}
		if ps.seenWalk(res, cd) {
			continue
		}
		ps.taken = append(ps.taken, cd)
		if !pass {
			continue
		}
		r := res[cd.ni]
		tp := &cut(&ps.tps, 1)[0]
		*tp = tempPath{id: pid, snap: ps.snap, cost: r.Cost(cd.arr), length: r.Hops(cd.arr),
			res: r, arr: cd.arr, reversed: ps.reversed(cd.ni), col: ps.c.col}
		ps.c.tempPaths[pid] = tp
		cost := value.Int(int64(tp.length))
		if ps.hasViews {
			cost = value.Float(tp.cost)
		}
		ps.emit(row, value.PathRef(uint64(pid)), u, cost)
	}
	return nil
}

// walkBefore orders candidate walks by (cost, hops).
func walkBefore(r *rpq.Shortest, a int32, o *rpq.Shortest, b int32) bool {
	if r.Cost(a) != o.Cost(b) {
		return r.Cost(a) < o.Cost(b)
	}
	return r.Hops(a) < o.Hops(b)
}

// seenWalk reports whether cd spells, in the arrow's direction, a walk
// already taken. Walks of one search are distinct by construction, so
// only the other orientation's are compared — on their arrival chains.
func (ps *pathStep) seenWalk(res [2]*rpq.Shortest, cd walkRef) bool {
	for _, t := range ps.taken {
		if t.ni != cd.ni && res[cd.ni].SameWalk(cd.arr, res[t.ni], t.arr, ps.reversed(cd.ni) != ps.reversed(t.ni)) {
			return true
		}
	}
	return false
}

// allRows emits the ALL-paths rows of one input row: per automaton, one
// projection per destination under a fresh path identifier.
func (ps *pathStep) allRows(sc *searches, row []value.Value, src ppg.NodeID) error {
	for ni := range sc.nfas {
		ap, err := memo(sc.all, searchKey{src, ni}, sc.runAll)
		if err != nil {
			return err
		}
		for _, dst := range ap.Destinations() {
			u, ok := ps.snap.Ord(dst)
			if !ok {
				continue
			}
			pid := ps.c.ev.cat.IDs().NextPath()
			pass, err := ps.pass(row, u, &ps.colHits)
			if err != nil {
				return err
			}
			if !pass {
				continue
			}
			// Destinations are exactly the nodes Projection answers
			// for; only the ones past the gate pay its backward sweep.
			nodes, edges, _ := ap.Projection(dst)
			ps.c.tempPaths[pid] = &tempPath{id: pid, snap: ps.snap, projection: true, length: len(edges),
				path: &ppg.Path{ID: pid, Nodes: nodes, Edges: edges}}
			ps.emit(row, value.PathRef(uint64(pid)), u, value.Absent)
		}
	}
	return nil
}

// storedRows emits the rows of one input row over the stored paths of
// the graph (the @p case): every path matching the pattern's labels and
// property entries whose conforming orientation starts at the row's
// left node.
func (ps *pathStep) storedRows(row []value.Value, src ppg.NodeID, nfa *rpq.NFA) error {
	pp := ps.pp
	for _, pid := range ps.g.PathIDs() {
		p, _ := ps.g.Path(pid)
		if !labelSpecMatches(pp.Labels, p.Labels) {
			continue
		}
		if ok, err := ps.c.propsMatch(ps.g, p.Props, pp.Props); err != nil {
			return err
		} else if !ok {
			continue
		}
		ref := value.PathRef(uint64(pid))
		if !ps.ex.linkAgrees(row, ref) || len(p.Nodes) == 0 {
			continue
		}
		// Orientation: the pattern's left node must be one end.
		first, last := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
		orients := [2]bool{false, true}
		tries := orients[:]
		switch {
		case pp.Dir == ast.DirOut, pp.Dir == ast.DirBoth && first == last:
			tries = orients[:1]
		case pp.Dir == ast.DirIn:
			tries = orients[1:]
		}
		for _, rev := range tries {
			start, end := first, last
			if rev {
				start, end = last, first
			}
			if start != src || nfa != nil && !storedPathConforms(ps.g, p, nfa, rev) {
				continue
			}
			u, ok := ps.snap.Ord(end)
			if !ok {
				continue
			}
			ps.combos = ps.ex.fill(ps.scratch, row, ref, uint64(end), p.Props, ps.snap.Node(u).Props, ps.combos)
			if ps.costOut >= 0 {
				ps.scratch[ps.costOut] = value.Int(int64(p.Length()))
			}
			// The path's own {k = v} bindings expand first: a path
			// they drop entirely never reaches the gate.
			if !hasCombo(ps.scratch, ps.combos[:len(ps.ex.linkBind.specs)]) {
				continue
			}
			pass, err := ps.pass(row, u, &ps.colHits)
			if err != nil {
				return err
			}
			if pass {
				appendCombos(ps.out, ps.scratch, ps.combos)
			}
		}
	}
	return nil
}

// storedPathConforms checks δ(p) against a regular expression by
// simulating the automaton over the path's symbol word.
func storedPathConforms(g *ppg.Graph, p *ppg.Path, nfa *rpq.NFA, reversed bool) bool {
	nodes, edges := p.Nodes, p.Edges
	if reversed {
		nodes, edges = slices.Clone(nodes), slices.Clone(edges)
		slices.Reverse(nodes)
		slices.Reverse(edges)
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
