package core

import (
	"fmt"
	"slices"
	"strconv"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// CONSTRUCT evaluation (§A.3). Each basic construct runs in phases:
//
//  1. node constructs, grouped — by identity for bound variables, by
//     the explicit GROUP set, or per binding for unbound variables
//     (skolem identifiers new(x, Ω′(Γ)));
//  2. relationship constructs (edges, then stored/projected paths) on
//     the node-extended bindings, so new edges connect new nodes and
//     no dangling edges can arise;
//  3. the WHEN condition, evaluated per constructed object over its
//     group (with access to freshly assigned properties), dropping
//     failing objects and anything that would dangle.
//
// Item graphs and named graphs in the construct list are combined
// with the identity-respecting graph union of §A.5.

func (c *evalCtx) evalConstruct(s *scope, cc *ast.ConstructClause, tbl *bindings.Table, graphs []*ppg.Graph) (*ppg.Graph, error) {
	result := ppg.New("")
	// Named graphs union in directly; all pattern items evaluate
	// together so that construct variables occurring in several
	// patterns denote the same identities ("Unbound variables in a
	// CONSTRUCT are useful if they occur multiple times in the
	// construct patterns, in order to ensure that the same identities
	// will be used", §3).
	var patterns []*ast.ConstructItem
	for _, item := range cc.Items {
		if item.GraphName != "" {
			g, err := c.resolveGraphName(s, item.GraphName)
			if err != nil {
				return nil, err
			}
			result = ppg.Union("", result, g)
			continue
		}
		patterns = append(patterns, item)
	}
	if len(patterns) > 0 {
		g, err := c.evalConstructItems(s, patterns, tbl, graphs)
		if err != nil {
			return nil, err
		}
		if result.IsEmpty() {
			return g, nil // freshly built and unshared: no copy needed
		}
		result = ppg.Union("", result, g)
	}
	return result, nil
}

// builtObj records one constructed object of an item with a WHEN.
type builtObj struct {
	sort varSort
	id   uint64
	rows []int // the group's rows of the match table
}

// assignments collected for one construct variable.
type assignSet struct {
	addLabels []string
	setItems  []*ast.SetItem
	removes   []*ast.RemoveItem
}

// itemCtx is the per-item evaluation state of one construct pattern.
type itemCtx struct {
	item    *ast.ConstructItem
	names   patternNames
	extra   map[string]*assignSet
	objects []*builtObj // only with a WHEN
}

// built records an object for the item's WHEN, if it has one.
func (ic *itemCtx) built(sort varSort, id uint64, rows []int) {
	if ic.item.When != nil {
		ic.objects = append(ic.objects, &builtObj{sort: sort, id: id, rows: rows})
	}
}

func (c *evalCtx) evalConstructItems(s *scope, items []*ast.ConstructItem, tbl *bindings.Table, graphs []*ppg.Graph) (*ppg.Graph, error) {
	b := newBuilder(c, graphs)
	defer b.release()
	// Phases 1–2 evaluate expressions on the match table.
	env := c.newEnv(s, graphs, nil)
	env.constructed = b
	env.groupSchema = tbl.Vars()
	env.setTable(tbl)

	ics := make([]*itemCtx, len(items))
	for i, item := range items {
		ic := &itemCtx{item: item, names: c.patternVarNames(item.Pattern), extra: map[string]*assignSet{}}
		getAssign := func(v string) *assignSet {
			a, ok := ic.extra[v]
			if !ok {
				a = &assignSet{}
				ic.extra[v] = a
			}
			return a
		}
		for _, si := range item.Sets {
			a := getAssign(si.Var)
			if si.Label != "" {
				a.addLabels = append(a.addLabels, si.Label)
			} else {
				a.setItems = append(a.setItems, si)
			}
		}
		for _, ri := range item.Removes {
			getAssign(ri.Var).removes = append(getAssign(ri.Var).removes, ri)
		}
		ics[i] = ic
	}

	// cons holds, row-aligned with tbl, the construct-variable
	// identities (node, edge and path) made for each row; it is shared
	// by all pattern items so repeated construct variables denote the
	// same identities. It is kept apart from tbl because a construct
	// variable may carry a match variable's name ((=n), [=e], bound (n)):
	// phases 1–2 read the matched value, WHEN the constructed one.
	var consVars []string
	for _, ic := range ics {
		consVars = append(append(consVars, ic.names.node...), ic.names.link...)
	}
	cons := bindings.Blank(tbl.Len(), consVars...)

	// ---- phase 1: node constructs across all items ----
	for _, ic := range ics {
		gp := ic.item.Pattern
		for ni, np := range gp.Nodes {
			varName := ic.names.node[ni]
			slot := cons.SlotOf(varName)
			if anyRowBinds(cons, slot) {
				continue // defined by an earlier occurrence: reference
			}
			groups, err := c.groupFor(env, tbl, np.Var, np.Group)
			if err != nil {
				return nil, err
			}
			for _, grp := range groups {
				if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
					return nil, err
				}
				rep := grp[0]
				var (
					id     ppg.NodeID
					src    *ppg.Node // the bound node, shared while unchanged
					ord    = int32(-1)
					labels = ppg.Labels{}
					props  ppg.Properties
				)
				bound := np.Var != "" && tbl.HasVar(np.Var)
				switch {
				case bound && !np.Copy:
					ref, ok := tbl.Value(rep, np.Var)
					if !ok {
						continue // Ω′(x) undefined → G∅ for this group
					}
					if ref.Kind() != value.KindNode {
						return nil, errf("construct variable %q must be a node, got %s", np.Var, ref.Kind())
					}
					nid, _ := ref.RefID()
					id = ppg.NodeID(nid)
					if src, ord = b.sourceNode(id); src != nil {
						labels, props = src.Labels, src.Props
					}
				case np.Copy:
					ref, ok := tbl.Value(rep, np.Var)
					if !ok {
						continue
					}
					// The copy form mints a fresh node copying λ and σ
					// from any element sort (§3: "copy all labels and
					// properties of a node to an edge (or a path) and
					// vice versa").
					srcLabels, srcProps, found := c.findElementData(graphs, ref)
					if !found {
						return nil, errf("copy form (=%s) needs a bound graph element", np.Var)
					}
					id = c.ev.cat.IDs().NextNode()
					labels, props = srcLabels, srcProps
				default:
					id = c.ev.cat.IDs().NextNode()
				}
				labels = addPatternLabels(labels, np.Labels)
				copied, err := c.applyAssignments(env, grp, &labels, &props, np.Props, ic.extra[varName])
				if err != nil {
					return nil, err
				}
				if err := c.gov.AddResults(1); err != nil {
					return nil, err
				}
				n := src
				if n == nil || copied || !labels.Equal(src.Labels) {
					n = &ppg.Node{ID: id, Labels: labels, Props: props}
				}
				b.addNode(n, ord, !bound || np.Copy)
				ic.built(sortNode, uint64(id), grp)
				for _, ri := range grp {
					cons.Set(ri, slot, value.NodeRef(uint64(id)))
				}
			}
		}
	}

	// ---- phase 2: relationship constructs across all items ----
	for _, ic := range ics {
		for li, link := range ic.item.Pattern.Links {
			switch ep := link.(type) {
			case *ast.EdgePattern:
				if err := c.constructEdge(env, b, ep, ic, li, tbl, cons); err != nil {
					return nil, err
				}
			case *ast.PathPattern:
				if err := c.constructPath(env, b, ep, ic, li, tbl, cons); err != nil {
					return nil, err
				}
			}
		}
	}

	// ---- phase 3: WHEN, per item, then one assembly ----
	var dropped map[objKey]bool
	for _, ic := range ics {
		if ic.item.When == nil {
			continue
		}
		if dropped == nil {
			dropped = map[objKey]bool{}
			env.setTable(tbl.Overlay(cons))
		}
		if err := c.whenDrops(env, ic.item.When, ic.objects, dropped); err != nil {
			return nil, err
		}
	}
	return b.graph(dropped)
}

// anyRowBinds reports whether some row of t binds slot.
func anyRowBinds(t *bindings.Table, slot int) bool {
	for i := 0; i < t.Len(); i++ {
		if !t.RowAt(i)[slot].IsAbsent() {
			return true
		}
	}
	return false
}

// groupFor computes grp(Ω, g) for a construct element over the rows
// of tbl, which must be env's table: identity grouping for bound
// variables (rows leaving the identity undefined are skipped),
// explicit GROUP expressions, or per-binding grouping for unbound
// variables.
func (c *evalCtx) groupFor(env *env, tbl *bindings.Table, varName string, groupExprs []ast.Expr) ([][]int, error) {
	switch {
	case len(groupExprs) > 0:
		keys := keyTable(tbl.Len(), len(groupExprs))
		exprs := c.exprs(groupExprs)
		for ri := 0; ri < tbl.Len(); ri++ {
			env.rowIdx = ri
			for k, ge := range exprs {
				v, err := ge.eval(env)
				if err != nil {
					return nil, err
				}
				keys.Set(ri, k, v)
			}
		}
		return orderedGroups(keys, false), nil
	case varName != "" && tbl.HasVar(varName):
		return orderedGroups(tbl.Project([]string{varName}), true), nil
	default:
		return orderedGroups(tbl, false), nil
	}
}

// keyTable returns n rows of width unbound key slots whose slot order
// is column order, for grouping and ordering rows by evaluated keys.
func keyTable(n, width int) *bindings.Table {
	vars := make([]string, width)
	digits := len(strconv.Itoa(width))
	for c := range vars {
		vars[c] = fmt.Sprintf("%0*d", digits, c)
	}
	return bindings.Blank(n, vars...)
}

// orderedGroups groups the rows of keys, a table row-aligned with the
// match table, by slot-wise equality and returns the groups ordered by
// CompareRows on their key rows, rows in input order within each. With
// skipUnbound, the rows whose first key slot is unbound belong to no
// group.
func orderedGroups(keys *bindings.Table, skipUnbound bool) [][]int {
	groups := keys.Groups()
	slices.SortFunc(groups, func(g, h []int) int {
		return bindings.CompareRows(keys.RowAt(g[0]), keys.RowAt(h[0]))
	})
	// Unbound sorts first: the skipped rows, all equal, lead.
	if skipUnbound && len(groups) > 0 && keys.RowAt(groups[0][0])[0].IsAbsent() {
		groups = groups[1:]
	}
	return groups
}

func addPatternLabels(ls ppg.Labels, spec ast.LabelSpec) ppg.Labels {
	for _, disj := range spec {
		for _, l := range disj {
			ls = ls.Add(l)
		}
	}
	return ls
}

// applyAssignments evaluates {k := e}, SET and REMOVE for one
// constructed object over its group (rows of env's table), with µ its
// first row. *labels and *props may belong to a graph element and are
// never written: labels change through Labels.Add and Remove, which
// copy, and *props is replaced by a copy before the first property
// write. It reports whether it made that copy.
func (c *evalCtx) applyAssignments(env *env, grpRows []int, labels *ppg.Labels, props *ppg.Properties, inline []*ast.PropSpec, a *assignSet) (bool, error) {
	env.groupRows, env.rowIdx = grpRows, grpRows[0]
	defer func() { env.groupRows = nil }()

	copied := len(inline) > 0 || a != nil && len(a.setItems)+len(a.removes) > 0
	if copied {
		*props = props.Clone()
	}
	p := *props
	evalTo := func(key string, e ast.Expr) error {
		v, err := c.expr(e).eval(env)
		if err != nil {
			return err
		}
		p.Set(key, v)
		return nil
	}
	for _, ps := range inline {
		switch ps.Mode {
		case ast.PropAssign:
			if err := evalTo(ps.Key, ps.Expr); err != nil {
				return copied, err
			}
		case ast.PropFilter:
			// {k = literal} in CONSTRUCT assigns the literal, matching
			// the paper's permissive use of = in construct maps.
			if err := evalTo(ps.Key, ps.Expr); err != nil {
				return copied, err
			}
		case ast.PropBind:
			// {k = v} with a variable: assign the variable's value.
			if v, ok := env.lookup(ps.Var); ok {
				p.Set(ps.Key, v)
			}
		}
	}
	if a != nil {
		for _, l := range a.addLabels {
			*labels = labels.Add(l)
		}
		for _, si := range a.setItems {
			if err := evalTo(si.Key, si.Expr); err != nil {
				return copied, err
			}
		}
		for _, ri := range a.removes {
			if ri.Key != "" {
				delete(p, ri.Key)
			}
			if ri.Label != "" {
				*labels = labels.Remove(ri.Label)
			}
		}
	}
	return copied, nil
}

// findElementData fetches λ and σ of any element reference — node,
// edge or (stored/computed) path — enabling the cross-sort copy forms
// of §3.
func (c *evalCtx) findElementData(graphs []*ppg.Graph, ref value.Value) (ppg.Labels, ppg.Properties, bool) {
	id, ok := ref.RefID()
	if !ok {
		return nil, nil, false
	}
	switch ref.Kind() {
	case value.KindNode:
		if n, _ := findNode(graphs, ppg.NodeID(id)); n != nil {
			return n.Labels, n.Props, true
		}
	case value.KindEdge:
		if e, _ := findEdge(graphs, ppg.EdgeID(id)); e != nil {
			return e.Labels, e.Props, true
		}
	case value.KindPath:
		for _, g := range graphs {
			if p, ok := g.Path(ppg.PathID(id)); ok {
				return p.Labels, p.Props, true
			}
		}
		if c.tempPathOf(ref) != nil {
			return nil, nil, true // computed paths carry no labels or properties
		}
	}
	return nil, nil, false
}

func findNode(graphs []*ppg.Graph, id ppg.NodeID) (*ppg.Node, *ppg.Graph) {
	for _, g := range graphs {
		if n, ok := g.Node(id); ok {
			return n, g
		}
	}
	return nil, nil
}

func findEdge(graphs []*ppg.Graph, id ppg.EdgeID) (*ppg.Edge, *ppg.Graph) {
	for _, g := range graphs {
		if e, ok := g.Edge(id); ok {
			return e, g
		}
	}
	return nil, nil
}

// constructEdge builds the edges of one edge pattern.
func (c *evalCtx) constructEdge(env *env, b *builder, ep *ast.EdgePattern, ic *itemCtx, li int, tbl, cons *bindings.Table) error {
	if ep.Dir == ast.DirBoth {
		return errf("constructed edges need a direction: use -[...]-> or <-[...]-")
	}
	leftVar, rightVar := ic.names.node[li], ic.names.node[li+1]
	edgeVar := ic.names.link[li]
	bound := ep.Var != "" && tbl.HasVar(ep.Var) && !ep.Copy

	// Group: bound edges by identity; otherwise by the constructed
	// endpoint pair (which subsumes Γx ∪ Γy ∪ {x,y}) plus explicit
	// GROUP expressions. A row missing an endpoint keeps an unbound key
	// and builds no edge (dangling prevention).
	var keys *bindings.Table
	if bound {
		keys = tbl.Project([]string{ep.Var})
	} else {
		keys = keyTable(tbl.Len(), 2+len(ep.Group))
		group := c.exprs(ep.Group)
		ls, rs := cons.SlotOf(leftVar), cons.SlotOf(rightVar)
		for ri := 0; ri < tbl.Len(); ri++ {
			sv, dv := cons.RowAt(ri)[ls], cons.RowAt(ri)[rs]
			if sv.IsAbsent() || dv.IsAbsent() {
				continue
			}
			keys.Set(ri, 0, sv)
			keys.Set(ri, 1, dv)
			env.rowIdx = ri
			for k, ge := range group {
				v, err := ge.eval(env)
				if err != nil {
					return err
				}
				keys.Set(ri, 2+k, v)
			}
		}
	}

	slot := cons.SlotOf(edgeVar)
	for _, grp := range orderedGroups(keys, true) {
		if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
			return err
		}
		rep := grp[0]
		// Both endpoints were entered in phase 1, which set exactly the
		// construct identities cons holds.
		sv, ok1 := cons.Value(rep, leftVar)
		dv, ok2 := cons.Value(rep, rightVar)
		if !ok1 || !ok2 {
			continue
		}
		sid, _ := sv.RefID()
		did, _ := dv.RefID()
		src, dst := ppg.NodeID(sid), ppg.NodeID(did)
		if ep.Dir == ast.DirIn {
			src, dst = dst, src
		}
		var (
			id      ppg.EdgeID
			srcEdge *ppg.Edge // the bound edge, shared while unchanged
			ord     = int32(-1)
			labels  = ppg.Labels{}
			props   ppg.Properties
		)
		switch {
		case bound:
			ref, _ := tbl.Value(rep, ep.Var)
			if ref.Kind() != value.KindEdge {
				return errf("construct variable %q must be an edge, got %s", ep.Var, ref.Kind())
			}
			eid, _ := ref.RefID()
			id = ppg.EdgeID(eid)
			if srcEdge, ord = b.sourceEdge(id); srcEdge == nil {
				return errf("bound edge #%d not found in the matched graphs", eid)
			}
			// Identity restriction (§3): the endpoints of a bound edge
			// cannot be changed.
			if srcEdge.Src != src || srcEdge.Dst != dst {
				return errf("edge %s is bound to #%d with endpoints (#%d,#%d); constructing it between #%d and #%d would violate its identity (use [=%s] to copy instead)",
					ep.Var, eid, srcEdge.Src, srcEdge.Dst, src, dst, ep.Var)
			}
			labels, props = srcEdge.Labels, srcEdge.Props
		case ep.Copy:
			ref, ok := tbl.Value(rep, ep.Var)
			if !ok {
				continue
			}
			srcLabels, srcProps, found := c.findElementData(b.graphs, ref)
			if !found {
				return errf("copy form [=%s] needs a bound graph element", ep.Var)
			}
			id = c.ev.cat.IDs().NextEdge()
			labels, props = srcLabels, srcProps
		default:
			id = c.ev.cat.IDs().NextEdge()
		}
		labels = addPatternLabels(labels, ep.Labels)
		copied, err := c.applyAssignments(env, grp, &labels, &props, ep.Props, ic.extra[edgeVar])
		if err != nil {
			return err
		}
		if err := c.gov.AddResults(1); err != nil {
			return err
		}
		e := srcEdge
		if e == nil || copied || !labels.Equal(srcEdge.Labels) {
			e = &ppg.Edge{ID: id, Src: src, Dst: dst, Labels: labels, Props: props}
		}
		if err := b.addEdge(e, ord, !bound); err != nil {
			return err
		}
		ic.built(sortEdge, uint64(id), grp)
		for _, ri := range grp {
			cons.Set(ri, slot, value.EdgeRef(uint64(id)))
		}
	}
	return nil
}

// constructPath builds stored paths (-/@p:label{...}/->) and graph
// projections (-/p/->) in CONSTRUCT position. Every path reaches the
// builder as ordinals of its source snapshot: a k-shortest walk
// straight off the search's arrival chain, a stored path or an ALL
// projection through one ordinal probe per item.
func (c *evalCtx) constructPath(env *env, b *builder, pp *ast.PathPattern, ic *itemCtx, li int, tbl, cons *bindings.Table) error {
	pathVar := ic.names.link[li]
	if pp.Var == "" {
		return errf("a path in CONSTRUCT position needs a bound path variable")
	}
	if pp.Regex != nil {
		return errf("regular expressions are not allowed in CONSTRUCT path patterns")
	}
	// λ of a stored computed path before SET/REMOVE: one slice per pattern.
	walkLabels := addPatternLabels(ppg.Labels{}, pp.Labels)
	// One pattern's groups store distinct paths; only an earlier
	// pattern's can already be in the result.
	dedup := len(b.paths.list) > 0
	if c.build == nil {
		c.build = new(buildScratch)
	}
	sc := c.build
	// Group by path identity. The computed paths are looked up first,
	// so the arena and the slab take exactly the room the stored walks
	// need.
	groups := orderedGroups(tbl.Project([]string{pp.Var}), true)
	refSlot, slot := tbl.SlotOf(pp.Var), cons.SlotOf(pathVar)
	tps := make([]*tempPath, len(groups))
	var nodeRoom, edgeRoom, pathRoom int
	for gi, grp := range groups {
		ref := tbl.RowAt(grp[0])[refSlot]
		if tps[gi] = c.tempPathOf(ref); tps[gi] != nil && !tps[gi].projection {
			nodeRoom, edgeRoom, pathRoom = nodeRoom+tps[gi].length+1, edgeRoom+tps[gi].length, pathRoom+1
		}
	}
	if pp.Stored {
		reserve(&sc.nodeIDs, nodeRoom)
		reserve(&sc.edgeIDs, edgeRoom)
		reserve(&sc.paths, pathRoom)
	}
	for gi, grp := range groups {
		if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
			return err
		}
		ref := tbl.RowAt(grp[0])[refSlot]
		if ref.Kind() != value.KindPath {
			return errf("construct variable %q must be a path, got %s", pp.Var, ref.Kind())
		}
		pid, _ := ref.RefID()

		// Resolve the path to ordinals of its source snapshot: a
		// computed one's, or a stored one's of the first graph holding it.
		var (
			snap  *csr.Snapshot
			pobj  *ppg.Path // a graph's stored path
			nodes = b.walkNodes[:0]
			edges = b.walkEdges[:0]
			err   error
		)
		tp := tps[gi]
		switch {
		case tp != nil && tp.projection:
			snap = tp.snap
			nodes, edges, err = idOrds(snap, tp.path, nodes, edges)
		case tp != nil:
			snap = tp.snap
			if nodes, edges, err = tp.ords(nodes, edges); err == nil {
				err = checkWalk(snap, ppg.PathID(pid), nodes, edges)
			}
		default:
			for _, g := range b.graphs {
				if p, ok := g.Path(ppg.PathID(pid)); ok {
					pobj = p
					snap, _ = c.ev.snapshot(g)
					break
				}
			}
			if pobj == nil {
				return errf("path #%d is not visible in the matched graphs", pid)
			}
			if nodes, edges, err = idOrds(snap, pobj, nodes, edges); err == nil {
				err = checkWalk(snap, pobj.ID, nodes, edges)
			}
		}
		b.walkNodes, b.walkEdges = nodes, edges
		if err != nil {
			return err
		}

		// Add the constituents to the item graph, sharing the source's
		// element objects.
		if err := b.addConstituents(snap, nodes, edges); err != nil {
			return err
		}
		if !pp.Stored {
			continue // pure projection: no path object in the result
		}
		if tp != nil && tp.projection {
			return errf("path variable %q holds an ALL-paths projection and cannot be stored", pp.Var)
		}
		// A stored path reuses the sequences of the graph's path; a walk's
		// are cut from the statement's arena.
		var (
			nodeIDs []ppg.NodeID
			edgeIDs []ppg.EdgeID
			labels  = walkLabels
			props   ppg.Properties
		)
		if pobj != nil {
			nodeIDs, edgeIDs = pobj.Nodes, pobj.Edges
			labels, props = addPatternLabels(pobj.Labels, pp.Labels), pobj.Props
		} else {
			nodeIDs, edgeIDs = sc.walkIDs(snap, nodes, edges)
		}
		copied, err := c.applyAssignments(env, grp, &labels, &props, pp.Props, ic.extra[pathVar])
		if err != nil {
			return err
		}
		// An unchanged stored path is shared whole.
		stored := pobj
		if pobj == nil || copied || !labels.Equal(pobj.Labels) {
			stored = sc.path()
			*stored = ppg.Path{ID: ppg.PathID(pid), Nodes: nodeIDs, Edges: edgeIDs, Labels: labels, Props: props}
		}
		if err := c.gov.AddResults(1); err != nil {
			return err
		}
		if !dedup {
			b.paths.push(stored)
		} else if _, dup := b.paths.find(pid); !dup {
			b.paths.push(stored)
		}
		ic.built(sortPath, pid, grp)
		for _, ri := range grp {
			cons.Set(ri, slot, value.PathRef(pid))
		}
	}
	return nil
}

// idOrds appends the snapshot ordinals of the nodes and edges p lists
// by identifier, one probe each.
func idOrds(s *csr.Snapshot, p *ppg.Path, nodes, edges []int32) ([]int32, []int32, error) {
	for _, id := range p.Nodes {
		u, ok := s.Ord(id)
		if !ok {
			return nodes, edges, errf("path #%d references node #%d outside its source graph", p.ID, id)
		}
		nodes = append(nodes, u)
	}
	for _, id := range p.Edges {
		e, ok := s.EdgeOrd(id)
		if !ok {
			return nodes, edges, errf("path #%d references edge #%d outside its source graph", p.ID, id)
		}
		edges = append(edges, e)
	}
	return nodes, edges, nil
}

// objKey identifies a constructed object across the node, edge and
// path identifier spaces.
type objKey struct {
	sort varSort
	id   uint64
}

// whenDrops evaluates a WHEN condition per constructed object of one
// item, over the object's group of env's table (the match rows with
// all construct identities), and records failing objects.
func (c *evalCtx) whenDrops(env *env, when ast.Expr, objects []*builtObj, dropped map[objKey]bool) error {
	defer func() { env.groupRows = nil }()
	cond := c.expr(when)
	for _, obj := range objects {
		env.groupRows, env.rowIdx = obj.rows, obj.rows[0]
		v, err := cond.eval(env)
		if err != nil {
			return err
		}
		keep, err := value.Truth(v)
		if err != nil {
			return err
		}
		if !keep {
			dropped[objKey{obj.sort, obj.id}] = true
		}
	}
	return nil
}
