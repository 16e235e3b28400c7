package core

import (
	"fmt"
	"slices"
	"strconv"

	"gcore/internal/ast"
	"gcore/internal/bindings"
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

// builtObj records one constructed object for the WHEN phase.
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
	objects []*builtObj
}

func (c *evalCtx) evalConstructItems(s *scope, items []*ast.ConstructItem, tbl *bindings.Table, graphs []*ppg.Graph) (*ppg.Graph, error) {
	out := ppg.New("")
	// Phases 1–2 evaluate expressions on the match table.
	env := c.newEnv(s, graphs, nil)
	env.constructed = out
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
					if src, _ = findNode(graphs, id); src != nil {
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
				ensureNode(out, n)
				ic.objects = append(ic.objects, &builtObj{sort: sortNode, id: uint64(id), rows: grp})
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
				if err := c.constructEdge(env, out, ep, ic.names, li, tbl, cons, graphs, ic.extra, &ic.objects); err != nil {
					return nil, err
				}
			case *ast.PathPattern:
				if err := c.constructPath(env, out, ep, ic.names, li, tbl, cons, graphs, ic.extra, &ic.objects); err != nil {
					return nil, err
				}
			}
		}
	}

	// ---- phase 3: WHEN, per item, then one rebuild ----
	dropped := map[objKey]bool{}
	anyWhen := false
	for _, ic := range ics {
		if ic.item.When == nil {
			continue
		}
		if !anyWhen {
			anyWhen = true
			env.setTable(tbl.Overlay(cons))
		}
		if err := c.whenDrops(env, ic.item.When, ic.objects, dropped); err != nil {
			return nil, err
		}
	}
	if anyWhen {
		return rebuildWithoutDropped(out, dropped)
	}
	return out, nil
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

// ensureNode adds n to the item graph, or merges it into the node
// already there: labels are united and n's properties overwrite. A
// merge stores a new node instead of writing the existing one, which
// may be shared with a source graph.
func ensureNode(g *ppg.Graph, n *ppg.Node) {
	existing, ok := g.Node(n.ID)
	var err error
	switch {
	case !ok:
		err = g.AddNode(n)
	case existing != n:
		err = g.SetNodeLabels(n.ID, existing.Labels.Union(n.Labels))
		if err == nil && len(n.Props) > 0 {
			err = g.SetNodeProps(n.ID, overwriteProps(existing.Props, n.Props))
		}
	}
	if err != nil {
		panic("core: ensureNode: " + err.Error())
	}
}

func ensureEdge(g *ppg.Graph, e *ppg.Edge) error {
	existing, ok := g.Edge(e.ID)
	if !ok {
		return g.AddEdge(e)
	}
	if existing == e {
		return nil
	}
	if existing.Src != e.Src || existing.Dst != e.Dst {
		return errf("edge #%d constructed with conflicting endpoints", e.ID)
	}
	if err := g.SetEdgeLabels(e.ID, existing.Labels.Union(e.Labels)); err != nil {
		return errf("%v", err)
	}
	if len(e.Props) > 0 {
		if err := g.SetEdgeProps(e.ID, overwriteProps(existing.Props, e.Props)); err != nil {
			return errf("%v", err)
		}
	}
	return nil
}

// overwriteProps returns a new map holding base's properties with
// over's written on top.
func overwriteProps(base, over ppg.Properties) ppg.Properties {
	out := base.Clone()
	for k, v := range over {
		out[k] = v
	}
	return out
}

func ensurePath(g *ppg.Graph, p *ppg.Path) error {
	if _, ok := g.Path(p.ID); ok {
		return nil
	}
	return g.AddPath(p)
}

// constructEdge builds the edges of one edge pattern.
func (c *evalCtx) constructEdge(env *env, out *ppg.Graph, ep *ast.EdgePattern, names patternNames, li int, tbl, cons *bindings.Table, graphs []*ppg.Graph, extra map[string]*assignSet, objects *[]*builtObj) error {
	if ep.Dir == ast.DirBoth {
		return errf("constructed edges need a direction: use -[...]-> or <-[...]-")
	}
	leftVar, rightVar := names.node[li], names.node[li+1]
	edgeVar := names.link[li]
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

	for _, grp := range orderedGroups(keys, true) {
		if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
			return err
		}
		rep := grp[0]
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
			if srcEdge, _ = findEdge(graphs, id); srcEdge == nil {
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
			srcLabels, srcProps, found := c.findElementData(graphs, ref)
			if !found {
				return errf("copy form [=%s] needs a bound graph element", ep.Var)
			}
			id = c.ev.cat.IDs().NextEdge()
			labels, props = srcLabels, srcProps
		default:
			id = c.ev.cat.IDs().NextEdge()
		}
		labels = addPatternLabels(labels, ep.Labels)
		copied, err := c.applyAssignments(env, grp, &labels, &props, ep.Props, extra[edgeVar])
		if err != nil {
			return err
		}
		// Endpoint nodes must exist in the item graph: bound-identity
		// nodes were added in phase 1 for exactly the surviving rows.
		if _, ok := out.Node(src); !ok {
			continue
		}
		if _, ok := out.Node(dst); !ok {
			continue
		}
		if err := c.gov.AddResults(1); err != nil {
			return err
		}
		e := srcEdge
		if e == nil || copied || !labels.Equal(srcEdge.Labels) {
			e = &ppg.Edge{ID: id, Src: src, Dst: dst, Labels: labels, Props: props}
		}
		if err := ensureEdge(out, e); err != nil {
			return err
		}
		*objects = append(*objects, &builtObj{sort: sortEdge, id: uint64(id), rows: grp})
		slot := cons.SlotOf(edgeVar)
		for _, ri := range grp {
			cons.Set(ri, slot, value.EdgeRef(uint64(id)))
		}
	}
	return nil
}

// constructPath builds stored paths (-/@p:label{...}/->) and graph
// projections (-/p/->) in CONSTRUCT position.
func (c *evalCtx) constructPath(env *env, out *ppg.Graph, pp *ast.PathPattern, names patternNames, li int, tbl, cons *bindings.Table, graphs []*ppg.Graph, extra map[string]*assignSet, objects *[]*builtObj) error {
	pathVar := names.link[li]
	if pp.Var == "" {
		return errf("a path in CONSTRUCT position needs a bound path variable")
	}
	if pp.Regex != nil {
		return errf("regular expressions are not allowed in CONSTRUCT path patterns")
	}
	// λ of a stored computed path before SET/REMOVE: one slice per pattern.
	walkLabels := addPatternLabels(ppg.Labels{}, pp.Labels)
	// Group by path identity.
	for _, grp := range orderedGroups(tbl.Project([]string{pp.Var}), true) {
		if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
			return err
		}
		ref, _ := tbl.Value(grp[0], pp.Var)
		if ref.Kind() != value.KindPath {
			return errf("construct variable %q must be a path, got %s", pp.Var, ref.Kind())
		}
		pid, _ := ref.RefID()

		// Resolve the path object and its source graph.
		var (
			pobj       *ppg.Path
			srcGraph   *ppg.Graph
			projection bool
			isTemp     bool
		)
		if tp := c.tempPathOf(ref); tp != nil {
			pobj, srcGraph, projection, isTemp = tp.walk(), tp.src, tp.projection, true
		} else {
			for _, g := range graphs {
				if p, ok := g.Path(ppg.PathID(pid)); ok {
					pobj, srcGraph = p, g
					break
				}
			}
		}
		if pobj == nil {
			return errf("path #%d is not visible in the matched graphs", pid)
		}

		// Add the constituents to the item graph, sharing the source's
		// element objects.
		for _, nid := range pobj.Nodes {
			if _, ok := out.Node(nid); ok {
				continue
			}
			n, _ := srcGraph.Node(nid)
			if n == nil {
				return errf("path #%d references node #%d outside its source graph", pid, nid)
			}
			if err := c.gov.AddResults(1); err != nil {
				return err
			}
			if err := out.AddNode(n); err != nil {
				return err
			}
		}
		for _, eid := range pobj.Edges {
			if _, ok := out.Edge(eid); ok {
				continue
			}
			e, _ := srcGraph.Edge(eid)
			if e == nil {
				return errf("path #%d references edge #%d outside its source graph", pid, eid)
			}
			if err := c.gov.AddResults(1); err != nil {
				return err
			}
			if err := out.AddEdge(e); err != nil {
				return err
			}
		}
		if !pp.Stored {
			continue // pure projection: no path object in the result
		}
		if projection {
			return errf("path variable %q holds an ALL-paths projection and cannot be stored", pp.Var)
		}
		labels, props := walkLabels, ppg.Properties(nil)
		if !isTemp {
			labels, props = addPatternLabels(pobj.Labels, pp.Labels), pobj.Props
		}
		copied, err := c.applyAssignments(env, grp, &labels, &props, pp.Props, extra[pathVar])
		if err != nil {
			return err
		}
		// A stored path reuses the walk's node and edge sequences, and an
		// unchanged stored path is shared whole.
		stored := pobj
		if isTemp || copied || !labels.Equal(pobj.Labels) {
			stored = &ppg.Path{ID: ppg.PathID(pid), Nodes: pobj.Nodes, Edges: pobj.Edges, Labels: labels, Props: props}
		}
		if err := c.gov.AddResults(1); err != nil {
			return err
		}
		if err := ensurePath(out, stored); err != nil {
			return err
		}
		*objects = append(*objects, &builtObj{sort: sortPath, id: pid, rows: grp})
		slot := cons.SlotOf(pathVar)
		for _, ri := range grp {
			cons.Set(ri, slot, value.PathRef(pid))
		}
	}
	return nil
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

// rebuildWithoutDropped rebuilds the constructed graph, sharing its
// elements, without the dropped objects; edges whose endpoints vanished
// and paths whose constituents vanished go too (no dangling elements,
// ever).
func rebuildWithoutDropped(built *ppg.Graph, dropped map[objKey]bool) (*ppg.Graph, error) {
	out := ppg.New(built.Name())
	for _, id := range built.NodeIDs() {
		if dropped[objKey{sortNode, uint64(id)}] {
			continue
		}
		n, _ := built.Node(id)
		if err := out.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, id := range built.EdgeIDs() {
		if dropped[objKey{sortEdge, uint64(id)}] {
			continue
		}
		e, _ := built.Edge(id)
		if _, ok := out.Node(e.Src); !ok {
			continue
		}
		if _, ok := out.Node(e.Dst); !ok {
			continue
		}
		if err := out.AddEdge(e); err != nil {
			return nil, err
		}
	}
	for _, id := range built.PathIDs() {
		if dropped[objKey{sortPath, uint64(id)}] {
			continue
		}
		p, _ := built.Path(id)
		if err := out.AddPath(p); err != nil {
			continue // constituents dropped: the path goes too
		}
	}
	return out, nil
}
