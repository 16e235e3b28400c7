package core

import (
	"fmt"
	"sort"
	"strings"

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
		result = ppg.Union("", result, g)
	}
	return result, nil
}

// builtObj records one constructed object for the WHEN phase.
type builtObj struct {
	sort    varSort
	id      uint64
	varName string
	rows    []int // indexes into the binding rows of the group
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
	rows := tbl.Rows()
	schema := tbl.Vars()
	out := ppg.New("")
	env := c.newEnv(s, graphs, nil)
	env.constructed = out
	env.groupSchema = schema

	// rowBind maps each row index to the construct-variable bindings
	// produced for it (node, edge and path identities); it is shared
	// by all pattern items so repeated construct variables denote the
	// same identities.
	rowBind := make([]bindings.Binding, len(rows))
	for i := range rowBind {
		rowBind[i] = bindings.Binding{}
	}

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

	// ---- phase 1: node constructs across all items ----
	for _, ic := range ics {
		gp := ic.item.Pattern
		for ni, np := range gp.Nodes {
			varName := ic.names.node[ni]
			if rowBindHasVar(rowBind, varName) {
				continue // defined by an earlier occurrence: reference
			}
			groups, err := c.groupFor(env, rows, np.Var, np.Group, schema, tbl)
			if err != nil {
				return nil, err
			}
			for _, grp := range groups {
				if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
					return nil, err
				}
				rep := rows[grp.rows[0]]
				var (
					id     ppg.NodeID
					labels ppg.Labels
					props  ppg.Properties
				)
				bound := np.Var != "" && tbl.HasVar(np.Var)
				switch {
				case bound && !np.Copy:
					ref, ok := rep[np.Var]
					if !ok {
						continue // Ω′(x) undefined → G∅ for this group
					}
					if ref.Kind() != value.KindNode {
						return nil, errf("construct variable %q must be a node, got %s", np.Var, ref.Kind())
					}
					nid, _ := ref.RefID()
					id = ppg.NodeID(nid)
					src, _ := findNode(graphs, id)
					if src != nil {
						labels, props = src.Labels.Clone(), src.Props.Clone()
					} else {
						labels, props = ppg.Labels{}, ppg.Properties{}
					}
				case np.Copy:
					ref, ok := rep[np.Var]
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
					labels, props = srcLabels.Clone(), srcProps.Clone()
				default:
					id = c.ev.cat.IDs().NextNode()
					labels, props = ppg.Labels{}, ppg.Properties{}
				}
				labels = addPatternLabels(labels, np.Labels)
				if err := c.applyAssignments(env, rows, grp.rows, varName, &labels, props, np.Props, ic.extra[varName]); err != nil {
					return nil, err
				}
				if err := c.gov.AddResults(1); err != nil {
					return nil, err
				}
				ensureNode(out, &ppg.Node{ID: id, Labels: labels, Props: props})
				ic.objects = append(ic.objects, &builtObj{sort: sortNode, id: uint64(id), varName: varName, rows: grp.rows})
				for _, ri := range grp.rows {
					rowBind[ri][varName] = value.NodeRef(uint64(id))
				}
			}
		}
	}

	// ---- phase 2: relationship constructs across all items ----
	for _, ic := range ics {
		for li, link := range ic.item.Pattern.Links {
			switch ep := link.(type) {
			case *ast.EdgePattern:
				if err := c.constructEdge(env, out, ep, ic.names, li, rows, rowBind, tbl, graphs, ic.extra, &ic.objects); err != nil {
					return nil, err
				}
			case *ast.PathPattern:
				if err := c.constructPath(env, out, ep, ic.names, li, rows, rowBind, graphs, ic.extra, &ic.objects); err != nil {
					return nil, err
				}
			}
		}
	}

	// ---- phase 3: WHEN, per item, then one rebuild ----
	dropped := map[string]bool{}
	anyWhen := false
	for _, ic := range ics {
		if ic.item.When == nil {
			continue
		}
		anyWhen = true
		if err := c.whenDrops(env, ic.item.When, ic.objects, rows, rowBind, schema, dropped); err != nil {
			return nil, err
		}
	}
	if anyWhen {
		return rebuildWithoutDropped(out, dropped)
	}
	return out, nil
}

func rowBindHasVar(rowBind []bindings.Binding, v string) bool {
	for _, b := range rowBind {
		if _, ok := b[v]; ok {
			return true
		}
	}
	return false
}

// objGroup is one grouped equivalence class (indexes into rows).
type objGroup struct {
	key  string
	rows []int
}

// groupFor computes grp(Ω, g) for a construct element: identity
// grouping for bound variables, explicit GROUP expressions, or
// per-binding grouping for unbound variables.
func (c *evalCtx) groupFor(env *env, rows []bindings.Binding, varName string, groupExprs []ast.Expr, schema []string, tbl *bindings.Table) ([]objGroup, error) {
	keyFn := func(b bindings.Binding) (string, bool, error) {
		switch {
		case len(groupExprs) > 0:
			var sb strings.Builder
			saved := env.row
			env.row = b
			for _, ge := range groupExprs {
				v, err := env.eval(ge)
				if err != nil {
					env.row = saved
					return "", false, err
				}
				sb.WriteString(v.Key())
				sb.WriteByte('|')
			}
			env.row = saved
			return sb.String(), true, nil
		case varName != "" && tbl.HasVar(varName):
			v, ok := b[varName]
			if !ok {
				return "", false, nil // undefined identity: skip row
			}
			return v.Key(), true, nil
		default:
			return b.Key(schema), true, nil
		}
	}
	return groupIndexes(rows, keyFn)
}

func groupIndexes(rows []bindings.Binding, keyFn func(bindings.Binding) (string, bool, error)) ([]objGroup, error) {
	idx := map[string]int{}
	var groups []objGroup
	for i, r := range rows {
		k, ok, err := keyFn(r)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		gi, seen := idx[k]
		if !seen {
			gi = len(groups)
			idx[k] = gi
			groups = append(groups, objGroup{key: k})
		}
		groups[gi].rows = append(groups[gi].rows, i)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	return groups, nil
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
// constructed object over its group.
func (c *evalCtx) applyAssignments(env *env, rows []bindings.Binding, grpRows []int, varName string, labels *ppg.Labels, props ppg.Properties, inline []*ast.PropSpec, a *assignSet) error {
	groupRows := make([]bindings.Binding, len(grpRows))
	for i, ri := range grpRows {
		groupRows[i] = rows[ri]
	}
	savedRows, savedRow := env.groupRows, env.row
	env.groupRows = groupRows
	if len(groupRows) > 0 {
		env.row = groupRows[0]
	} else {
		env.row = bindings.Empty()
	}
	defer func() { env.groupRows, env.row = savedRows, savedRow }()

	evalTo := func(key string, e ast.Expr) error {
		v, err := env.eval(e)
		if err != nil {
			return err
		}
		props.Set(key, v)
		return nil
	}
	for _, ps := range inline {
		switch ps.Mode {
		case ast.PropAssign:
			if err := evalTo(ps.Key, ps.Expr); err != nil {
				return err
			}
		case ast.PropFilter:
			// {k = literal} in CONSTRUCT assigns the literal, matching
			// the paper's permissive use of = in construct maps.
			if err := evalTo(ps.Key, ps.Expr); err != nil {
				return err
			}
		case ast.PropBind:
			// {k = v} with a variable: assign the variable's value.
			if v, ok := env.row[ps.Var]; ok {
				props.Set(ps.Key, v)
			}
		}
	}
	if a != nil {
		for _, l := range a.addLabels {
			*labels = labels.Add(l)
		}
		for _, si := range a.setItems {
			if err := evalTo(si.Key, si.Expr); err != nil {
				return err
			}
		}
		for _, ri := range a.removes {
			if ri.Key != "" {
				delete(props, ri.Key)
			}
			if ri.Label != "" {
				*labels = labels.Remove(ri.Label)
			}
		}
	}
	_ = varName
	return nil
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

// ensureNode adds or merges a node in the item graph. Label merges go
// through SetNodeLabels so the graph's label index stays consistent.
func ensureNode(g *ppg.Graph, n *ppg.Node) {
	if existing, ok := g.Node(n.ID); ok {
		if err := g.SetNodeLabels(n.ID, existing.Labels.Union(n.Labels)); err != nil {
			panic("core: ensureNode: " + err.Error())
		}
		for k, v := range n.Props {
			existing.Props[k] = v
		}
		if len(n.Props) > 0 {
			g.TouchProps()
		}
		return
	}
	if err := g.AddNode(n); err != nil {
		panic("core: ensureNode: " + err.Error())
	}
}

func ensureEdge(g *ppg.Graph, e *ppg.Edge) error {
	if existing, ok := g.Edge(e.ID); ok {
		if existing.Src != e.Src || existing.Dst != e.Dst {
			return errf("edge #%d constructed with conflicting endpoints", e.ID)
		}
		if err := g.SetEdgeLabels(e.ID, existing.Labels.Union(e.Labels)); err != nil {
			return errf("%v", err)
		}
		for k, v := range e.Props {
			existing.Props[k] = v
		}
		if len(e.Props) > 0 {
			g.TouchProps()
		}
		return nil
	}
	return g.AddEdge(e)
}

func ensurePath(g *ppg.Graph, p *ppg.Path) error {
	if _, ok := g.Path(p.ID); ok {
		return nil
	}
	return g.AddPath(p)
}

// constructEdge builds the edges of one edge pattern.
func (c *evalCtx) constructEdge(env *env, out *ppg.Graph, ep *ast.EdgePattern, names patternNames, li int, rows []bindings.Binding, rowBind []bindings.Binding, tbl *bindings.Table, graphs []*ppg.Graph, extra map[string]*assignSet, objects *[]*builtObj) error {
	if ep.Dir == ast.DirBoth {
		return errf("constructed edges need a direction: use -[...]-> or <-[...]-")
	}
	leftVar, rightVar := names.node[li], names.node[li+1]
	edgeVar := names.link[li]
	bound := ep.Var != "" && tbl.HasVar(ep.Var) && !ep.Copy

	// Group: bound edges by identity; otherwise by the constructed
	// endpoint pair (which subsumes Γx ∪ Γy ∪ {x,y}) plus explicit
	// GROUP expressions.
	keyFn := func(ri int) (string, bool, error) {
		b := rows[ri]
		if bound {
			v, ok := b[ep.Var]
			if !ok {
				return "", false, nil
			}
			return v.Key(), true, nil
		}
		sv, ok1 := rowBind[ri][leftVar]
		dv, ok2 := rowBind[ri][rightVar]
		if !ok1 || !ok2 {
			return "", false, nil // dangling prevention
		}
		key := sv.Key() + ">" + dv.Key()
		if len(ep.Group) > 0 {
			saved := env.row
			env.row = b
			for _, ge := range ep.Group {
				v, err := env.eval(ge)
				if err != nil {
					env.row = saved
					return "", false, err
				}
				key += "|" + v.Key()
			}
			env.row = saved
		}
		return key, true, nil
	}
	idx := map[string]int{}
	var groups []objGroup
	for ri := range rows {
		k, ok, err := keyFn(ri)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		gi, seen := idx[k]
		if !seen {
			gi = len(groups)
			idx[k] = gi
			groups = append(groups, objGroup{key: k})
		}
		groups[gi].rows = append(groups[gi].rows, ri)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].key < groups[j].key })

	for _, grp := range groups {
		if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
			return err
		}
		rep := grp.rows[0]
		sv, ok1 := rowBind[rep][leftVar]
		dv, ok2 := rowBind[rep][rightVar]
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
			id     ppg.EdgeID
			labels ppg.Labels
			props  ppg.Properties
		)
		switch {
		case bound:
			ref := rows[rep][ep.Var]
			if ref.Kind() != value.KindEdge {
				return errf("construct variable %q must be an edge, got %s", ep.Var, ref.Kind())
			}
			eid, _ := ref.RefID()
			id = ppg.EdgeID(eid)
			srcEdge, _ := findEdge(graphs, id)
			if srcEdge == nil {
				return errf("bound edge #%d not found in the matched graphs", eid)
			}
			// Identity restriction (§3): the endpoints of a bound edge
			// cannot be changed.
			if srcEdge.Src != src || srcEdge.Dst != dst {
				return errf("edge %s is bound to #%d with endpoints (#%d,#%d); constructing it between #%d and #%d would violate its identity (use [=%s] to copy instead)",
					ep.Var, eid, srcEdge.Src, srcEdge.Dst, src, dst, ep.Var)
			}
			labels, props = srcEdge.Labels.Clone(), srcEdge.Props.Clone()
		case ep.Copy:
			ref, ok := rows[rep][ep.Var]
			if !ok {
				continue
			}
			srcLabels, srcProps, found := c.findElementData(graphs, ref)
			if !found {
				return errf("copy form [=%s] needs a bound graph element", ep.Var)
			}
			id = c.ev.cat.IDs().NextEdge()
			labels, props = srcLabels.Clone(), srcProps.Clone()
		default:
			id = c.ev.cat.IDs().NextEdge()
			labels, props = ppg.Labels{}, ppg.Properties{}
		}
		labels = addPatternLabels(labels, ep.Labels)
		if err := c.applyAssignments(env, rows, grp.rows, edgeVar, &labels, props, ep.Props, extra[edgeVar]); err != nil {
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
		if err := ensureEdge(out, &ppg.Edge{ID: id, Src: src, Dst: dst, Labels: labels, Props: props}); err != nil {
			return err
		}
		*objects = append(*objects, &builtObj{sort: sortEdge, id: uint64(id), varName: edgeVar, rows: grp.rows})
		for _, ri := range grp.rows {
			rowBind[ri][edgeVar] = value.EdgeRef(uint64(id))
		}
	}
	return nil
}

// constructPath builds stored paths (-/@p:label{...}/->) and graph
// projections (-/p/->) in CONSTRUCT position.
func (c *evalCtx) constructPath(env *env, out *ppg.Graph, pp *ast.PathPattern, names patternNames, li int, rows []bindings.Binding, rowBind []bindings.Binding, graphs []*ppg.Graph, extra map[string]*assignSet, objects *[]*builtObj) error {
	pathVar := names.link[li]
	if pp.Var == "" {
		return errf("a path in CONSTRUCT position needs a bound path variable")
	}
	if pp.Regex != nil {
		return errf("regular expressions are not allowed in CONSTRUCT path patterns")
	}
	// Group by path identity.
	groups, err := groupIndexes(rows, func(b bindings.Binding) (string, bool, error) {
		v, ok := b[pp.Var]
		if !ok {
			return "", false, nil
		}
		return v.Key(), true, nil
	})
	if err != nil {
		return err
	}
	for _, grp := range groups {
		if err := c.gov.Checkpoint(faultinject.SiteCoreConstruct); err != nil {
			return err
		}
		rep := rows[grp.rows[0]]
		ref := rep[pp.Var]
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

		// Copy constituents into the item graph.
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
			ensureNode(out, n.Clone())
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
			if err := ensureEdge(out, e.Clone()); err != nil {
				return err
			}
		}
		if !pp.Stored {
			continue // pure projection: no path object in the result
		}
		if projection {
			return errf("path variable %q holds an ALL-paths projection and cannot be stored", pp.Var)
		}
		labels := ppg.Labels{}
		props := ppg.Properties{}
		if !isTemp {
			labels, props = pobj.Labels.Clone(), pobj.Props.Clone()
		}
		labels = addPatternLabels(labels, pp.Labels)
		if err := c.applyAssignments(env, rows, grp.rows, pathVar, &labels, props, pp.Props, extra[pathVar]); err != nil {
			return err
		}
		stored := &ppg.Path{
			ID:     ppg.PathID(pid),
			Nodes:  append([]ppg.NodeID(nil), pobj.Nodes...),
			Edges:  append([]ppg.EdgeID(nil), pobj.Edges...),
			Labels: labels,
			Props:  props,
		}
		if err := c.gov.AddResults(1); err != nil {
			return err
		}
		if err := ensurePath(out, stored); err != nil {
			return err
		}
		*objects = append(*objects, &builtObj{sort: sortPath, id: pid, varName: pathVar, rows: grp.rows})
		for _, ri := range grp.rows {
			rowBind[ri][pathVar] = value.PathRef(pid)
		}
	}
	return nil
}

func dropKey(s varSort, id uint64) string {
	return fmt.Sprintf("%d:%d", s, id)
}

// whenDrops evaluates a WHEN condition per constructed object of one
// item, over the object's group extended with all construct bindings,
// and records failing objects.
func (c *evalCtx) whenDrops(env *env, when ast.Expr, objects []*builtObj, rows []bindings.Binding, rowBind []bindings.Binding, schema []string, dropped map[string]bool) error {
	savedRows, savedRow, savedSchema := env.groupRows, env.row, env.groupSchema
	defer func() { env.groupRows, env.row, env.groupSchema = savedRows, savedRow, savedSchema }()

	for _, obj := range objects {
		groupRows := make([]bindings.Binding, len(obj.rows))
		for i, ri := range obj.rows {
			groupRows[i] = bindings.Merge(rows[ri], rowBind[ri])
		}
		env.groupRows = groupRows
		env.groupSchema = schema
		if len(groupRows) > 0 {
			env.row = groupRows[0]
		} else {
			env.row = bindings.Empty()
		}
		v, err := env.eval(when)
		if err != nil {
			return err
		}
		keep, err := value.Truth(v)
		if err != nil {
			return err
		}
		if !keep {
			dropped[dropKey(obj.sort, obj.id)] = true
		}
	}
	return nil
}

// rebuildWithoutDropped rebuilds the constructed graph without the
// dropped objects; edges whose endpoints vanished and paths whose
// constituents vanished go too (no dangling elements, ever).
func rebuildWithoutDropped(built *ppg.Graph, dropped map[string]bool) (*ppg.Graph, error) {
	out := ppg.New(built.Name())
	for _, id := range built.NodeIDs() {
		if dropped[dropKey(sortNode, uint64(id))] {
			continue
		}
		n, _ := built.Node(id)
		ensureNode(out, n.Clone())
	}
	for _, id := range built.EdgeIDs() {
		if dropped[dropKey(sortEdge, uint64(id))] {
			continue
		}
		e, _ := built.Edge(id)
		if _, ok := out.Node(e.Src); !ok {
			continue
		}
		if _, ok := out.Node(e.Dst); !ok {
			continue
		}
		if err := ensureEdge(out, e.Clone()); err != nil {
			return nil, err
		}
	}
	for _, id := range built.PathIDs() {
		if dropped[dropKey(sortPath, uint64(id))] {
			continue
		}
		p, _ := built.Path(id)
		if err := ensurePath(out, p.Clone()); err != nil {
			continue // constituents dropped: the path goes too
		}
	}
	return out, nil
}
