package core

import (
	"gcore/internal/ast"
	"gcore/internal/value"
)

// Static analysis of a statement before evaluation. It enforces the
// paper's well-formedness rules:
//
//   - every variable has one sort (node, edge, path or value) across
//     MATCH and CONSTRUCT — "when using bound variables in a
//     CONSTRUCT, they must be of the right sort" (§3);
//   - a path variable bound with ALL may only be used to project a
//     graph (an unstored construct path), never elsewhere — returning
//     or inspecting all paths would be intractable (§3);
//   - variables shared between different OPTIONAL blocks must appear
//     in the enclosing pattern, making block order irrelevant (§3,
//     citing [31]);
//   - copy forms (=x) and GROUP appear only in CONSTRUCT patterns.

type varSort uint8

const (
	sortUnknown varSort = iota
	sortNode
	sortEdge
	sortPath
	sortValue
)

func (v varSort) String() string {
	switch v {
	case sortNode:
		return "node"
	case sortEdge:
		return "edge"
	case sortPath:
		return "path"
	case sortValue:
		return "value"
	}
	return "unknown"
}

type analysis struct {
	sorts   map[string]varSort
	allVars map[string]bool // path variables bound with ALL
}

func analyzeStatement(stmt *ast.Statement) error {
	for _, gc := range stmt.Graphs {
		if err := analyzeStatement(gc.Body); err != nil {
			return err
		}
	}
	for _, pc := range stmt.Paths {
		a := &analysis{sorts: map[string]varSort{}, allVars: map[string]bool{}}
		for _, gp := range pc.Patterns {
			if err := a.collectPattern(gp, false); err != nil {
				return err
			}
		}
		if len(pc.Patterns) == 0 || len(pc.Patterns[0].Nodes) < 2 {
			return errf("PATH %s: the first pattern must contain a path segment (at least two nodes)", pc.Name)
		}
	}
	if stmt.Query != nil {
		return analyzeQuery(stmt.Query)
	}
	return nil
}

func analyzeQuery(q ast.Query) error {
	switch x := q.(type) {
	case *ast.SetQuery:
		if err := analyzeQuery(x.Left); err != nil {
			return err
		}
		return analyzeQuery(x.Right)
	case *ast.BasicQuery:
		return analyzeBasic(x)
	}
	return nil
}

func analyzeBasic(bq *ast.BasicQuery) error {
	a := &analysis{sorts: map[string]varSort{}, allVars: map[string]bool{}}
	if bq.Match != nil {
		mainVars := map[string]bool{}
		for _, lp := range bq.Match.Patterns {
			if err := a.collectPattern(lp.Pattern, false); err != nil {
				return err
			}
			collectVars(lp.Pattern, mainVars)
			if lp.OnQuery != nil {
				if err := analyzeQuery(lp.OnQuery); err != nil {
					return err
				}
			}
		}
		// The OPTIONAL shared-variable restriction.
		seenInBlock := map[string]int{}
		for bi, ob := range bq.Match.Optionals {
			blockVars := map[string]bool{}
			for _, lp := range ob.Patterns {
				if err := a.collectPattern(lp.Pattern, false); err != nil {
					return err
				}
				collectVars(lp.Pattern, blockVars)
			}
			for v := range blockVars {
				if mainVars[v] {
					continue
				}
				if prev, ok := seenInBlock[v]; ok && prev != bi {
					return errf("variable %q is shared by OPTIONAL blocks but missing from the enclosing pattern; this would make the result depend on block order", v)
				}
				seenInBlock[v] = bi
			}
			if ob.Where != nil {
				if err := a.checkExpr(ob.Where, false); err != nil {
					return err
				}
			}
		}
		if bq.Match.Where != nil {
			if err := a.checkExpr(bq.Match.Where, false); err != nil {
				return err
			}
		}
	}
	if bq.Construct != nil {
		for _, item := range bq.Construct.Items {
			if item.Pattern == nil {
				continue
			}
			if err := a.collectConstructPattern(item.Pattern); err != nil {
				return err
			}
			for _, si := range item.Sets {
				if si.Expr != nil {
					if err := a.checkExpr(si.Expr, true); err != nil {
						return err
					}
				}
			}
			if item.When != nil {
				if err := a.checkExpr(item.When, true); err != nil {
					return err
				}
			}
			for _, ps := range allProps(item.Pattern) {
				if ps.Expr != nil {
					if err := a.checkExpr(ps.Expr, true); err != nil {
						return err
					}
				}
			}
		}
	}
	if bq.Select != nil {
		// Aggregates are allowed in the select list (the §5 extension
		// explicitly mentions aggregation); rows then group by the
		// non-aggregate items.
		for _, it := range bq.Select.Items {
			if err := a.checkExpr(it.Expr, true); err != nil {
				return err
			}
		}
		for _, oi := range bq.Select.OrderBy {
			if err := a.checkExpr(oi.Expr, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func allProps(gp *ast.GraphPattern) []*ast.PropSpec {
	var out []*ast.PropSpec
	for _, n := range gp.Nodes {
		out = append(out, n.Props...)
	}
	for _, l := range gp.Links {
		switch x := l.(type) {
		case *ast.EdgePattern:
			out = append(out, x.Props...)
		case *ast.PathPattern:
			out = append(out, x.Props...)
		}
	}
	return out
}

// matchVars is the set of variables a MATCH clause binds, OPTIONAL
// blocks included.
func matchVars(mc *ast.MatchClause) map[string]bool {
	vars := map[string]bool{}
	for _, lp := range mc.Patterns {
		collectVars(lp.Pattern, vars)
	}
	for _, ob := range mc.Optionals {
		for _, lp := range ob.Patterns {
			collectVars(lp.Pattern, vars)
		}
	}
	return vars
}

func collectVars(gp *ast.GraphPattern, into map[string]bool) {
	eachVar(gp, func(v string) { into[v] = true })
}

// eachVar calls f with every variable a chain binds: at a position, by
// a {k = v} binding entry, or as a path's cost variable.
func eachVar(gp *ast.GraphPattern, f func(string)) {
	for _, n := range gp.Nodes {
		if n.Var != "" {
			f(n.Var)
		}
		for _, ps := range n.Props {
			if ps.Mode == ast.PropBind {
				f(ps.Var)
			}
		}
	}
	for _, l := range gp.Links {
		switch x := l.(type) {
		case *ast.EdgePattern:
			if x.Var != "" {
				f(x.Var)
			}
			for _, ps := range x.Props {
				if ps.Mode == ast.PropBind {
					f(ps.Var)
				}
			}
		case *ast.PathPattern:
			if x.Var != "" {
				f(x.Var)
			}
			if x.CostVar != "" {
				f(x.CostVar)
			}
		}
	}
}

func (a *analysis) assign(name string, s varSort) error {
	if name == "" {
		return nil
	}
	if prev, ok := a.sorts[name]; ok && prev != s {
		return errf("variable %q used both as %s and as %s", name, prev, s)
	}
	a.sorts[name] = s
	return nil
}

// collectPattern records variable sorts of a MATCH pattern and
// rejects construct-only syntax.
func (a *analysis) collectPattern(gp *ast.GraphPattern, construct bool) error {
	for _, n := range gp.Nodes {
		if !construct && (n.Copy || len(n.Group) > 0) {
			return errf("the copy form (=%s) and GROUP are only allowed in CONSTRUCT patterns", n.Var)
		}
		if err := a.assign(n.Var, sortNode); err != nil {
			return err
		}
		for _, ps := range n.Props {
			if ps.Mode == ast.PropBind {
				if err := a.assign(ps.Var, sortValue); err != nil {
					return err
				}
			}
			if !construct && ps.Mode == ast.PropAssign {
				return errf("property assignment := is only allowed in CONSTRUCT patterns")
			}
		}
	}
	for _, l := range gp.Links {
		switch x := l.(type) {
		case *ast.EdgePattern:
			if !construct && (x.Copy || len(x.Group) > 0) {
				return errf("the copy form [=%s] and GROUP are only allowed in CONSTRUCT patterns", x.Var)
			}
			if err := a.assign(x.Var, sortEdge); err != nil {
				return err
			}
			for _, ps := range x.Props {
				if ps.Mode == ast.PropBind {
					if err := a.assign(ps.Var, sortValue); err != nil {
						return err
					}
				}
				if !construct && ps.Mode == ast.PropAssign {
					return errf("property assignment := is only allowed in CONSTRUCT patterns")
				}
			}
		case *ast.PathPattern:
			if err := a.assign(x.Var, sortPath); err != nil {
				return err
			}
			if err := a.assign(x.CostVar, sortValue); err != nil {
				return err
			}
			if !construct && x.Mode == ast.PathAll && x.Var != "" {
				a.allVars[x.Var] = true
			}
		}
	}
	return nil
}

// collectConstructPattern checks sorts in CONSTRUCT position and the
// ALL-variable restriction. Copy forms ((=v) / [=v]) do not constrain
// the source variable's sort: the paper allows copying labels and
// properties across sorts ("copy all labels and properties of a node
// to an edge (or a path) and vice versa", §3).
func (a *analysis) collectConstructPattern(gp *ast.GraphPattern) error {
	for _, n := range gp.Nodes {
		if n.Copy {
			continue
		}
		if err := a.assign(n.Var, sortNode); err != nil {
			return err
		}
	}
	for _, l := range gp.Links {
		switch x := l.(type) {
		case *ast.EdgePattern:
			if x.Copy {
				continue
			}
			if err := a.assign(x.Var, sortEdge); err != nil {
				return err
			}
		case *ast.PathPattern:
			if err := a.assign(x.Var, sortPath); err != nil {
				return err
			}
			if x.Stored && a.allVars[x.Var] {
				return errf("path variable %q was bound with ALL and may only be used for graph projection, not stored", x.Var)
			}
		}
	}
	return nil
}

// checkExpr walks an expression, validating aggregate placement, the
// ALL-variable restriction, and nested subqueries.
func (a *analysis) checkExpr(e ast.Expr, aggOK bool) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.Literal:
		return nil
	case *ast.Param:
		// Bindings are supplied per execution; nothing to check here.
		return nil
	case *ast.VarRef:
		if a.allVars[x.Name] {
			return errf("path variable %q was bound with ALL and may only be used for graph projection", x.Name)
		}
		return nil
	case *ast.PropAccess:
		if a.allVars[x.Var] {
			return errf("path variable %q was bound with ALL and may only be used for graph projection", x.Var)
		}
		return nil
	case *ast.LabelTest:
		if a.allVars[x.Var] {
			return errf("path variable %q was bound with ALL and may only be used for graph projection", x.Var)
		}
		return nil
	case *ast.Unary:
		return a.checkExpr(x.X, aggOK)
	case *ast.Binary:
		if err := a.checkExpr(x.L, aggOK); err != nil {
			return err
		}
		return a.checkExpr(x.R, aggOK)
	case *ast.FuncCall:
		if _, isAgg := value.ParseAggKind(x.Name); isAgg && !x.Star {
			if !aggOK {
				return errf("aggregation %s(...) is only allowed in CONSTRUCT property assignments, SET and WHEN", x.Name)
			}
		}
		if x.Star && !aggOK {
			return errf("COUNT(*) is only allowed in CONSTRUCT property assignments, SET and WHEN")
		}
		for _, arg := range x.Args {
			// Aggregate arguments are evaluated per group row.
			if err := a.checkExpr(arg, false); err != nil {
				return err
			}
		}
		return nil
	case *ast.Index:
		if err := a.checkExpr(x.Base, aggOK); err != nil {
			return err
		}
		return a.checkExpr(x.Idx, aggOK)
	case *ast.Case:
		if err := a.checkExpr(x.Operand, aggOK); err != nil {
			return err
		}
		for _, w := range x.Whens {
			if err := a.checkExpr(w.Cond, aggOK); err != nil {
				return err
			}
			if err := a.checkExpr(w.Then, aggOK); err != nil {
				return err
			}
		}
		return a.checkExpr(x.Else, aggOK)
	case *ast.Exists:
		return analyzeQuery(x.Query)
	case *ast.PatternPred:
		sub := &analysis{sorts: a.sorts, allVars: a.allVars}
		return sub.collectPattern(x.Pattern, false)
	}
	return nil
}
