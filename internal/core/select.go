package core

import (
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/ppg"
	"gcore/internal/table"
	"gcore/internal/value"
)

// evalSelect implements the §5 tabular-projection extension: the
// binding table of MATCH/FROM is projected through the select
// expressions into a table. This makes the language multi-sorted (the
// paper flags it as an extension precisely because of that); the
// engine reports the result as a Table instead of a Graph.
//
// When the select list contains aggregates, rows group by the values
// of the non-aggregate items and the aggregates fold per group — the
// "aggregation" half of the extension the paper sketches.
func (c *evalCtx) evalSelect(s *scope, sc *ast.SelectClause, tbl *bindings.Table, graphs []*ppg.Graph) (*table.Table, error) {
	cols := make([]string, len(sc.Items))
	for i, it := range sc.Items {
		if it.As != "" {
			cols[i] = it.As
		} else {
			cols[i] = ast.ExprString(it.Expr)
		}
	}
	out := table.New("", cols...)
	env := c.newEnv(s, graphs, firstGraph(graphs, c.defaultGraphOrNil()))
	env.groupSchema = tbl.Vars()

	// ORDER BY may reference select-list aliases (ORDER BY ln DESC).
	alias := map[string]int{}
	for i, it := range sc.Items {
		if it.As != "" {
			alias[it.As] = i
		}
	}

	aggItem := make([]bool, len(sc.Items))
	hasAgg := false
	for i, it := range sc.Items {
		aggItem[i] = exprHasAggregate(it.Expr)
		hasAgg = hasAgg || aggItem[i]
	}

	// evalRow projects one µ (the current environment row) through the
	// select items and ORDER BY keys.
	evalRow := func() (projRow, error) {
		vals := make([]value.Value, len(sc.Items))
		for i, it := range sc.Items {
			v, err := env.eval(it.Expr)
			if err != nil {
				return projRow{}, err
			}
			vals[i] = v
		}
		keys := make([]value.Value, len(sc.OrderBy))
		for i, oi := range sc.OrderBy {
			if vr, ok := oi.Expr.(*ast.VarRef); ok {
				if col, isAlias := alias[vr.Name]; isAlias {
					keys[i] = vals[col]
					continue
				}
			}
			v, err := env.eval(oi.Expr)
			if err != nil {
				return projRow{}, err
			}
			keys[i] = v
		}
		return projRow{vals, keys}, nil
	}

	sorted := tbl.Sorted()
	var rows []projRow
	if !hasAgg {
		// No aggregates: one output row per binding. Rows dispatch
		// through the slot table (and property reads through the
		// snapshot columns) instead of materialising a map per row.
		env.rowTab = sorted
		for ri := 0; ri < sorted.Len(); ri++ {
			env.rowIdx = ri
			r, err := evalRow()
			if err != nil {
				env.rowTab = nil
				return nil, err
			}
			rows = append(rows, r)
		}
		env.rowTab = nil
		return finishSelect(out, sc, rows)
	}

	// Aggregating: one output row per group — a representative binding
	// and the group's rows, grouped by the evaluated values of the
	// non-aggregate items (the implicit GROUP BY of SQL-style
	// aggregation).
	type outGroup struct {
		rep  bindings.Binding
		rows []bindings.Binding
	}
	var groups []outGroup
	sortedRows := sorted.Rows()
	idx := map[string]int{}
	for _, b := range sortedRows {
		env.row = b
		key := ""
		for i, it := range sc.Items {
			if aggItem[i] {
				continue
			}
			v, err := env.eval(it.Expr)
			if err != nil {
				return nil, err
			}
			key += v.Key() + "|"
		}
		gi, ok := idx[key]
		if !ok {
			gi = len(groups)
			idx[key] = gi
			groups = append(groups, outGroup{rep: b})
		}
		groups[gi].rows = append(groups[gi].rows, b)
	}
	if len(sortedRows) == 0 && allAggregates(aggItem) {
		// SELECT COUNT(*) over an empty match still yields one row
		// (the aggregate of the empty group).
		groups = append(groups, outGroup{rep: bindings.Empty(), rows: []bindings.Binding{}})
	}

	for _, g := range groups {
		env.row = g.rep
		env.groupRows = g.rows
		r, err := evalRow()
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	env.groupRows = nil
	return finishSelect(out, sc, rows)
}

// projRow is one projected output row with its ORDER BY sort keys.
type projRow struct {
	vals []value.Value
	keys []value.Value
}

// finishSelect applies ORDER BY, DISTINCT and LIMIT to the projected
// rows and fills the output table.
func finishSelect(out *table.Table, sc *ast.SelectClause, rows []projRow) (*table.Table, error) {
	if len(sc.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k, oi := range sc.OrderBy {
				d := value.Compare(rows[i].keys[k], rows[j].keys[k])
				if oi.Desc {
					d = -d
				}
				if d != 0 {
					return d < 0
				}
			}
			return false
		})
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if sc.Distinct {
			k := ""
			for _, v := range r.vals {
				k += v.Key() + "|"
			}
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		if sc.Limit >= 0 && out.Len() >= sc.Limit {
			break
		}
		if err := out.AddRow(r.vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func allAggregates(aggItem []bool) bool {
	for _, a := range aggItem {
		if !a {
			return false
		}
	}
	return true
}

// exprHasAggregate reports whether an expression contains an
// aggregation function call.
func exprHasAggregate(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Unary:
		return exprHasAggregate(x.X)
	case *ast.Binary:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *ast.FuncCall:
		if x.Star {
			return true
		}
		if _, ok := aggName(x.Name); ok {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
		return false
	case *ast.Index:
		return exprHasAggregate(x.Base) || exprHasAggregate(x.Idx)
	case *ast.Case:
		if exprHasAggregate(x.Operand) || exprHasAggregate(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasAggregate(w.Cond) || exprHasAggregate(w.Then) {
				return true
			}
		}
		return false
	}
	return false
}

func firstGraph(graphs []*ppg.Graph, fallback *ppg.Graph) *ppg.Graph {
	if len(graphs) > 0 {
		return graphs[0]
	}
	return fallback
}
