package core

import (
	"slices"
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

	items := make([]*cexpr, len(sc.Items))
	aggItem := make([]bool, len(sc.Items))
	hasAgg := false
	for i, it := range sc.Items {
		items[i] = c.expr(it.Expr)
		aggItem[i] = items[i].agg
		hasAgg = hasAgg || aggItem[i]
	}
	orderKeys := make([]*cexpr, len(sc.OrderBy))
	for i, oi := range sc.OrderBy {
		orderKeys[i] = c.expr(oi.Expr)
	}

	// evalRow projects one µ (the current environment row) through the
	// select items and ORDER BY keys, both carved from one allocation.
	evalRow := func() (projRow, error) {
		buf := make([]value.Value, len(sc.Items)+len(sc.OrderBy))
		vals, keys := buf[:len(sc.Items):len(sc.Items)], buf[len(sc.Items):]
		for i, it := range items {
			v, err := it.eval(env)
			if err != nil {
				return projRow{}, err
			}
			vals[i] = v
		}
		for i, oi := range sc.OrderBy {
			if vr, ok := oi.Expr.(*ast.VarRef); ok {
				if col, isAlias := alias[vr.Name]; isAlias {
					keys[i] = vals[col]
					continue
				}
			}
			v, err := orderKeys[i].eval(env)
			if err != nil {
				return projRow{}, err
			}
			keys[i] = v
		}
		return projRow{vals, keys}, nil
	}

	sorted := tbl.Sorted()
	env.setTable(sorted)
	var rows []projRow
	if !hasAgg {
		// No aggregates: one output row per binding.
		for ri := 0; ri < sorted.Len(); ri++ {
			env.rowIdx = ri
			r, err := evalRow()
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
		return finishSelect(out, sc, rows)
	}

	// Aggregating: one output row per group of sorted rows, grouped by
	// the evaluated values of the non-aggregate items (the implicit
	// GROUP BY of SQL-style aggregation) in order of first appearance,
	// and evaluated on its first row.
	var keyExprs []*cexpr
	for i, it := range items {
		if !aggItem[i] {
			keyExprs = append(keyExprs, it)
		}
	}
	keys := keyTable(sorted.Len(), len(keyExprs))
	for ri := 0; ri < sorted.Len(); ri++ {
		env.rowIdx = ri
		for k, e := range keyExprs {
			v, err := e.eval(env)
			if err != nil {
				return nil, err
			}
			keys.Set(ri, k, v)
		}
	}
	groups := keys.Groups()
	if sorted.Len() == 0 && !slices.Contains(aggItem, false) {
		// SELECT COUNT(*) over an empty match still yields one row
		// (the aggregate of the empty group, evaluated on µ∅).
		env.setTable(nil)
		groups = append(groups, []int{})
	}

	for _, g := range groups {
		if len(g) > 0 {
			env.rowIdx = g[0]
		}
		env.groupRows = g
		r, err := evalRow()
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
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
	if sc.Distinct {
		// First occurrences in order: one row per group of equal rows.
		keys := keyTable(len(rows), len(sc.Items))
		for ri, r := range rows {
			for k, v := range r.vals {
				keys.Set(ri, k, v)
			}
		}
		groups := keys.Groups()
		distinct := make([]projRow, len(groups))
		for k, g := range groups {
			distinct[k] = rows[g[0]]
		}
		rows = distinct
	}
	for _, r := range rows {
		if sc.Limit >= 0 && out.Len() >= sc.Limit {
			break
		}
		if err := out.AddRow(r.vals...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func firstGraph(graphs []*ppg.Graph, fallback *ppg.Graph) *ppg.Graph {
	if len(graphs) > 0 {
		return graphs[0]
	}
	return fallback
}
