package core

import (
	"slices"

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
	// select items and ORDER BY keys into rows.
	rows := &projRows{width: len(sc.Items), nkeys: len(sc.OrderBy)}
	evalRow := func() error {
		for _, it := range items {
			v, err := it.eval(env)
			if err != nil {
				return err
			}
			rows.vals = append(rows.vals, v)
		}
		vals := rows.vals[len(rows.vals)-len(items):]
		for i, oi := range sc.OrderBy {
			if vr, ok := oi.Expr.(*ast.VarRef); ok {
				if col, isAlias := alias[vr.Name]; isAlias {
					rows.keys = append(rows.keys, vals[col])
					continue
				}
			}
			v, err := orderKeys[i].eval(env)
			if err != nil {
				return err
			}
			rows.keys = append(rows.keys, v)
		}
		rows.n++
		return nil
	}

	sorted := tbl.Sorted()
	env.setTable(sorted)
	if !hasAgg {
		// No aggregates: one output row per binding.
		rows.grow(sorted.Len())
		for ri := 0; ri < sorted.Len(); ri++ {
			env.rowIdx = ri
			if err := evalRow(); err != nil {
				return nil, err
			}
		}
		return finishSelect(out, sc, rows), nil
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

	rows.grow(len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			env.rowIdx = g[0]
		}
		env.groupRows = g
		if err := evalRow(); err != nil {
			return nil, err
		}
	}
	return finishSelect(out, sc, rows), nil
}

// projRows is the projected output, row by row back to back: row i's
// items are vals[i*width:], its ORDER BY keys keys[i*nkeys:]. The
// output table keeps vals as its rows.
type projRows struct {
	width, nkeys, n int
	vals, keys      []value.Value
}

// grow makes room for n more rows.
func (r *projRows) grow(n int) {
	r.vals = slices.Grow(r.vals, n*r.width)
	r.keys = slices.Grow(r.keys, n*r.nkeys)
}

func (r *projRows) row(i int) []value.Value {
	return r.vals[i*r.width : (i+1)*r.width : (i+1)*r.width]
}

func (r *projRows) key(i int) []value.Value { return r.keys[i*r.nkeys : (i+1)*r.nkeys] }

// finishSelect applies ORDER BY, DISTINCT and LIMIT to the projected
// rows and hands their values to the output table as its rows.
func finishSelect(out *table.Table, sc *ast.SelectClause, rows *projRows) *table.Table {
	order := make([]int, rows.n)
	for i := range order {
		order[i] = i
	}
	if len(sc.OrderBy) > 0 {
		slices.SortStableFunc(order, func(i, j int) int {
			ki, kj := rows.key(i), rows.key(j)
			for k, oi := range sc.OrderBy {
				d := value.Compare(ki[k], kj[k])
				if oi.Desc {
					d = -d
				}
				if d != 0 {
					return d
				}
			}
			return 0
		})
	}
	if sc.Distinct {
		// First occurrences in order: one row per group of equal rows.
		keys := keyTable(len(order), rows.width)
		for ri, i := range order {
			for k, v := range rows.row(i) {
				keys.Set(ri, k, v)
			}
		}
		groups := keys.Groups()
		distinct := make([]int, len(groups))
		for k, g := range groups {
			distinct[k] = order[g[0]]
		}
		order = distinct
	}
	if sc.Limit >= 0 && len(order) > sc.Limit {
		order = order[:sc.Limit]
	}
	if len(order) > 0 {
		out.Rows = make([][]value.Value, len(order))
		for i, ri := range order {
			out.Rows[i] = rows.row(ri)
		}
	}
	return out
}

func firstGraph(graphs []*ppg.Graph, fallback *ppg.Graph) *ppg.Graph {
	if len(graphs) > 0 {
		return graphs[0]
	}
	return fallback
}
