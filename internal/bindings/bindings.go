// Package bindings implements the variable-binding machinery of
// G-CORE's semantics (§A.1 of the paper): bindings µ are partial
// functions from variables to graph objects and literals, and binding
// tables Ω are finite sets of bindings on which the evaluator applies
// the operators ⋈ (join), the left-outer join ⟕ used by OPTIONAL, and
// ⋉ (semijoin) with its complement ∖ (antijoin) as one row mask,
// Matched, used by correlated subqueries.
//
// Tables are stored columnar: the schema interns each variable to a
// slot index and rows live in one flat row-major []value.Value backing
// array, with value.Absent marking unbound slots (µ is partial). Merge
// and row copies are slice copies, and the join family buckets rows by
// a uint64 hash of the shared slots (value.Value.Hash, consistent with
// value.Equal) with slot-wise equality confirmation on probe — no
// per-row maps, no string key building. A binding is always a row of a
// table, addressed as (table, row index); there is no map form of µ.
// Rows have one order, CompareRows, and one grouping, Table.Groups,
// whose equality is the order's.
package bindings

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"gcore/internal/value"
)

// Table is a binding table Ω: a set of bindings together with the
// variables that may occur in them (its schema). The schema is the
// union of the variables of the contributing patterns; individual
// rows may leave schema variables unbound (OPTIONAL).
//
// Layout: vars is the sorted schema (variable → slot by binary
// search), data holds the rows back to back (row i occupies
// data[i*len(vars) : (i+1)*len(vars)]), and value.Absent marks
// unbound slots. n tracks the row count explicitly so zero-width
// tables (Unit) still know how many µ∅ rows they hold.
type Table struct {
	vars []string // sorted
	data []value.Value
	n    int
}

// Unit returns the table {µ∅}: one row binding nothing. It is the
// starting Ω′ of a top-level MATCH (§A.5).
func Unit() *Table { return Blank(1) }

// Blank returns a table of n rows over vars that bind nothing; Set
// fills them in.
func Blank(n int, vars ...string) *Table {
	t := &Table{vars: normVars(vars), n: n}
	t.data = absentTemplate(n * len(t.vars))
	return t
}

// EmptyTable returns a table with no rows.
func EmptyTable(vars ...string) *Table { return &Table{vars: normVars(vars)} }

func normVars(vars []string) []string {
	vs := append([]string(nil), vars...)
	sort.Strings(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// Vars returns the table's schema in sorted order.
func (t *Table) Vars() []string { return t.vars }

// Width returns the number of schema variables (slots per row).
func (t *Table) Width() int { return len(t.vars) }

// SlotOf returns the slot index of v in the schema, or -1.
func (t *Table) SlotOf(v string) int {
	i := sort.SearchStrings(t.vars, v)
	if i < len(t.vars) && t.vars[i] == v {
		return i
	}
	return -1
}

// HasVar reports whether v is part of the schema.
func (t *Table) HasVar(v string) bool { return t.SlotOf(v) >= 0 }

// Len returns |Ω|.
func (t *Table) Len() int { return t.n }

// RowAt returns row i as a slot-ordered slice; unbound slots hold
// value.Absent. The slice aliases the table and must not be modified.
func (t *Table) RowAt(i int) []value.Value {
	w := len(t.vars)
	return t.data[i*w : (i+1)*w : (i+1)*w]
}

// Value returns the value bound to name in row i; ok is false when the
// variable is unbound there (or not in the schema at all).
func (t *Table) Value(i int, name string) (value.Value, bool) {
	s := t.SlotOf(name)
	if s < 0 {
		return value.Null, false
	}
	v := t.data[i*len(t.vars)+s]
	if v.IsAbsent() {
		return value.Null, false
	}
	return v, true
}

// Set binds slot of row i to v.
func (t *Table) Set(i, slot int, v value.Value) { t.data[i*len(t.vars)+slot] = v }

// Grow makes room for n more rows, so the next n AppendRows do not
// reallocate.
func (t *Table) Grow(n int) { t.data = slices.Grow(t.data, n*len(t.vars)) }

// AppendRow appends a copy of row, Width() values in slot order.
func (t *Table) AppendRow(row []value.Value) {
	t.data = append(t.data, row...)
	t.n++
}

// Pick returns a new table holding the given rows, in the given order.
func (t *Table) Pick(rows []int) *Table {
	out := &Table{vars: t.vars, n: len(rows)}
	w := len(t.vars)
	out.data = make([]value.Value, 0, len(rows)*w)
	for _, i := range rows {
		out.data = append(out.data, t.data[i*w:(i+1)*w]...)
	}
	return out
}

// WithOrdinal returns a copy of the table extended by a column binding
// name to the row's current ordinal (replacing the column if the
// schema has one). The evaluator uses it to tag rows before a
// reordered join so the textual emission order can be restored
// afterwards, and to tag an outer table's rows so Split can cut a
// result joined with it back into one table per outer row.
func (t *Table) WithOrdinal(name string) *Table {
	ord := Blank(t.n, name)
	for i := range ord.data {
		ord.data[i] = value.Int(int64(i))
	}
	return t.Overlay(ord)
}

// Split cuts t into n tables by its ordinal column tag (values in
// [0, n), as WithOrdinal binds them), without that column. Each part
// keeps t's row order, and all share one schema.
func (t *Table) Split(tag string, n int) []*Table {
	slot := t.SlotOf(tag)
	vars := slices.Delete(slices.Clone(t.vars), slot, slot+1)
	tabs, parts := make([]Table, n), make([]*Table, n)
	for k := range tabs {
		tabs[k].vars, parts[k] = vars, &tabs[k]
	}
	for i := 0; i < t.n; i++ {
		row := t.RowAt(i)
		k, _ := row[slot].AsInt()
		p := &tabs[k]
		p.data = append(append(p.data, row[:slot]...), row[slot+1:]...)
		p.n++
	}
	return parts
}

// DropVars returns a copy of the table without the listed variables.
func (t *Table) DropVars(names ...string) *Table {
	out := &Table{n: t.n}
	var keep []int
	for s, v := range t.vars {
		if !slices.Contains(names, v) {
			out.vars, keep = append(out.vars, v), append(keep, s)
		}
	}
	out.data = make([]value.Value, 0, t.n*len(keep))
	for i := 0; i < t.n; i++ {
		row := t.RowAt(i)
		for _, s := range keep {
			out.data = append(out.data, row[s])
		}
	}
	return out
}

// sharedVars returns the schema intersection of two tables.
func sharedVars(a, b *Table) []string {
	out := []string{}
	for _, v := range a.vars {
		if b.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

func unionVars(a, b *Table) []string {
	return normVars(append(append([]string(nil), a.vars...), b.vars...))
}

// slotsOf maps variable names to their slots in t (all must exist).
func slotsOf(t *Table, vars []string) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = t.SlotOf(v)
	}
	return out
}

// slotMapping maps each slot of src to its slot in dst (src ⊆ dst).
func slotMapping(src, dst []string) []int {
	out := make([]int, len(src))
	j := 0
	for i, v := range src {
		for dst[j] != v {
			j++
		}
		out[i] = j
	}
	return out
}

// absentTemplate is an all-Absent row used to grow output slabs.
func absentTemplate(w int) []value.Value {
	tmpl := make([]value.Value, w)
	for i := range tmpl {
		tmpl[i] = value.Absent
	}
	return tmpl
}

// rowBoundAll reports whether row i binds every listed slot.
func (t *Table) rowBoundAll(i int, slots []int) bool {
	base := i * len(t.vars)
	for _, s := range slots {
		if t.data[base+s].IsAbsent() {
			return false
		}
	}
	return true
}

// rowHash folds the listed slots of row i into a hash consistent with
// slot-wise value.Equal (Absent carries its own tag).
func (t *Table) rowHash(i int, slots []int) uint64 {
	h := value.HashSeed()
	base := i * len(t.vars)
	for _, s := range slots {
		h = t.data[base+s].Hash(h)
	}
	return h
}

// rowsEqualOn reports slot-wise equality (Absent equals only Absent):
// row identity for Groups.
func rowsEqualOn(a *Table, i int, aSlots []int, b *Table, j int, bSlots []int) bool {
	ab, bb := i*len(a.vars), j*len(b.vars)
	for k := range aSlots {
		if !value.Equal(a.data[ab+aSlots[k]], b.data[bb+bSlots[k]]) {
			return false
		}
	}
	return true
}

// rowsCompatibleOn reports µ1 ∼ µ2 over the shared slots: a slot
// unbound on either side constrains nothing.
func rowsCompatibleOn(a *Table, i int, aSlots []int, b *Table, j int, bSlots []int) bool {
	ab, bb := i*len(a.vars), j*len(b.vars)
	for k := range aSlots {
		va, vb := a.data[ab+aSlots[k]], b.data[bb+bSlots[k]]
		if va.IsAbsent() || vb.IsAbsent() {
			continue
		}
		if !value.Equal(va, vb) {
			return false
		}
	}
	return true
}

// CompareRows is the one order on binding rows: lexicographic over the
// slots, an unbound slot before every bound one, bound values by
// value.Compare, and a row before any longer row it is a prefix of. It
// is the canonical row order (Sorted), the join's unbound-probe order,
// and the order in which CONSTRUCT mints identifiers for its groups.
func CompareRows(a, b []value.Value) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if c := compareSlot(a[k], b[k]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareSlot orders two slot values as CompareRows does: unbound
// before bound, bound values by value.Compare.
func compareSlot(x, y value.Value) int {
	switch xa, ya := x.IsAbsent(), y.IsAbsent(); {
	case xa && ya:
		return 0
	case xa:
		return -1
	case ya:
		return 1
	}
	return value.Compare(x, y)
}

// order returns the row indexes of t stably sorted by CompareRows over
// the listed slots, in the order listed, or over whole rows when slots
// is nil.
func (t *Table) order(slots []int) []int {
	keys, k := t.data, len(t.vars)
	if slots != nil {
		k = len(slots)
		keys = make([]value.Value, 0, t.n*k)
		for i := 0; i < t.n; i++ {
			row := t.RowAt(i)
			for _, s := range slots {
				keys = append(keys, row[s])
			}
		}
	}
	perm := make([]int, t.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(x, y int) int {
		return CompareRows(keys[x*k:(x+1)*k], keys[y*k:(y+1)*k])
	})
	return perm
}

// Sorted returns the table with its rows stably sorted by CompareRows
// over the listed variables, in the order listed (all must be in the
// schema); with none listed, over whole rows, which is the canonical
// row order of deterministic output. A table already in that order is
// returned itself, which is why the result must be treated as
// read-only; any other is copied.
func (t *Table) Sorted(vars ...string) *Table {
	var slots []int
	if len(vars) > 0 {
		slots = slotsOf(t, vars)
	}
	if t.ascends(slots) {
		return t
	}
	return t.Pick(t.order(slots))
}

// ascends reports whether the rows are in CompareRows order over the
// listed slots (nil: whole rows).
func (t *Table) ascends(slots []int) bool {
	if slots == nil {
		slots = t.allSlots()
	}
	for i := 1; i < t.n; i++ {
		if t.compareOn(i-1, i, slots) > 0 {
			return false
		}
	}
	return true
}

// Groups partitions the rows of t by slot-wise equality (an unbound
// slot equals only an unbound slot, bound values compare by
// value.Equal) and returns each group's row indexes in input order,
// the groups in order of first appearance. Rows meet in value.Hash
// buckets and are confirmed slot by slot, so two rows share a group
// exactly when they are equal.
func (t *Table) Groups() [][]int { return t.groupsOn(t.allSlots()) }

func (t *Table) allSlots() []int {
	all := make([]int, len(t.vars))
	for i := range all {
		all[i] = i
	}
	return all
}

// groupsOn is Groups over the listed slots only.
func (t *Table) groupsOn(slots []int) [][]int {
	type group struct{ first, size, next int } // next: older group, same hash
	var gs []group
	gid := make([]int, t.n)
	head := map[uint64]int{} // hash → newest group with that hash
	for i := 0; i < t.n; i++ {
		h := t.rowHash(i, slots)
		top, seen := head[h]
		if !seen {
			top = -1
		}
		g := top
		for g >= 0 && !rowsEqualOn(t, i, slots, t, gs[g].first, slots) {
			g = gs[g].next
		}
		if g < 0 {
			g = len(gs)
			gs = append(gs, group{first: i, next: top})
			head[h] = g
		}
		gid[i] = g
		gs[g].size++
	}
	flat := make([]int, t.n)
	groups := make([][]int, len(gs))
	off := 0
	for g := range gs {
		groups[g] = flat[off : off : off+gs[g].size]
		off += gs[g].size
	}
	for i, g := range gid {
		groups[g] = append(groups[g], i)
	}
	return groups
}

// compareOn is CompareRows of rows i and j restricted to the listed
// slots, in the order listed.
func (t *Table) compareOn(i, j int, slots []int) int {
	a, b := t.RowAt(i), t.RowAt(j)
	for _, s := range slots {
		if c := compareSlot(a[s], b[s]); c != 0 {
			return c
		}
	}
	return 0
}

// OrderedGroups partitions the rows of t by slot-wise equality on the
// listed slots (nil: all of them), as Groups does, and returns the
// groups ordered by CompareRows on those slots, rows in input order
// within each. With
// skipUnbound, the rows whose first listed slot is unbound belong to
// no group. Rows that already ascend on the slots — a path step emits
// its walks so, and a scan its nodes — are cut into runs of equal keys
// in one pass; only rows out of order meet in hash buckets, and their
// groups are sorted after.
func (t *Table) OrderedGroups(slots []int, skipUnbound bool) [][]int {
	if slots == nil {
		slots = t.allSlots()
	}
	groups := t.runs(slots)
	if groups == nil {
		groups = t.groupsOn(slots)
		slices.SortFunc(groups, func(g, h []int) int { return t.compareOn(g[0], h[0], slots) })
	}
	// Unbound sorts first: the skipped rows, all equal, lead.
	if skipUnbound && len(groups) > 0 && t.RowAt(groups[0][0])[slots[0]].IsAbsent() {
		groups = groups[1:]
	}
	return groups
}

// runs returns the runs of rows with equal keys on slots when the rows
// ascend on them, and nil when they do not (or t is empty).
func (t *Table) runs(slots []int) [][]int {
	if t.n == 0 {
		return nil
	}
	rows := make([]int, t.n)
	var groups [][]int
	start := 0
	for i := 1; i < t.n; i++ {
		rows[i] = i
		switch c := t.compareOn(i-1, i, slots); {
		case c > 0:
			return nil
		case c < 0:
			groups = append(groups, rows[start:i:i])
			start = i
		}
	}
	return append(groups, rows[start:])
}

// matcher indexes the rows of a table for compatibility probes on the
// shared variables with another table. Rows that bind all shared
// variables go into hash buckets (insertion order within a bucket);
// rows with unbound shared variables must be checked pairwise and are
// kept in a loose list.
type matcher struct {
	t           *Table
	slots       []int
	buckets     map[uint64][]int
	loose       []int
	denseSorted []int // lazily built for the unbound-left probe
	sortedBuilt bool
}

func newMatcher(t *Table, shared []string) *matcher {
	m := &matcher{t: t, slots: slotsOf(t, shared), buckets: map[uint64][]int{}}
	for j := 0; j < t.n; j++ {
		if t.rowBoundAll(j, m.slots) {
			h := t.rowHash(j, m.slots)
			m.buckets[h] = append(m.buckets[h], j)
		} else {
			m.loose = append(m.loose, j)
		}
	}
	return m
}

// denseInKeyOrder returns the fully-bound rows in CompareRows order of
// their shared slots (ties in insertion order): the candidate order for
// a left row that leaves a shared variable unbound.
func (m *matcher) denseInKeyOrder() []int {
	if !m.sortedBuilt {
		m.sortedBuilt = true
		for _, j := range m.t.order(m.slots) {
			if m.t.rowBoundAll(j, m.slots) {
				m.denseSorted = append(m.denseSorted, j)
			}
		}
	}
	return m.denseSorted
}

// candidates returns, in probe order, the rows of m's table that row i
// of a may be compatible with on the shared slots aS: its hash bucket
// and then the loose rows when the row binds every shared variable,
// else the loose rows and then every dense row in key order.
func (m *matcher) candidates(a *Table, i int, aS []int) [2][]int {
	if a.rowBoundAll(i, aS) {
		return [2][]int{m.buckets[a.rowHash(i, aS)], m.loose}
	}
	return [2][]int{m.loose, m.denseInKeyOrder()}
}

// Join returns Ω1 ⋈ Ω2 = {µ1 ∪ µ2 | µ1 ∼ µ2}.
func Join(a, b *Table) *Table {
	out, _ := JoinLimited(a, b, 0)
	return out
}

// JoinLimited is Join with a row budget: materialisation stops as
// soon as the output exceeds max rows (0 = unlimited) and the second
// result reports the overflow. Stopping *inside* the join matters:
// an adversarial cartesian product must not be allocated before a
// caller-side check can reject it.
func JoinLimited(a, b *Table, max int) (*Table, bool) {
	out, _, over := joinCore(a, b, max, false)
	return out, over
}

// LeftJoinLimited returns Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2), the
// operator the paper writes as the overlined join and uses for
// OPTIONAL, with the same row budget semantics as JoinLimited.
func LeftJoinLimited(a, b *Table, max int) (*Table, bool) {
	out, _, over := joinCore(a, b, max, true)
	return out, over
}

// joinCore drives Join and LeftJoinLimited: per left row (in order),
// its candidates (matcher.candidates), bucket rows in right-insertion
// order and dense rows in CompareRows order of the shared slots.
func joinCore(a, b *Table, max int, left bool) (*Table, int, bool) {
	out := &Table{vars: unionVars(a, b)}
	w := len(out.vars)
	shared := sharedVars(a, b)
	aS, bS := slotsOf(a, shared), slotsOf(b, shared)
	m := newMatcher(b, shared)
	aMap := slotMapping(a.vars, out.vars)
	bMap := slotMapping(b.vars, out.vars)
	tmpl := absentTemplate(w)
	aw, bw := len(a.vars), len(b.vars)

	emit := func(i, j int) bool {
		start := len(out.data)
		out.data = append(out.data, tmpl...)
		row := out.data[start : start+w]
		src := a.data[i*aw : (i+1)*aw]
		for s, v := range src {
			row[aMap[s]] = v
		}
		if j >= 0 {
			src = b.data[j*bw : (j+1)*bw]
			for s, v := range src {
				if !v.IsAbsent() {
					row[bMap[s]] = v
				}
			}
		}
		out.n++
		return max > 0 && out.n > max
	}

	for i := 0; i < a.n; i++ {
		matched := false
		for _, cands := range m.candidates(a, i, aS) {
			for _, j := range cands {
				if rowsCompatibleOn(a, i, aS, b, j, bS) {
					matched = true
					if emit(i, j) {
						return out, i, true
					}
				}
			}
		}
		if left && !matched {
			if emit(i, -1) {
				return out, i, true
			}
		}
	}
	return out, a.n, false
}

// Matched returns the row mask of Ω1 ⋉ Ω2: entry i reports whether
// some µ2 ∈ Ω2 is compatible with row i of a (µ1 ∼ µ2). The rows it
// leaves false are Ω1 ∖ Ω2.
func Matched(a, b *Table) []bool {
	hit := make([]bool, a.n)
	shared := sharedVars(a, b)
	aS, bS := slotsOf(a, shared), slotsOf(b, shared)
	m := newMatcher(b, shared)
	for i := range hit {
		for _, cands := range m.candidates(a, i, aS) {
			for k := 0; k < len(cands) && !hit[i]; k++ {
				hit[i] = rowsCompatibleOn(a, i, aS, b, cands[k], bS)
			}
		}
	}
	return hit
}

// Overlay returns the row-aligned merge of t and o, which must have
// the same number of rows: row i binds what row i of t binds, except
// that every variable bound in row i of o takes o's value.
func (t *Table) Overlay(o *Table) *Table {
	out := &Table{vars: unionVars(t, o), n: t.n}
	w := len(out.vars)
	out.data = absentTemplate(t.n * w)
	tMap, oMap := slotMapping(t.vars, out.vars), slotMapping(o.vars, out.vars)
	for i := 0; i < t.n; i++ {
		row := out.data[i*w : (i+1)*w]
		for s, v := range t.RowAt(i) {
			row[tMap[s]] = v
		}
		for s, v := range o.RowAt(i) {
			if !v.IsAbsent() {
				row[oMap[s]] = v
			}
		}
	}
	return out
}

// String renders the table for diagnostics: header then rows in
// current order.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.vars, "\t"))
	sb.WriteByte('\n')
	w := len(t.vars)
	for i := 0; i < t.n; i++ {
		base := i * w
		for s := range t.vars {
			if s > 0 {
				sb.WriteByte('\t')
			}
			if v := t.data[base+s]; v.IsAbsent() {
				sb.WriteString("·")
			} else {
				sb.WriteString(v.String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
