package bindings

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gcore/internal/value"
)

// refRow is a binding µ written as a map from variable to value: the
// representation the tests build tables from and the reference
// operators in columnar_test.go are written in. Production code has
// only table rows.
type refRow map[string]value.Value

func row(kv ...any) refRow {
	b := refRow{}
	for i := 0; i < len(kv); i += 2 {
		b[kv[i].(string)] = kv[i+1].(value.Value)
	}
	return b
}

// appendRef appends r to t; variables outside t's schema are dropped.
func appendRef(t *Table, r refRow) {
	dense := make([]value.Value, t.Width())
	for s, v := range t.Vars() {
		if val, ok := r[v]; ok {
			dense[s] = val
		} else {
			dense[s] = value.Absent
		}
	}
	t.data = append(t.data, dense...)
	t.n++
}

// leftJoin is the unlimited Ω1 ⟕ Ω2.
func leftJoin(a, b *Table) *Table {
	out, _ := LeftJoinLimited(a, b, 0)
	return out
}

// Union returns Ω1 ∪ Ω2 (duplicate rows are collapsed: Ω is a set),
// keeping first occurrences in order.
func Union(a, b *Table) *Table {
	vars := unionVars(a, b)
	all, bp := a.Project(vars), b.Project(vars)
	all.data = append(all.data, bp.data...)
	all.n += bp.n
	groups := all.Groups()
	keep := make([]int, len(groups))
	for k, g := range groups {
		keep[k] = g[0]
	}
	return all.Pick(keep)
}

// Project restricts every row (and the schema) to vars.
func (t *Table) Project(vars []string) *Table {
	keep := normVars(vars)
	out := &Table{vars: keep, n: t.n}
	srcSlot := make([]int, len(keep))
	for i, v := range keep {
		srcSlot[i] = t.SlotOf(v)
	}
	w := len(t.vars)
	out.data = make([]value.Value, 0, t.n*len(keep))
	for i := 0; i < t.n; i++ {
		base := i * w
		for _, s := range srcSlot {
			if s < 0 {
				out.data = append(out.data, value.Absent)
			} else {
				out.data = append(out.data, t.data[base+s])
			}
		}
	}
	return out
}

// matchedRows returns the rows of a whose Matched entry is want, in
// order: Ω1 ⋉ Ω2 for true, Ω1 ∖ Ω2 for false.
func matchedRows(a, b *Table, want bool) *Table {
	var rows []int
	for i, hit := range Matched(a, b) {
		if hit == want {
			rows = append(rows, i)
		}
	}
	return a.Pick(rows)
}

// distinct keeps the first row of every group of equal rows, in order.
func distinct(t *Table) *Table {
	var firsts []int
	for _, g := range t.Groups() {
		firsts = append(firsts, g[0])
	}
	return t.Pick(firsts)
}

func tableOf(vars []string, rows ...refRow) *Table {
	t := EmptyTable(vars...)
	for _, r := range rows {
		appendRef(t, r)
	}
	return t
}

// refRowAt returns row i of t as a map holding its bound variables.
func refRowAt(t *Table, i int) refRow {
	b := refRow{}
	for s, v := range t.Vars() {
		if val := t.RowAt(i)[s]; !val.IsAbsent() {
			b[v] = val
		}
	}
	return b
}

func refRows(t *Table) []refRow {
	out := make([]refRow, t.Len())
	for i := range out {
		out[i] = refRowAt(t, i)
	}
	return out
}

// TestCompatibleAndMerge: a one-row join is µ1 ∪ µ2 when µ1 ∼ µ2 and
// empty otherwise; Overlay merges row-aligned with the right side
// winning; Blank rows bind nothing until Set.
func TestCompatibleAndMerge(t *testing.T) {
	a := tableOf([]string{"x", "y"}, row("x", value.NodeRef(1), "y", value.Int(2)))
	b := tableOf([]string{"y", "z"}, row("y", value.Int(2), "z", value.Str("s")))
	c := tableOf([]string{"y"}, row("y", value.Int(3)))
	if Join(a, b).Len() != 1 || Join(a, c).Len() != 0 {
		t.Fatal("compatibility misjudged")
	}
	if Join(a, Unit()).Len() != 1 || Join(Unit(), a).Len() != 1 {
		t.Fatal("µ∅ is compatible with everything")
	}
	m := refRowAt(Join(a, b), 0)
	if len(m) != 3 || !value.Equal(m["z"], value.Str("s")) {
		t.Fatalf("merge = %v", m)
	}
	o := Blank(1, "y", "w")
	if o.Len() != 1 || len(refRowAt(o, 0)) != 0 {
		t.Fatalf("Blank row binds %v", refRowAt(o, 0))
	}
	o.Set(0, o.SlotOf("y"), value.Int(9))
	ov := refRowAt(a.Overlay(o), 0)
	if len(ov) != 2 || !value.Equal(ov["y"], value.Int(9)) || !value.Equal(ov["x"], value.NodeRef(1)) {
		t.Fatalf("overlay = %v", ov)
	}
}

func TestBindingKeyAndString(t *testing.T) {
	tbl := tableOf([]string{"x", "y"},
		row("x", value.Int(1)),
		row("x", value.Int(1), "y", value.Int(2)),
		row("x", value.Int(1)))
	groups := tbl.Groups()
	if len(groups) != 2 || len(groups[0]) != 2 || groups[0][1] != 2 {
		t.Errorf("groups = %v, want [[0 2] [1]]: equal rows group, an unbound var is distinguished", groups)
	}
	if !strings.Contains(tbl.String(), "1\t2") {
		t.Errorf("String = %q", tbl.String())
	}
}

// The worked example of §A.2: three pattern tables joined to a single
// binding {x↦105, y↦102, w↦106, z↦301}.
func TestJoinPaperExample(t *testing.T) {
	t1 := tableOf([]string{"x", "w"},
		row("x", value.NodeRef(105), "w", value.NodeRef(106)),
		row("x", value.NodeRef(102), "w", value.NodeRef(106)))
	t2 := tableOf([]string{"y", "w"},
		row("y", value.NodeRef(102), "w", value.NodeRef(106)),
		row("y", value.NodeRef(105), "w", value.NodeRef(106)))
	t3 := tableOf([]string{"z", "x", "y"},
		row("z", value.PathRef(301), "x", value.NodeRef(105), "y", value.NodeRef(102)))

	j12 := Join(t1, t2)
	if j12.Len() != 4 {
		t.Fatalf("t1 ⋈ t2 has %d rows, want 4 (cartesian on shared w)", j12.Len())
	}
	j := Join(j12, t3)
	if j.Len() != 1 {
		t.Fatalf("final join has %d rows, want 1", j.Len())
	}
	got := refRowAt(j, 0)
	want := row("x", value.NodeRef(105), "y", value.NodeRef(102), "w", value.NodeRef(106), "z", value.PathRef(301))
	if !refCompatible(got, want) || len(got) != 4 {
		t.Fatalf("join row = %v", got)
	}
}

func TestJoinDisjointIsCartesian(t *testing.T) {
	a := tableOf([]string{"a"}, row("a", value.Int(1)), row("a", value.Int(2)))
	b := tableOf([]string{"b"}, row("b", value.Int(3)), row("b", value.Int(4)))
	j := Join(a, b)
	if j.Len() != 4 {
		t.Fatalf("cartesian product has %d rows", j.Len())
	}
}

func TestUnionDedups(t *testing.T) {
	a := tableOf([]string{"x"}, row("x", value.Int(1)))
	b := tableOf([]string{"x"}, row("x", value.Int(1)), row("x", value.Int(2)))
	u := Union(a, b)
	if u.Len() != 2 {
		t.Fatalf("union has %d rows", u.Len())
	}
}

func TestSemiAntiLeftJoin(t *testing.T) {
	people := tableOf([]string{"n"},
		row("n", value.NodeRef(1)), row("n", value.NodeRef(2)), row("n", value.NodeRef(3)))
	works := tableOf([]string{"n", "c"},
		row("n", value.NodeRef(1), "c", value.Str("Acme")),
		row("n", value.NodeRef(1), "c", value.Str("HAL")),
		row("n", value.NodeRef(2), "c", value.Str("CWI")))

	if got := matchedRows(people, works, true); got.Len() != 2 {
		t.Errorf("semijoin = %d rows", got.Len())
	}
	anti := matchedRows(people, works, false)
	if anti.Len() != 1 || !value.Equal(refRowAt(anti, 0)["n"], value.NodeRef(3)) {
		t.Errorf("antijoin = %v", refRows(anti))
	}
	lj := leftJoin(people, works)
	if lj.Len() != 4 {
		t.Fatalf("leftjoin = %d rows, want 4", lj.Len())
	}
	// Node 3 keeps a row with c unbound.
	found := false
	for _, r := range refRows(lj) {
		if value.Equal(r["n"], value.NodeRef(3)) {
			if _, bound := r["c"]; bound {
				t.Error("unmatched row must leave optional var unbound")
			}
			found = true
		}
	}
	if !found {
		t.Error("left join lost the unmatched left row")
	}
}

// OPTIONAL semantics corner case: a right row that leaves a shared
// variable unbound is compatible with every left row.
func TestJoinWithUnboundSharedVars(t *testing.T) {
	a := tableOf([]string{"x"}, row("x", value.Int(1)), row("x", value.Int(2)))
	b := tableOf([]string{"x", "y"},
		row("y", value.Int(10)),                    // x unbound: compatible with both
		row("x", value.Int(1), "y", value.Int(20))) // only with x=1
	j := Join(a, b)
	if j.Len() != 3 {
		t.Fatalf("join = %d rows, want 3\n%s", j.Len(), j)
	}
	// And symmetric: left row missing the shared var probes everything.
	j2 := Join(b, a)
	if j2.Len() != 3 {
		t.Fatalf("reverse join = %d rows, want 3\n%s", j2.Len(), j2)
	}
}

func TestFilterProjectDistinctSorted(t *testing.T) {
	tbl := tableOf([]string{"x", "y"},
		row("x", value.Int(2), "y", value.Str("b")),
		row("x", value.Int(1), "y", value.Str("a")),
		row("x", value.Int(2), "y", value.Str("c")))
	var keep []int
	for i := 0; i < tbl.Len(); i++ {
		if v, _ := tbl.Value(i, "x"); value.Equal(v, value.Int(2)) {
			keep = append(keep, i)
		}
	}
	f := tbl.Pick(keep)
	if f.Len() != 2 {
		t.Fatalf("filter = %v", f)
	}
	p := f.Project([]string{"x"})
	if p.Len() != 2 || len(p.Vars()) != 1 {
		t.Fatalf("project = %v", p)
	}
	d := distinct(p)
	if d.Len() != 1 {
		t.Fatalf("distinct = %d rows", d.Len())
	}
	s := tbl.Sorted()
	if v, _ := s.Value(0, "x"); !value.Equal(v, value.Int(1)) {
		t.Error("sorted order wrong")
	}
	if !tbl.HasVar("x") || tbl.HasVar("z") {
		t.Error("HasVar misbehaves")
	}
}

func TestUnitAndEmpty(t *testing.T) {
	u := Unit()
	if u.Len() != 1 || len(refRowAt(u, 0)) != 0 {
		t.Error("Unit must hold exactly µ∅")
	}
	e := EmptyTable("x")
	if e.Len() != 0 || !e.HasVar("x") {
		t.Error("EmptyTable misbehaves")
	}
	// Joining with Unit is the identity on rows.
	tbl := tableOf([]string{"x"}, row("x", value.Int(1)))
	if j := Join(u, tbl); j.Len() != 1 {
		t.Error("Unit ⋈ Ω must equal Ω")
	}
	// µ∅ semijoin keeps everything; antijoin with Unit removes all.
	if s := matchedRows(tbl, u, true); s.Len() != 1 {
		t.Error("Ω ⋉ {µ∅} = Ω")
	}
	if a := matchedRows(tbl, u, false); a.Len() != 0 {
		t.Error("Ω ∖ {µ∅} = ∅ (µ∅ is compatible with all)")
	}
}

func TestTableString(t *testing.T) {
	tbl := tableOf([]string{"x", "y"}, row("x", value.Int(1)))
	s := tbl.String()
	if !strings.Contains(s, "x\ty") || !strings.Contains(s, "·") {
		t.Errorf("String = %q", s)
	}
}

// randTable builds a random table over vars drawn from a tiny domain,
// so the property tests hit collisions and unbound vars.
func randTable(r *rand.Rand, vars []string) *Table {
	t := EmptyTable(vars...)
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		b := refRow{}
		for _, v := range vars {
			switch r.Intn(3) {
			case 0:
				b[v] = value.Int(int64(r.Intn(3)))
			case 1:
				b[v] = value.Str("s")
			}
			// case 2: leave unbound
		}
		appendRef(t, b)
	}
	return t
}

// TestQuickLeftJoinDecomposition checks Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 ∖ Ω2)
// and the semijoin/antijoin partition of Ω1.
func TestQuickLeftJoinDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTable(r, []string{"x", "y"})
		b := randTable(r, []string{"y", "z"})

		lj := leftJoin(a, b)
		dec := Union(Join(a, b), matchedRows(a, b, false))
		if distinct(lj).Sorted().String() != distinct(dec).Sorted().String() {
			return false
		}
		// ⋉ and ∖ partition Ω1 (as sets of rows).
		part := Union(matchedRows(a, b, true), matchedRows(a, b, false))
		return distinct(part).Sorted().String() == distinct(a).Sorted().String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinCommutes checks Ω1 ⋈ Ω2 = Ω2 ⋈ Ω1 as sets.
func TestQuickJoinCommutes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTable(r, []string{"x", "y"})
		b := randTable(r, []string{"y", "z"})
		ab := distinct(Join(a, b)).Sorted()
		ba := distinct(Join(b, a)).Sorted()
		return ab.String() == ba.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickJoinMatchesNestedLoop validates the hybrid hash join against
// the obviously correct nested-loop definition.
func TestQuickJoinMatchesNestedLoop(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randTable(r, []string{"x", "y"})
		b := randTable(r, []string{"y", "z"})
		naive := EmptyTable("x", "y", "z")
		for _, l := range refRows(a) {
			for _, rr := range refRows(b) {
				if refCompatible(l, rr) {
					appendRef(naive, refMerge(l, rr))
				}
			}
		}
		return distinct(Join(a, b)).Sorted().String() == distinct(naive).Sorted().String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestJoinLimited(t *testing.T) {
	a := EmptyTable("x")
	b := EmptyTable("y")
	for i := 0; i < 50; i++ {
		appendRef(a, row("x", value.Int(int64(i))))
		appendRef(b, row("y", value.Int(int64(i))))
	}
	// Cartesian would be 2500 rows; the limit aborts early.
	out, over := JoinLimited(a, b, 100)
	if !over {
		t.Fatal("overflow not reported")
	}
	if out.Len() > 101 {
		t.Fatalf("materialised %d rows past the limit", out.Len())
	}
	// Under the limit: identical to Join.
	out, over = JoinLimited(a, b, 10_000)
	if over || out.Len() != 2500 {
		t.Fatalf("join = %d rows, over=%v", out.Len(), over)
	}
	lj, over := LeftJoinLimited(a, b, 100)
	if !over || lj.Len() > 101 {
		t.Fatalf("left join limit: %d rows, over=%v", lj.Len(), over)
	}
	// Zero means unlimited.
	if out, over := JoinLimited(a, b, 0); over || out.Len() != 2500 {
		t.Fatal("zero limit must be unlimited")
	}
}

// TestSplitUndoesWithOrdinal: joining with a table whose rows carry
// their ordinals and splitting by them gives each row its own join,
// rows in join order, the tag column dropped.
func TestSplitUndoesWithOrdinal(t *testing.T) {
	outer := tableOf([]string{"n"},
		row("n", value.NodeRef(1)), row("n", value.NodeRef(2)), row("n", value.NodeRef(3)))
	inner := tableOf([]string{"n", "c"},
		row("n", value.NodeRef(1), "c", value.Str("a")),
		row("n", value.NodeRef(2), "c", value.Str("b")),
		row("n", value.NodeRef(1), "c", value.Str("c")))
	parts := Join(inner, outer.WithOrdinal("@row")).Split("@row", outer.Len())
	if len(parts) != 3 {
		t.Fatalf("%d parts, want 3", len(parts))
	}
	for i, part := range parts {
		if got, want := part.String(), Join(inner, outer.Pick([]int{i})).String(); got != want {
			t.Errorf("part %d:\n%swant:\n%s", i, got, want)
		}
	}
}
