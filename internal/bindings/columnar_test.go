package bindings

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gcore/internal/value"
)

// Tests for the columnar table layout: Groups puts two rows together
// exactly when they are equal, value.Hash agrees with value.Equal, and
// the hashed operators emit exactly the sequence of a naive nested-loop
// reference, over randomized tables with unbound slots and adversarial
// string values.

// adversarialVals contains strings holding the separator '|', the
// unbound marker '?' and a length-prefix shape that a string-encoded
// row key would have to escape, plus values equal across int and float.
var adversarialVals = []value.Value{
	value.Null,
	value.Bool(true),
	value.Int(0),
	value.Int(2),
	value.Int(10),
	value.Float(math.NaN()),
	value.Str(""),
	value.Str("a"),
	value.Str("?"),
	value.Str("|"),
	value.Str("a|b"),
	value.Str(`a"|s"b`),
	value.Str("2:ab"),
	value.Str("?|"),
	value.Float(1.5),
	value.Float(2),
	value.NodeRef(1),
	value.EdgeRef(1),
	value.List(value.Int(1), value.Str("|")),
}

// TestKeyInjectiveAdversarial: Groups puts two rows in one group iff
// they agree (bound-ness and value) on every slot — grouping by key
// rows is injective. A string-encoded row key that joined raw
// fragments with '|' and wrote a bare '?' for unbound slots would let
// fragments containing those bytes collide across slot boundaries.
func TestKeyInjectiveAdversarial(t *testing.T) {
	vars := []string{"x", "y", "z"}
	// All rows over vars with each slot unbound or any adversarial
	// value would be 20^3; sample instead, plus a few crafted pairs.
	tbl := EmptyTable(vars...)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		b := refRow{}
		for _, v := range vars {
			if j := r.Intn(len(adversarialVals) + 1); j > 0 {
				b[v] = adversarialVals[j-1]
			}
		}
		appendRef(tbl, b)
	}
	gid := groupIDs(tbl)
	for i := 0; i < tbl.Len(); i += 2 {
		a, b := refRowAt(tbl, i), refRowAt(tbl, i+1)
		if (gid[i] == gid[i+1]) != refEqualOn(a, b, vars) {
			t.Fatalf("Groups merged unequal or split equal rows:\na=%v group %d\nb=%v group %d", a, gid[i], b, gid[i+1])
		}
	}
	for _, g := range tbl.Groups() {
		for _, i := range g {
			if !refEqualOn(refRowAt(tbl, g[0]), refRowAt(tbl, i), vars) {
				t.Fatalf("group %v holds unequal rows %d and %d", g, g[0], i)
			}
		}
	}
	crafted := tableOf(vars,
		// The string-key hazard, spelled out: moving a separator
		// across a variable boundary must change the group.
		row("x", value.Str("a|b"), "y", value.Str("c")),
		row("x", value.Str("a"), "y", value.Str("b|c")),
		// A bound '?'-like string must not group with an unbound slot.
		row("x", value.Str("?")),
		row())
	if len(crafted.Groups()) != 4 {
		t.Fatalf("crafted rows grouped as %v, want four singletons", crafted.Groups())
	}
}

// groupIDs returns, per row of t, the index of its group in t.Groups().
func groupIDs(t *Table) []int {
	gid := make([]int, t.Len())
	for g, rows := range t.Groups() {
		for _, i := range rows {
			gid[i] = g
		}
	}
	return gid
}

// FuzzGroupsInjective drives the same invariant from fuzzed strings.
func FuzzGroupsInjective(f *testing.F) {
	f.Add("a|b", "c", "a", "b|c")
	f.Add("?", "x", "", "?|x")
	f.Add("2:ab", "", "2", ":ab")
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2 string) {
		tbl := tableOf([]string{"x", "y"},
			row("x", value.Str(x1), "y", value.Str(y1)),
			row("x", value.Str(x2), "y", value.Str(y2)))
		same := x1 == x2 && y1 == y2
		if (len(tbl.Groups()) == 1) != same {
			t.Fatalf("injectivity broken: %q/%q vs %q/%q", x1, y1, x2, y2)
		}
	})
}

// TestHashMatchesKey: the FNV hash and value.Equal, the equality of
// grouping keys, must agree — equal values hash equal (else a hash
// bucket would split a group), unequal values should essentially never
// collide over the small test domain, and one-slot rows share a group
// exactly when their values are equal.
func TestHashMatchesKey(t *testing.T) {
	seed := value.HashSeed()
	for _, a := range adversarialVals {
		for _, b := range adversarialVals {
			eq := value.Equal(a, b)
			ha, hb := a.Hash(seed), b.Hash(seed)
			if eq && ha != hb {
				t.Fatalf("equal values, unequal hashes: %s vs %s", a, b)
			}
			if !eq && ha == hb {
				t.Fatalf("hash collision in tiny domain: %s vs %s", a, b)
			}
			tbl := tableOf([]string{"x"}, row("x", a), row("x", b))
			if (len(tbl.Groups()) == 1) != eq {
				t.Fatalf("Groups disagrees with Equal on %s vs %s", a, b)
			}
		}
	}
	// Numeric canonicalisation: 2.0 and 2 are Equal, so they must
	// share a hash.
	if value.Float(2).Hash(seed) != value.Int(2).Hash(seed) {
		t.Fatal("integral float must hash like the equal int")
	}
}

// --- naive reference: the nested-loop operators -----------------------

// refCompareOn is the row order written over maps: variable by
// variable, unbound before bound, then value.Compare.
func refCompareOn(a, b refRow, vars []string) int {
	for _, v := range vars {
		av, aok := a[v]
		bv, bok := b[v]
		switch {
		case !aok && !bok:
			continue
		case !aok:
			return -1
		case !bok:
			return 1
		}
		if c := value.Compare(av, bv); c != 0 {
			return c
		}
	}
	return 0
}

func refBoundAll(b refRow, vars []string) bool {
	for _, v := range vars {
		if _, ok := b[v]; !ok {
			return false
		}
	}
	return true
}

func refEqualOn(a, b refRow, vars []string) bool {
	for _, v := range vars {
		av, aok := a[v]
		bv, bok := b[v]
		if aok != bok || (aok && !value.Equal(av, bv)) {
			return false
		}
	}
	return true
}

// refCompatible reports µ1 ∼ µ2: agreement on every shared variable.
func refCompatible(a, b refRow) bool {
	for k, va := range a {
		if vb, ok := b[k]; ok && !value.Equal(va, vb) {
			return false
		}
	}
	return true
}

// refMerge returns µ1 ∪ µ2, b's values winning on shared variables.
func refMerge(a, b refRow) refRow {
	out := make(refRow, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// String renders the row as {x->v, ...} in variable order.
func (b refRow) String() string {
	vs := make([]string, 0, len(b))
	for v := range b {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, v := range vs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v + "->" + b[v].String())
	}
	sb.WriteByte('}')
	return sb.String()
}

func refShared(a, b *Table) []string {
	var out []string
	for _, v := range a.Vars() {
		if b.HasVar(v) {
			out = append(out, v)
		}
	}
	return out
}

// refJoinRows replays the matcher's candidate order exactly: a probe
// bound on all shared vars sees the matching dense rows in insertion
// order then the loose rows; an unbound probe sees the loose rows then
// every dense row in row order of the shared vars.
func refJoinRows(a, b *Table, left bool) []refRow {
	shared := refShared(a, b)
	var dense, loose []refRow
	for _, r := range refRows(b) {
		if refBoundAll(r, shared) {
			dense = append(dense, r)
		} else {
			loose = append(loose, r)
		}
	}
	denseSorted := append([]refRow(nil), dense...)
	sort.SliceStable(denseSorted, func(i, j int) bool {
		return refCompareOn(denseSorted[i], denseSorted[j], shared) < 0
	})
	var out []refRow
	for _, l := range refRows(a) {
		matched := false
		emit := func(r refRow) {
			matched = true
			out = append(out, refMerge(l, r))
		}
		if refBoundAll(l, shared) {
			for _, r := range dense {
				if refEqualOn(l, r, shared) {
					emit(r)
				}
			}
			for _, r := range loose {
				if refCompatible(l, r) {
					emit(r)
				}
			}
		} else {
			for _, r := range loose {
				if refCompatible(l, r) {
					emit(r)
				}
			}
			for _, r := range denseSorted {
				if refCompatible(l, r) {
					emit(r)
				}
			}
		}
		if left && !matched {
			out = append(out, l)
		}
	}
	return out
}

func refDistinctRows(t *Table) []refRow {
	var out []refRow
	for _, r := range refRows(t) {
		dup := false
		for _, s := range out {
			if refEqualOn(r, s, t.Vars()) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

func refUnionRows(a, b *Table, vars []string) []refRow {
	var out []refRow
	for _, t := range []*Table{a, b} {
		for _, r := range refRows(t) {
			dup := false
			for _, s := range out {
				if refEqualOn(r, s, vars) {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, r)
			}
		}
	}
	return out
}

// --- generators ------------------------------------------------------

var propVarPool = []string{"w", "x", "y", "z"}

func propVars(r *rand.Rand) []string {
	var vars []string
	for _, v := range propVarPool {
		if r.Intn(2) == 0 {
			vars = append(vars, v)
		}
	}
	if len(vars) == 0 {
		vars = []string{"x"}
	}
	return vars
}

func propTable(r *rand.Rand, vars []string) *Table {
	t := EmptyTable(vars...)
	n := r.Intn(7)
	for i := 0; i < n; i++ {
		b := refRow{}
		for _, v := range vars {
			if j := r.Intn(len(adversarialVals) + 4); j < len(adversarialVals) {
				b[v] = adversarialVals[j]
			}
			// else: leave the slot unbound
		}
		appendRef(t, b)
	}
	return t
}

func sameRows(got *Table, want []refRow, vars []string) bool {
	if got.Len() != len(want) {
		return false
	}
	for i := 0; i < got.Len(); i++ {
		if !refEqualOn(refRowAt(got, i), want[i], vars) {
			return false
		}
	}
	return true
}

func dumpRows(rows []refRow) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func dumpTable(t *Table) string {
	var sb strings.Builder
	for i := 0; i < t.Len(); i++ {
		sb.WriteString(refRowAt(t, i).String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestColumnarJoinMatchesReference: Join and LeftJoinLimited reproduce
// the reference emission sequence exactly — row for row, not just as
// sets.
func TestColumnarJoinMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		a := propTable(r, propVars(r))
		b := propTable(r, propVars(r))
		all := normVars(append(append([]string(nil), a.Vars()...), b.Vars()...))
		if got, want := Join(a, b), refJoinRows(a, b, false); !sameRows(got, want, all) {
			t.Fatalf("case %d: Join diverged\na:\n%sb:\n%sgot:\n%swant:\n%s",
				i, dumpTable(a), dumpTable(b), dumpTable(got), dumpRows(want))
		}
		if got, want := leftJoin(a, b), refJoinRows(a, b, true); !sameRows(got, want, all) {
			t.Fatalf("case %d: LeftJoin diverged\na:\n%sb:\n%sgot:\n%swant:\n%s",
				i, dumpTable(a), dumpTable(b), dumpTable(got), dumpRows(want))
		}
	}
}

// TestColumnarSemiAntiMatchReference: the ⋉ row mask (Matched) and its
// complement ∖ keep the exact probe-side sequence.
func TestColumnarSemiAntiMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 400; i++ {
		a := propTable(r, propVars(r))
		b := propTable(r, propVars(r))
		var wantSemi, wantAnti []refRow
		for _, l := range refRows(a) {
			matched := false
			for _, rr := range refRows(b) {
				if refCompatible(l, rr) {
					matched = true
					break
				}
			}
			if matched {
				wantSemi = append(wantSemi, l)
			} else {
				wantAnti = append(wantAnti, l)
			}
		}
		if got := matchedRows(a, b, true); !sameRows(got, wantSemi, a.Vars()) {
			t.Fatalf("case %d: Matched rows diverged\ngot:\n%swant:\n%s", i, dumpTable(got), dumpRows(wantSemi))
		}
		if got := matchedRows(a, b, false); !sameRows(got, wantAnti, a.Vars()) {
			t.Fatalf("case %d: unmatched rows diverged\ngot:\n%swant:\n%s", i, dumpTable(got), dumpRows(wantAnti))
		}
	}
}

// TestColumnarDistinctUnionMatchReference: set semantics dedup by row
// equality (unbound == unbound), keeping first occurrences in order.
func TestColumnarDistinctUnionMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 400; i++ {
		a := propTable(r, propVars(r))
		b := propTable(r, propVars(r))
		all := normVars(append(append([]string(nil), a.Vars()...), b.Vars()...))
		if got, want := distinct(a), refDistinctRows(a); !sameRows(got, want, a.Vars()) {
			t.Fatalf("case %d: Groups diverged\ngot:\n%swant:\n%s", i, dumpTable(got), dumpRows(want))
		}
		if got, want := Union(a, b), refUnionRows(a, b, all); !sameRows(got, want, all) {
			t.Fatalf("case %d: Union diverged\ngot:\n%swant:\n%s", i, dumpTable(got), dumpRows(want))
		}
	}
}

// TestQuickSortedCanonicalOrder: Sorted orders rows by the typed row
// order — slot by slot, unbound first, then value.Compare, so 9 < 10
// and -2 < -1 — and is a stable permutation of the rows.
func TestQuickSortedCanonicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := propTable(r, propVars(r))
		whole := a.Sorted()
		for i := 1; i < whole.Len(); i++ {
			if refCompareOn(refRowAt(whole, i-1), refRowAt(whole, i), a.Vars()) > 0 {
				return false
			}
		}
		// Sorting by listed variables is stable: a position column left
		// out of the list must come out ascending among ties.
		tagged := EmptyTable(append([]string{"~pos"}, a.Vars()...)...)
		for i, row := range refRows(a) {
			row["~pos"] = value.Int(int64(i))
			appendRef(tagged, row)
		}
		byVars := tagged.Sorted(a.Vars()...)
		withPos := append(append([]string(nil), a.Vars()...), "~pos")
		for i := 1; i < byVars.Len(); i++ {
			if refCompareOn(refRowAt(byVars, i-1), refRowAt(byVars, i), withPos) > 0 {
				return false
			}
		}
		return whole.Len() == a.Len() && byVars.Len() == a.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
