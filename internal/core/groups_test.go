package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gcore/internal/bindings"
	"gcore/internal/value"
)

// hashThenSort is how CONSTRUCT grouped rows before grouping learned to
// cut runs of rows that already ascend: project the key slots, group by
// hash in order of first appearance, sort the groups by CompareRows on
// their first rows, and drop the leading group when its first key slot
// is unbound and skipUnbound asks for it. It is the reference
// OrderedGroups must agree with.
func hashThenSort(t *bindings.Table, vars []string, skipUnbound bool) [][]int {
	var others []string
	for _, v := range t.Vars() {
		if !slices.Contains(vars, v) {
			others = append(others, v)
		}
	}
	keys := t.DropVars(others...)
	if slices.Compare(keys.Vars(), vars) != 0 {
		panic("key variables must be listed in schema order")
	}
	groups := keys.Groups()
	slices.SortFunc(groups, func(g, h []int) int {
		return bindings.CompareRows(keys.RowAt(g[0]), keys.RowAt(h[0]))
	})
	if skipUnbound && len(groups) > 0 && keys.RowAt(groups[0][0])[0].IsAbsent() {
		groups = groups[1:]
	}
	return groups
}

// TestOrderedGroupsMatchesHashThenSort compares OrderedGroups with the
// hash-then-sort reference on random key tables, both already in
// CompareRows order (the run-cutting path) and shuffled (the fallback),
// over values whose equality is subtle: NaN, −0 and +0, 1 and 1.0,
// strings, sets and unbound slots.
func TestOrderedGroupsMatchesHashThenSort(t *testing.T) {
	pool := []value.Value{
		value.Absent,
		value.Float(math.NaN()),
		value.Float(math.Copysign(0, -1)),
		value.Float(0),
		value.Int(0),
		value.Int(1),
		value.Float(1),
		value.Int(2),
		value.Str("a"),
		value.Str("b"),
		value.Set(value.Int(1), value.Str("a")),
		value.Set(value.Float(1), value.Str("a")),
		value.Set(value.Float(math.NaN())),
		value.PathRef(7),
		value.PathRef(8),
	}
	r := rand.New(rand.NewSource(39))
	vars := []string{"a", "b", "c"}
	for trial := 0; trial < 400; trial++ {
		n := r.Intn(40)
		width := 1 + r.Intn(len(vars))
		tbl := bindings.Blank(n, vars[:width]...)
		for i := 0; i < n; i++ {
			for s := 0; s < width; s++ {
				tbl.Set(i, s, pool[r.Intn(len(pool))])
			}
		}
		if trial%2 == 0 {
			tbl = tbl.Sorted()
		}
		for lead := 0; lead < width; lead++ {
			keyVars := vars[lead:width]
			slots := make([]int, len(keyVars))
			for k, v := range keyVars {
				slots[k] = tbl.SlotOf(v)
			}
			for _, skip := range []bool{false, true} {
				got := tbl.OrderedGroups(slots, skip)
				want := hashThenSort(tbl, keyVars, skip)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d, keys %v, skipUnbound %v:\n%s\ngot  %v\nwant %v",
						trial, keyVars, skip, tbl, got, want)
				}
			}
		}
		if got, want := fmt.Sprint(tbl.OrderedGroups(nil, false)), fmt.Sprint(hashThenSort(tbl, vars[:width], false)); got != want && n > 0 {
			t.Fatalf("trial %d, all slots:\n%s\ngot  %s\nwant %s", trial, tbl, got, want)
		}
	}
}
