package csr

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gcore/internal/value"
)

// seekLiterals is a constant of every kind a seek may meet, chosen to
// hit and to miss the values propGraph and mutGraph store.
func seekLiterals() []value.Value {
	return []value.Value{
		value.Int(0), value.Int(2), value.Int(22), value.Int(31),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(0.5), value.Float(2), value.Float(22), value.Float(math.NaN()),
		value.Str("Ada"), value.Str("Acme"), value.Str("x"), value.Str("n1"), value.Str("nobody"), value.Str(""),
		value.Bool(true), value.Bool(false),
		value.Date(18002), value.Date(1),
		value.Null,
		value.Set(value.Int(22)), value.Set(value.Str("Acme")),
		value.Set(value.Str("Acme"), value.Str("MIT")), value.List(value.Int(2)),
	}
}

// checkSeeks holds every column of one family to the SeekEq contract
// against a from-scratch scan: for each literal the column agrees to
// seek, the postings ascend, stay inside the column, and contain every
// ordinal value.Eq accepts — exactly those on a typed column.
func checkSeeks(t *testing.T, s *Snapshot, cols map[string]*PropCol, count int) {
	t.Helper()
	for key, c := range cols {
		for _, lit := range seekLiterals() {
			post, _, ok := c.SeekEq(lit, s.Strings())
			if !ok {
				continue
			}
			if !slices.IsSorted(post) || len(slices.Compact(slices.Clone(post))) != len(post) {
				t.Fatalf("column %q = %v: postings %v are not strictly ascending", key, lit, post)
			}
			var want []int32
			for o := int32(0); o < int32(count); o++ {
				if !c.Present(o) { // also bounds a column shared at an older length
					continue
				}
				if eq, _ := value.Eq(c.SetAt(o), lit).AsBool(); eq {
					want = append(want, o)
				}
			}
			for _, o := range want {
				if !slices.Contains(post, o) {
					t.Fatalf("column %q (%v) = %v: postings %v miss ordinal %d (scan: %v)", key, c.Kind(), lit, post, o, want)
				}
			}
			if c.Kind() != ColOverflow && !slices.Equal(post, want) {
				t.Fatalf("typed column %q (%v) = %v: postings %v, scan %v", key, c.Kind(), lit, post, want)
			}
		}
	}
}

func TestSeekEqMatchesScan(t *testing.T) {
	s := Build(propGraph(t))
	checkSeeks(t, s, s.nodeCols, s.NumNodes())
	checkSeeks(t, s, s.edgeCols, s.NumEdges())
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSeekEqKinds pins the decline rules: a typed column seeks its own
// kind only, an overflow column the kinds without cross-kind equality.
func TestSeekEqKinds(t *testing.T) {
	s := Build(propGraph(t))
	for _, c := range []struct {
		key  string
		lit  value.Value
		ok   bool
		want []int32
	}{
		{"age", value.Int(22), true, []int32{2}},
		{"age", value.Set(value.Int(22)), true, []int32{2}},
		{"age", value.Float(22), false, nil},
		{"age", value.Str("22"), false, nil},
		{"score", value.Float(0.5), true, []int32{1}},
		{"score", value.Int(1), false, nil},
		{"score", value.Float(math.NaN()), false, nil},
		{"name", value.Str("Ada"), true, []int32{0, 4}},
		{"name", value.Str("nobody"), true, nil},
		{"name", value.Int(1), false, nil},
		{"active", value.Bool(true), true, []int32{0, 2, 4}},
		{"since", value.Date(18001), true, []int32{1}},
		{"since", value.Int(18001), false, nil},
		{"employer", value.Str("Acme"), true, []int32{0, 1, 2}}, // {Acme, MIT} at 3 is not = 'Acme'
		{"employer", value.Set(value.Str("Acme"), value.Str("MIT")), false, nil},
		{"mixed", value.Str("x"), true, []int32{1, 3}},
		{"mixed", value.Int(2), false, nil},
		{"mixed", value.Float(2), false, nil},
	} {
		post, _, ok := s.NodeCol(c.key).SeekEq(c.lit, s.Strings())
		if ok != c.ok || !slices.Equal(post, c.want) {
			t.Errorf("%s = %v: postings %v ok=%v, want %v ok=%v", c.key, c.lit, post, ok, c.want, c.ok)
		}
	}
}

// TestValidateChecksBuiltIndexes: Validate ignores columns never sought
// and catches an index that no longer matches its column.
func TestValidateChecksBuiltIndexes(t *testing.T) {
	s := Build(propGraph(t))
	if err := s.Validate(); err != nil {
		t.Fatalf("no index built yet: %v", err)
	}
	c := s.NodeCol("age")
	if _, built, _ := c.SeekEq(value.Int(20), s.Strings()); !built {
		t.Fatal("first seek did not build")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ords := c.eq.Load().ords
	ords[0], ords[1] = ords[1], ords[0]
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), `"age"`) {
		t.Fatalf("Validate = %v, want an equality-index error naming the column", err)
	}
}

// TestMeanPosting: the mean posting length is the column's seekable
// ordinals over their distinct seek keys, with or without an index
// already built; keep decides whether measuring leaves one behind.
func TestMeanPosting(t *testing.T) {
	s := Build(propGraph(t))
	for key, c := range s.nodeCols {
		ords, keys := 0, map[uint64]bool{}
		for o := int32(0); o < int32(s.NumNodes()); o++ {
			if c.Present(o) && c.seekableAt(o) {
				ords++
				keys[c.seekKeyAt(o)] = true
			}
		}
		want := 0.0
		if len(keys) > 0 {
			want = float64(ords) / float64(len(keys))
		}
		if got, built := c.MeanPosting(false); got != want || built || c.eq.Load() != nil {
			t.Errorf("%q measured without keeping: %v built=%v indexed=%v, want %v and no index", key, got, built, c.eq.Load() != nil, want)
		}
		if got, built := c.MeanPosting(true); got != want || !built {
			t.Errorf("%q measured first: %v built=%v, want %v built", key, got, built, want)
		}
		if got, built := c.MeanPosting(false); got != want || built {
			t.Errorf("%q measured on its index: %v built=%v, want %v", key, got, built, want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}
