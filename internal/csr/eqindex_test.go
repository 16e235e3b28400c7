package csr

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// seekLiterals is a constant of every kind a seek may meet, chosen to
// hit and to miss the values propGraph and deltaGraph store.
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

// TestSeekIndexSharedAcrossDeltas: a delta apply shares the columns it
// does not write, index included; a column it rewrites starts
// unindexed, and the previous version keeps answering from its own.
func TestSeekIndexSharedAcrossDeltas(t *testing.T) {
	g := deltaGraph(t)
	s1, _ := snapKind(t, g)
	for _, key := range []string{"age", "name"} {
		if _, built, ok := s1.NodeCol(key).SeekEq(value.Int(0), s1.Strings()); key == "age" && (!built || !ok) {
			t.Fatalf("first seek of %q: built=%v ok=%v", key, built, ok)
		}
	}
	age31, _, _ := s1.NodeCol("age").SeekEq(value.Int(31), s1.Strings())

	// A new node carrying only a brand-new key leaves age alone.
	p := ppg.Properties{}
	p.Set("brand", value.Str("acme"))
	if err := g.AddNode(&ppg.Node{ID: 400, Props: p}); err != nil {
		t.Fatal(err)
	}
	s2 := expectDelta(t, g)
	if s2.NodeCol("age") != s1.NodeCol("age") {
		t.Fatal("untouched column was not shared with the previous version")
	}
	if _, built, ok := s2.NodeCol("age").SeekEq(value.Int(31), s2.Strings()); built || !ok {
		t.Fatalf("shared column rebuilt its index: built=%v ok=%v", built, ok)
	}

	// A write to age rebuilds the column: new PropCol, no index yet.
	p = ppg.Properties{}
	p.Set("age", value.Int(31))
	if err := g.AddNode(&ppg.Node{ID: 401, Props: p}); err != nil {
		t.Fatal(err)
	}
	s3 := expectDelta(t, g)
	if s3.NodeCol("age") == s2.NodeCol("age") {
		t.Fatal("rewritten column is still the previous version's")
	}
	if s3.NodeCol("age").eq.Load() != nil {
		t.Fatal("rewritten column inherited an index")
	}
	post, built, ok := s3.NodeCol("age").SeekEq(value.Int(31), s3.Strings())
	if !built || !ok || len(post) != len(age31)+1 {
		t.Fatalf("rewritten column: postings %v built=%v ok=%v, want one more than %v", post, built, ok, age31)
	}
	if again, _, _ := s1.NodeCol("age").SeekEq(value.Int(31), s1.Strings()); !slices.Equal(again, age31) {
		t.Fatalf("old version's postings moved: %v, was %v", again, age31)
	}
	for _, s := range []*Snapshot{s1, s2, s3} {
		checkSeeks(t, s, s.nodeCols, s.NumNodes())
		if err := s.Validate(); err != nil {
			t.Fatal(err)
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
