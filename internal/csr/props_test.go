package csr

import (
	"fmt"
	"testing"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// propGraph builds a graph whose node and edge properties cover every
// column shape: dense scalar columns of each kind, sparse columns,
// multi-valued FSET(V) sets and mixed-kind columns (both overflow).
func propGraph(t testing.TB) *ppg.Graph {
	t.Helper()
	g := ppg.New("props")
	names := []string{"Ada", "Bob", "Céline", "dave", "Ada"}
	for i := 0; i < 5; i++ {
		p := ppg.Properties{}
		p.Set("name", value.Str(names[i]))
		p.Set("age", value.Int(int64(20+i)))
		p.Set("score", value.Float(float64(i)/2))
		p.Set("active", value.Bool(i%2 == 0))
		p.Set("since", value.Date(int64(18000+i)))
		if i%2 == 0 {
			p.Set("sparse", value.Int(int64(i)))
		}
		if i == 3 {
			p.Set("employer", value.Set(value.Str("Acme"), value.Str("MIT")))
		} else if i != 4 {
			p.Set("employer", value.Str("Acme"))
		}
		// mixed kinds force the column to overflow
		if i%2 == 0 {
			p.Set("mixed", value.Int(int64(i)))
		} else {
			p.Set("mixed", value.Str("x"))
		}
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i + 1), Props: p}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		p := ppg.Properties{}
		p.Set("weight", value.Float(float64(i)*1.5))
		if i%2 == 1 {
			p.Set("tags", value.Set(value.Str("a"), value.Str("b")))
		}
		if err := g.AddEdge(&ppg.Edge{
			ID: ppg.EdgeID(100 + i), Src: ppg.NodeID(i + 1), Dst: ppg.NodeID(i + 2), Props: p,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPropColumnKinds pins the kind classification: one typed column
// per scalar kind, overflow for multi-valued and mixed-kind columns.
func TestPropColumnKinds(t *testing.T) {
	s := Of(propGraph(t))
	want := map[string]ColKind{
		"name":     ColString,
		"age":      ColInt,
		"score":    ColFloat,
		"active":   ColBool,
		"since":    ColDate,
		"sparse":   ColInt,
		"employer": ColOverflow, // one node stores a two-element set
		"mixed":    ColOverflow, // int and string mixed
	}
	for key, k := range want {
		col := s.NodeCol(key)
		if col == nil {
			t.Fatalf("no column for %q", key)
		}
		if col.Kind() != k {
			t.Errorf("column %q: kind %v, want %v", key, col.Kind(), k)
		}
	}
	if col := s.NodeCol("absent"); col != nil {
		t.Errorf("column for never-set key: %v", col.Kind())
	}
	if col := s.EdgeCol("weight"); col == nil || col.Kind() != ColFloat {
		t.Errorf("edge weight column: %v", col)
	}
	if col := s.EdgeCol("tags"); col == nil || col.Kind() != ColOverflow {
		t.Errorf("edge tags column: %v", col)
	}
}

// TestInternerBound pins the binary-search contract Bound gives the
// typed string comparators: position of the search key in id order
// plus whether it is interned exactly.
func TestInternerBound(t *testing.T) {
	s := Of(propGraph(t))
	in := s.Strings()
	if len(in.names) == 0 {
		t.Fatal("no interned strings")
	}
	// ids are assigned in sorted order, so names ascend.
	for i := 1; i < len(in.names); i++ {
		if in.names[i-1] >= in.names[i] {
			t.Fatalf("interner not sorted at %d: %q >= %q", i, in.names[i-1], in.names[i])
		}
	}
	for i := 0; i < len(in.names); i++ {
		pos, exact := in.Bound(in.names[i])
		if !exact || pos != int32(i) {
			t.Errorf("Bound(%q) = (%d,%v), want (%d,true)", in.names[i], pos, exact, i)
		}
	}
	// A string below, between, and above everything interned.
	if pos, exact := in.Bound(""); exact || pos != 0 {
		t.Errorf("Bound(\"\") = (%d,%v), want (0,false)", pos, exact)
	}
	if pos, exact := in.Bound("￿"); exact || pos != int32(len(in.names)) {
		t.Errorf("Bound(high) = (%d,%v), want (%d,false)", pos, exact, len(in.names))
	}
}

// TestPropReadEquivalence checks NodeProp/EdgeProp against the ppg
// property maps on the deterministic graph (the fuzz target below
// does the same over random shapes).
func TestPropReadEquivalence(t *testing.T) {
	g := propGraph(t)
	s := Of(g)
	keys := []string{"name", "age", "score", "active", "since", "sparse", "employer", "mixed", "absent"}
	for u := int32(0); u < int32(s.NumNodes()); u++ {
		nd := s.Node(u)
		for _, k := range keys {
			got, want := s.NodeProp(u, k), nd.Props.Get(k)
			if !value.Equal(got, want) {
				t.Errorf("node #%d prop %q: columnar %s, map %s", nd.ID, k, got, want)
			}
		}
	}
	for e := int32(0); e < int32(s.NumEdges()); e++ {
		ed := s.Edge(e)
		for _, k := range []string{"weight", "tags", "absent"} {
			got, want := s.EdgeProp(e, k), ed.Props.Get(k)
			if !value.Equal(got, want) {
				t.Errorf("edge #%d prop %q: columnar %s, map %s", ed.ID, k, got, want)
			}
		}
	}
}

// FuzzPropColumns drives the columnar property store with random
// graphs: whatever mix of kinds, multi-valued sets and absent keys a
// seed produces, NodeProp/EdgeProp must agree with Props.Get for
// every element and key — including keys never set anywhere.
func FuzzPropColumns(f *testing.F) {
	f.Add(uint32(1), uint8(8), uint8(12))
	f.Add(uint32(42), uint8(1), uint8(0))
	f.Add(uint32(7), uint8(40), uint8(90))
	f.Add(uint32(99), uint8(0), uint8(0))
	keys := []string{"a", "b", "c", "d"}
	f.Fuzz(func(t *testing.T, seed uint32, nNodes, nEdges uint8) {
		rnd := seed
		next := func(mod int) int {
			// xorshift: deterministic, no time dependence
			rnd ^= rnd << 13
			rnd ^= rnd >> 17
			rnd ^= rnd << 5
			return int(rnd % uint32(mod))
		}
		randVal := func() value.Value {
			switch next(8) {
			case 0:
				return value.Int(int64(next(100)))
			case 1:
				return value.Float(float64(next(100)) / 4)
			case 2:
				return value.Str(fmt.Sprintf("s%d", next(10)))
			case 3:
				return value.Bool(next(2) == 0)
			case 4:
				return value.Date(int64(next(1000)))
			case 5: // multi-valued FSET(V)
				return value.Set(value.Int(int64(next(10))), value.Str("t"))
			case 6: // empty set ≡ absent after normalisation
				return value.Set()
			default:
				return value.Null
			}
		}
		randProps := func() ppg.Properties {
			p := ppg.Properties{}
			for _, k := range keys {
				if next(3) == 0 {
					continue // absent
				}
				p.Set(k, randVal())
			}
			return p
		}

		g := ppg.New("fuzz")
		var ids []ppg.NodeID
		for i := 0; i < int(nNodes); i++ {
			id := ppg.NodeID(next(1000))
			if g.AddNode(&ppg.Node{ID: id, Props: randProps()}) == nil {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			for i := 0; i < int(nEdges); i++ {
				_ = g.AddEdge(&ppg.Edge{
					ID:  ppg.EdgeID(10_000 + next(10_000)),
					Src: ids[next(len(ids))], Dst: ids[next(len(ids))],
					Props: randProps(),
				})
			}
		}

		s := Of(g)
		check := append(append([]string(nil), keys...), "never-set")
		for u := int32(0); u < int32(s.NumNodes()); u++ {
			nd := s.Node(u)
			for _, k := range check {
				got, want := s.NodeProp(u, k), nd.Props.Get(k)
				if !value.Equal(got, want) {
					t.Fatalf("node #%d prop %q: columnar %s, map %s", nd.ID, k, got, want)
				}
			}
		}
		for e := int32(0); e < int32(s.NumEdges()); e++ {
			ed := s.Edge(e)
			for _, k := range check {
				got, want := s.EdgeProp(e, k), ed.Props.Get(k)
				if !value.Equal(got, want) {
					t.Fatalf("edge #%d prop %q: columnar %s, map %s", ed.ID, k, got, want)
				}
			}
		}
	})
}
