package csr

import (
	"sort"
	"sync"
	"sync/atomic"

	"gcore/internal/ppg"
	"gcore/internal/value"
)

// Columnar property storage. The paper's data model (§2) makes every
// property value a finite set FSET(V); the common case by far is the
// singleton set standing for a scalar. At snapshot build time each
// property key becomes one dense column over the element ordinals:
//
//   - a presence bitmap (one bit per ordinal — absent means the key
//     is not in the element's property map; readers translate that to
//     the empty set, exactly like ppg.Properties.Get),
//   - a typed array when every present value is a singleton of one
//     scalar kind: int64, float64, interned string identifier, bool,
//     or date (stored as day numbers). Strings intern into one
//     snapshot-wide table sorted ascending, so identifier order IS
//     lexicographic order and range predicates become integer
//     comparisons against a binary-searched bound,
//   - an exact mirror of the stored set values either way, so reads
//     that need the full FSET(V) semantics (multi-valued employers,
//     mixed-type columns, IN / SUBSET) return the identical value the
//     map would have — the overflow rule is simply "no typed array".
//
// Columns are frozen at build time like every other snapshot array;
// in-place property writes bump the graph generation (see
// ppg.Graph.TouchProps) and invalidate the cached snapshot.

// ColKind says which typed array a column carries, if any.
type ColKind uint8

// Column kinds. ColOverflow columns have no typed array: at least one
// present value is multi-valued or the scalar kinds are mixed, so
// readers use the mirrored sets.
const (
	ColOverflow ColKind = iota
	ColInt
	ColFloat
	ColString
	ColBool
	ColDate
)

func (k ColKind) String() string {
	switch k {
	case ColInt:
		return "int"
	case ColFloat:
		return "float"
	case ColString:
		return "string"
	case ColBool:
		return "bool"
	case ColDate:
		return "date"
	}
	return "overflow"
}

// Interner is the snapshot-wide string table: distinct property
// string values. A full build interns everything sorted ascending, so
// identifier order equals lexicographic order. Delta applies append
// new strings past the sorted prefix instead of renumbering (which
// would invalidate every shared string column): names[:sorted] stays
// ascending, names[sorted:] is an unordered extension whose lookups
// go through the extIds overlay (the base ids map is shared across
// snapshot versions and never mutated).
type Interner struct {
	names  []string
	ids    map[string]int32
	extIds map[string]int32
	sorted int32
}

// Lookup resolves a string to its interned identifier.
func (in *Interner) Lookup(s string) (int32, bool) {
	if id, ok := in.ids[s]; ok {
		return id, true
	}
	if in.extIds != nil {
		id, ok := in.extIds[s]
		return id, ok
	}
	return 0, false
}

// Bound returns the insertion position of s in the sorted prefix of
// the table and whether s is present exactly there. Because prefix
// identifiers ascend with the strings, every interned id < pos (and
// < SortedCount) names a string < s, and prefix ids ≥ pos (+1 when
// exact) name strings > s — the two facts compile string range
// predicates to integer comparisons. Identifiers at or past
// SortedCount are outside the invariant; their strings must be
// compared directly (Name).
func (in *Interner) Bound(s string) (pos int32, exact bool) {
	names := in.names[:in.sorted]
	i := sort.SearchStrings(names, s)
	return int32(i), i < len(names) && names[i] == s
}

// Count returns the number of interned strings.
func (in *Interner) Count() int { return len(in.names) }

// SortedCount returns the size of the sorted prefix: identifiers
// below it order lexicographically, identifiers at or past it were
// appended by delta applies in arrival order.
func (in *Interner) SortedCount() int32 { return in.sorted }

// Name resolves an identifier back to its string.
func (in *Interner) Name(id int32) string { return in.names[id] }

// PropCol is one property key's column over the node or edge ordinal
// range.
type PropCol struct {
	kind    ColKind
	present []uint64      // presence bitmap, one bit per ordinal
	sets    []value.Value // the stored set values, mirrored exactly
	ints    []int64       // ColInt / ColDate: scalar payloads
	floats  []float64     // ColFloat
	strs    []int32       // ColString: interned identifiers
	bools   []uint64      // ColBool: payload bitmap

	// Equality index (eqindex.go): built on the first seek, immutable
	// once published, shared with every later snapshot version that
	// shares this column.
	eqMu sync.Mutex
	eq   atomic.Pointer[eqIndex]
}

// Kind reports the column's typed representation (ColOverflow: none).
func (c *PropCol) Kind() ColKind { return c.kind }

// Present reports whether the element at ord carries the property.
// Ordinals past the bitmap read as absent: a column untouched by a
// delta apply is shared at its old length, and elements appended since
// cannot carry a key no write ever mentioned.
func (c *PropCol) Present(ord int32) bool {
	if int(ord>>6) >= len(c.present) {
		return false
	}
	return c.present[ord>>6]&(1<<(uint(ord)&63)) != 0
}

// SetAt returns the stored FSET(V) value at ord — the identical value
// ppg.Properties.Get returned at build time. Only meaningful when
// Present(ord).
func (c *PropCol) SetAt(ord int32) value.Value { return c.sets[ord] }

// Ints returns the int64 payload array (ColInt and ColDate columns);
// entries at non-present ordinals are garbage.
func (c *PropCol) Ints() []int64 { return c.ints }

// Floats returns the float64 payload array (ColFloat columns).
func (c *PropCol) Floats() []float64 { return c.floats }

// StrIDs returns the interned-identifier payload array (ColString).
func (c *PropCol) StrIDs() []int32 { return c.strs }

// BoolAt returns the bool payload at ord (ColBool columns).
func (c *PropCol) BoolAt(ord int32) bool {
	return c.bools[ord>>6]&(1<<(uint(ord)&63)) != 0
}

func bitSet(bm []uint64, i int32) { bm[i>>6] |= 1 << (uint(i) & 63) }

// scalarColKind maps a singleton element to its column kind, or
// ColOverflow for kinds no typed array covers.
func scalarColKind(v value.Value) ColKind {
	switch v.Kind() {
	case value.KindInt:
		return ColInt
	case value.KindFloat:
		return ColFloat
	case value.KindString:
		return ColString
	case value.KindBool:
		return ColBool
	case value.KindDate:
		return ColDate
	}
	return ColOverflow
}

// Strings returns the snapshot's interned string table.
func (s *Snapshot) Strings() *Interner { return s.strings }

// NodeCol returns the column of one node property key, or nil when no
// node carries the key.
func (s *Snapshot) NodeCol(key string) *PropCol { return s.nodeCols[key] }

// EdgeCol returns the column of one edge property key, or nil.
func (s *Snapshot) EdgeCol(key string) *PropCol { return s.edgeCols[key] }

// NodeProp reads σ(node, key) from the columns: the frozen property
// set, or the empty set when absent — exactly Properties.Get at build
// time.
func (s *Snapshot) NodeProp(u int32, key string) value.Value {
	if c := s.nodeCols[key]; c != nil && c.Present(u) {
		return c.sets[u]
	}
	return value.EmptySet
}

// EdgeProp reads σ(edge, key) from the columns.
func (s *Snapshot) EdgeProp(e int32, key string) value.Value {
	if c := s.edgeCols[key]; c != nil && c.Present(e) {
		return c.sets[e]
	}
	return value.EmptySet
}

// buildPropColumns materialises every property key as one column and
// interns all singleton string values. Two passes: gather the mirrors
// and decide each column's kind, then fill the typed arrays (strings
// need the complete table first — identifiers must be assigned in
// sorted order).
func (s *Snapshot) buildPropColumns() {
	s.nodeCols = gatherCols(len(s.nodes), func(i int) ppg.Properties { return s.nodes[i].Props })
	s.edgeCols = gatherCols(len(s.edges), func(i int) ppg.Properties { return s.edges[i].Props })

	seen := map[string]bool{}
	collect := func(cols map[string]*PropCol) {
		for _, c := range cols {
			if c.kind != ColString {
				continue
			}
			for ord, sv := range c.sets {
				if c.Present(int32(ord)) {
					el, _ := sv.Singleton()
					str, _ := el.AsString()
					seen[str] = true
				}
			}
		}
	}
	collect(s.nodeCols)
	collect(s.edgeCols)
	in := &Interner{names: make([]string, 0, len(seen)), ids: make(map[string]int32, len(seen))}
	for str := range seen {
		in.names = append(in.names, str)
	}
	sort.Strings(in.names)
	for i, str := range in.names {
		in.ids[str] = int32(i)
	}
	in.sorted = int32(len(in.names))
	s.strings = in

	fill := func(cols map[string]*PropCol) {
		for _, c := range cols {
			fillTyped(c, in)
		}
	}
	fill(s.nodeCols)
	fill(s.edgeCols)
}

func gatherCols(n int, props func(int) ppg.Properties) map[string]*PropCol {
	cols := map[string]*PropCol{}
	words := (n + 63) / 64
	for i := 0; i < n; i++ {
		for key, sv := range props(i) {
			c := cols[key]
			if c == nil {
				c = &PropCol{
					kind:    ColOverflow,
					present: make([]uint64, words),
					sets:    make([]value.Value, n),
				}
				cols[key] = c
				// The first value decides the candidate kind; every
				// later mismatch demotes the column to overflow.
				if el, ok := sv.Singleton(); ok {
					c.kind = scalarColKind(el)
				}
			} else if c.kind != ColOverflow {
				if el, ok := sv.Singleton(); !ok || scalarColKind(el) != c.kind {
					c.kind = ColOverflow
				}
			}
			bitSet(c.present, int32(i))
			c.sets[i] = sv
		}
	}
	return cols
}

func fillTyped(c *PropCol, in *Interner) {
	n := len(c.sets)
	switch c.kind {
	case ColInt, ColDate:
		c.ints = make([]int64, n)
	case ColFloat:
		c.floats = make([]float64, n)
	case ColString:
		c.strs = make([]int32, n)
	case ColBool:
		c.bools = make([]uint64, (n+63)/64)
	default:
		return
	}
	for ord := 0; ord < n; ord++ {
		if !c.Present(int32(ord)) {
			continue
		}
		el, _ := c.sets[ord].Singleton()
		switch c.kind {
		case ColInt:
			c.ints[ord], _ = el.AsInt()
		case ColDate:
			c.ints[ord], _ = el.AsDateDays()
		case ColFloat:
			c.floats[ord], _ = el.AsFloat()
		case ColString:
			str, _ := el.AsString()
			c.strs[ord] = in.ids[str]
		case ColBool:
			if b, _ := el.AsBool(); b {
				bitSet(c.bools, int32(ord))
			}
		}
	}
}
