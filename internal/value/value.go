// Package value implements the literal domain V of the Path Property
// Graph model (G-CORE, Definition 2.1) together with the expression
// value semantics of Appendix A.1.
//
// A Value is an immutable tagged union. Besides the scalar literals of
// the paper (integers, reals, strings, dates and the truth values ⊤
// and ⊥), the domain contains finite lists and finite sets — property
// lookups σ(x,k) yield a *set* of values (FSET(V)) — and references to
// graph objects (node, edge and path identifiers), which is how
// bindings µ : variables → N ∪ E ∪ P ∪ V are represented uniformly.
package value

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Kind discriminates the variants of a Value.
type Kind uint8

// The kinds of values, ordered. The order is significant: Compare sorts
// values of different kinds by kind first, which gives the fixed total
// order on the literal domain that the deterministic evaluation
// semantics relies on (paper §A.1, footnote 4).
const (
	KindNull Kind = iota // absent value; the zero Value
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
	KindList
	KindSet
	KindNode // node identifier (element of N)
	KindEdge // edge identifier (element of E)
	KindPath // path identifier (element of P)
)

// String returns the name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindList:
		return "list"
	case KindSet:
		return "set"
	case KindNode:
		return "node"
	case KindEdge:
		return "edge"
	case KindPath:
		return "path"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DateLayout is the textual form used for date literals. The guided
// tour of the paper writes dates as day/month/year (e.g. 1/12/2014).
const DateLayout = "2/1/2006"

// Value is an immutable literal, collection or graph-object reference.
// The zero Value is the null (absent) value.
//
// A Value is 24 bytes with one pointer word, because every binding-table
// slot, property-column read and result row is one. n holds the scalar
// payload — the bool (0 or 1), the integer, the date in days since the
// Unix epoch, the object identifier or math.Float64bits of the float —
// or the length of a string or a list or set. p points at the string's
// bytes (unsafe.StringData) or the first element (unsafe.SliceData),
// and is nil for every other kind. The payload accessors below read
// those fields back as the kind that wrote them; every exported method
// checks the kind first.
type Value struct {
	_    [0]func() // keeps == a compile error: it would compare p, not the contents
	p    unsafe.Pointer
	n    uint64
	kind Kind
}

// b, i, f, s and elems are the payload of a bool, an integer, date or
// reference, a float, a string and a list or set. A set's elements are
// sorted and deduplicated.
func (v Value) b() bool        { return v.n != 0 }
func (v Value) i() int64       { return int64(v.n) }
func (v Value) f() float64     { return math.Float64frombits(v.n) }
func (v Value) s() string      { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }

// fromElems wraps an element slice of kind KindList or KindSet. A nil
// slice stays nil.
func fromElems(k Kind, es []Value) Value {
	return Value{kind: k, p: unsafe.Pointer(unsafe.SliceData(es)), n: uint64(len(es))}
}

// Null is the absent value. It is what property access on an object
// that lacks the property evaluates to (the paper models this as the
// empty set; Null and the empty set behave identically in comparisons).
var Null = Value{}

// kindAbsent is the out-of-band kind of the Absent sentinel. It is
// deliberately not part of the Kind enumeration: Absent is not a value
// of the literal domain V, it marks an unbound slot in the columnar
// binding-table layout (a binding µ is a *partial* function, and the
// dense row representation needs an in-band encoding of "outside
// dom µ"). Absent must never reach expression evaluation; the bindings
// package orders it before every value itself and converts it back to
// "not bound" at its API boundary.
const kindAbsent Kind = 0xFF

// Absent is the unbound-slot sentinel for columnar binding tables.
// It is distinct from Null: a variable bound to Null is bound.
var Absent = Value{kind: kindAbsent}

// IsAbsent reports whether v is the unbound-slot sentinel.
func (v Value) IsAbsent() bool { return v.kind == kindAbsent }

// Bool returns a boolean value (⊤ or ⊥ in the paper's notation).
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// True and False are the truth values ⊤ and ⊥.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Int returns an integer literal.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a real-number literal.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Str returns a string literal.
func Str(s string) Value {
	return Value{kind: KindString, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// Date returns a date literal from days since the Unix epoch.
func Date(days int64) Value { return Value{kind: KindDate, n: uint64(days)} }

// ParseDate parses a date literal in DateLayout form ("1/12/2014").
func ParseDate(s string) (Value, error) {
	t, err := time.Parse(DateLayout, s)
	if err != nil {
		return Null, fmt.Errorf("value: invalid date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// List returns a list value preserving order and duplicates.
func List(elems ...Value) Value {
	cp := make([]Value, len(elems))
	copy(cp, elems)
	return fromElems(KindList, cp)
}

// Set returns a set value: elements are deduplicated and kept in the
// canonical Compare order (the first of equal elements stays), so equal
// sets are structurally identical.
func Set(elems ...Value) Value {
	cp := make([]Value, 0, len(elems))
	for _, e := range elems {
		if e.IsNull() {
			continue // the empty set already represents absence
		}
		cp = append(cp, e)
	}
	slices.SortStableFunc(cp, Compare)
	return fromElems(KindSet, slices.CompactFunc(cp, Equal))
}

// EmptySet is the set with no elements; property lookup on an object
// without the property yields it (σ(x,k) = ∅).
var EmptySet = Set()

// NodeRef returns a reference to the node with the given identifier.
func NodeRef(id uint64) Value { return Value{kind: KindNode, n: id} }

// EdgeRef returns a reference to the edge with the given identifier.
func EdgeRef(id uint64) Value { return Value{kind: KindEdge, n: id} }

// PathRef returns a reference to the path with the given identifier.
func PathRef(id uint64) Value { return Value{kind: KindPath, n: id} }

// Kind reports the variant of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the absent value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsRef reports whether v references a graph object (node, edge, path).
func (v Value) IsRef() bool {
	return v.kind == KindNode || v.kind == KindEdge || v.kind == KindPath
}

// IsNumeric reports whether v is an integer or a float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsBool returns the boolean content; ok is false (and b false) if v is
// not a bool.
func (v Value) AsBool() (b, ok bool) { return v.kind == KindBool && v.b(), v.kind == KindBool }

// AsInt returns the integer content; ok is false (and the integer 0) if
// v is not an integer.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i(), true
}

// AsFloat returns the numeric content widened to float64; ok is false
// if v is neither an integer nor a float.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i()), true
	case KindFloat:
		return v.f(), true
	}
	return 0, false
}

// AsString returns the string content; ok is false (and the string
// empty) if v is not a string.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s(), true
}

// AsDateDays returns the date content in days since the Unix epoch; ok
// is false (and the days 0) if v is not a date.
func (v Value) AsDateDays() (int64, bool) {
	if v.kind != KindDate {
		return 0, false
	}
	return v.i(), true
}

// RefID returns the object identifier of a node/edge/path reference; ok
// is false (and the identifier 0) for every other kind.
func (v Value) RefID() (uint64, bool) {
	if !v.IsRef() {
		return 0, false
	}
	return v.n, true
}

// Elems returns the elements of a list or set (nil otherwise). The
// returned slice must not be modified.
func (v Value) Elems() []Value {
	if v.kind == KindList || v.kind == KindSet {
		return v.elems()
	}
	return nil
}

// Len returns the number of elements of a list or set, the length of a
// string, 0 for Null, and -1 for other kinds.
func (v Value) Len() int {
	switch v.kind {
	case KindList, KindSet, KindString:
		return int(v.n)
	case KindNull:
		return 0
	}
	return -1
}

// Index returns element i of a list or set (sets use canonical order),
// following the paper's 0-based indexing ("G-CORE starts counting at
// 0", §3). Out-of-range access yields Null.
func (v Value) Index(i int) Value {
	es := v.Elems()
	if i < 0 || i >= len(es) {
		return Null
	}
	return es[i]
}

// Singleton reports whether v is a one-element set, and unwraps it.
// The paper writes singleton property sets without braces ("we simply
// write "MIT" instead of {"MIT"}"): scalar contexts treat a singleton
// set as its sole element.
func (v Value) Singleton() (Value, bool) {
	if v.kind == KindSet && v.n == 1 {
		return v.elems()[0], true
	}
	return Null, false
}

// Scalarize unwraps singleton sets; other values pass through. An
// empty set scalarizes to Null (absent).
func (v Value) Scalarize() Value {
	if v.kind == KindSet {
		switch v.n {
		case 0:
			return Null
		case 1:
			return v.elems()[0]
		}
	}
	return v
}

// Compare imposes the fixed total order on the value domain used for
// deterministic evaluation: by kind, then by content. It returns a
// negative number, zero, or a positive number as a < b, a == b, a > b.
// Integers and floats form one numeric line and compare exactly across
// the two kinds, never through a rounding float64 conversion; NaN sorts
// once, before every number, and equals only NaN. Compare is a total
// preorder, and Hash agrees with its equality.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		switch {
		case a.kind == KindInt && b.kind == KindFloat:
			return compareIntFloat(a.i(), b.f())
		case a.kind == KindFloat && b.kind == KindInt:
			return -compareIntFloat(b.i(), a.f())
		}
		return int(a.kind) - int(b.kind)
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmp.Compare(a.n, b.n) // ⊥ (0) before ⊤ (1)
	case KindInt, KindDate, KindNode, KindEdge, KindPath:
		return cmp.Compare(a.i(), b.i())
	case KindFloat:
		return cmp.Compare(a.f(), b.f()) // NaN first, equal only to NaN
	case KindString:
		return strings.Compare(a.s(), b.s())
	case KindList, KindSet:
		ae, be := a.elems(), b.elems()
		for i := 0; i < len(ae) && i < len(be); i++ {
			if c := Compare(ae[i], be[i]); c != 0 {
				return c
			}
		}
		return len(ae) - len(be)
	}
	return 0
}

// twoTo63 is 2⁶³, the first float64 above every int64; -twoTo63 is
// exactly the smallest int64.
const twoTo63 = float64(1 << 63)

// compareIntFloat compares an integer with a float exactly. A float at
// or beyond ±2⁶³ lies beyond every integer; inside that range its
// integral part converts to int64 without loss, and its fraction breaks
// a tie. NaN lies below every number.
func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 1
	case f >= twoTo63:
		return -1
	case f < -twoTo63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmp.Compare(i, int64(t)); c != 0 {
		return c
	}
	return cmp.Compare(t, f)
}

// Equal reports whether a and b are the same value under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// String renders the value in the paper's display notation: strings
// are quoted, sets use curly braces with singleton sets unwrapped,
// dates use the DateLayout form, references print as #<id>.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.b() {
			return "TRUE"
		}
		return "FALSE"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s())
	case KindDate:
		return time.Unix(v.i()*86400, 0).UTC().Format(DateLayout)
	case KindList:
		parts := make([]string, v.n)
		for i, e := range v.elems() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindSet:
		if s, ok := v.Singleton(); ok {
			return s.String()
		}
		parts := make([]string, v.n)
		for i, e := range v.elems() {
			parts[i] = e.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case KindNode, KindEdge, KindPath:
		return "#" + strconv.FormatInt(v.i(), 10)
	}
	return "?"
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters used by Hash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// HashSeed is the initial accumulator for Hash chains.
func HashSeed() uint64 { return fnvOffset }

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func hashUint64(h, x uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h = hashByte(h, byte(x>>s))
	}
	return h
}

func hashStringInto(h uint64, s string) uint64 {
	h = hashUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

// Hash folds v into the FNV-1a accumulator h and returns the new
// accumulator. It agrees with Equal: equal values produce equal hashes
// (in particular an integral float in int64 range hashes like the
// integer it equals, and all NaNs hash alike), so a hash bucket plus an
// Equal confirmation groups exactly the equal values. Absent
// participates with its own tag so whole rows of a columnar binding
// table can be folded directly.
func (v Value) Hash(h uint64) uint64 {
	switch v.kind {
	case KindNull:
		return hashByte(h, 1)
	case KindBool:
		if v.b() {
			return hashByte(hashByte(h, 2), 1)
		}
		return hashByte(hashByte(h, 2), 0)
	case KindInt:
		return hashUint64(hashByte(h, 3), v.n)
	case KindFloat:
		// An integral float in int64 range is the same value as the
		// integer it equals and must land in the same bucket; every other
		// float equals no integer.
		f := v.f()
		if f == math.Trunc(f) && f >= -twoTo63 && f < twoTo63 {
			return hashUint64(hashByte(h, 3), uint64(int64(f)))
		}
		if math.IsNaN(f) {
			// All NaN payloads are one value under Compare.
			return hashByte(hashByte(h, 4), 0xA5)
		}
		return hashUint64(hashByte(h, 4), v.n)
	case KindString:
		return hashStringInto(hashByte(h, 5), v.s())
	case KindDate:
		return hashUint64(hashByte(h, 6), v.n)
	case KindList:
		h = hashUint64(hashByte(h, 7), v.n)
		for _, e := range v.elems() {
			h = e.Hash(h)
		}
		return h
	case KindSet:
		h = hashUint64(hashByte(h, 8), v.n)
		for _, e := range v.elems() {
			h = e.Hash(h)
		}
		return h
	case KindNode:
		return hashUint64(hashByte(h, 9), v.n)
	case KindEdge:
		return hashUint64(hashByte(h, 10), v.n)
	case KindPath:
		return hashUint64(hashByte(h, 11), v.n)
	case kindAbsent:
		return hashByte(h, 0xFF)
	}
	return hashByte(h, 0xFE)
}
