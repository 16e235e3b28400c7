package value

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueSize pins the layout every binding slot and result row pays
// for: at most 24 bytes, and not comparable with ==, which would
// compare string and element pointers rather than contents.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 24 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want at most 24", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable with ==; it must compare through Compare and Equal")
	}
}

// TestAccessorsOnWrongKind: every typed accessor applied to a value of
// another kind returns the zero content and false, never the payload
// word read as the wrong type.
func TestAccessorsOnWrongKind(t *testing.T) {
	vals := []Value{Null, Absent, True, Int(5), Float(2.5), Str("five"), Date(5),
		List(Int(5)), Set(Int(5), Int(6)), NodeRef(5), EdgeRef(5), PathRef(5)}
	for _, v := range vals {
		k := v.Kind()
		if b, ok := v.AsBool(); k != KindBool && (b || ok) {
			t.Errorf("%v.AsBool() = %v, %v", v, b, ok)
		}
		if i, ok := v.AsInt(); k != KindInt && (i != 0 || ok) {
			t.Errorf("%v.AsInt() = %v, %v", v, i, ok)
		}
		if f, ok := v.AsFloat(); k != KindInt && k != KindFloat && (f != 0 || ok) {
			t.Errorf("%v.AsFloat() = %v, %v", v, f, ok)
		}
		if s, ok := v.AsString(); k != KindString && (s != "" || ok) {
			t.Errorf("%v.AsString() = %q, %v", v, s, ok)
		}
		if d, ok := v.AsDateDays(); k != KindDate && (d != 0 || ok) {
			t.Errorf("%v.AsDateDays() = %v, %v", v, d, ok)
		}
		if id, ok := v.RefID(); !v.IsRef() && (id != 0 || ok) {
			t.Errorf("%v.RefID() = %v, %v", v, id, ok)
		}
		if es := v.Elems(); k != KindList && k != KindSet && es != nil {
			t.Errorf("%v.Elems() = %v", v, es)
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindBool: "bool", KindInt: "integer",
		KindFloat: "float", KindString: "string", KindDate: "date",
		KindList: "list", KindSet: "set", KindNode: "node",
		KindEdge: "edge", KindPath: "path",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool(true) round-trip failed")
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Error("Int round-trip failed")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("Float round-trip failed")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("Int should widen to float")
	}
	if s, ok := Str("x").AsString(); !ok || s != "x" {
		t.Error("Str round-trip failed")
	}
	if _, ok := Str("x").AsInt(); ok {
		t.Error("string should not be an int")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassifies")
	}
	if !NodeRef(4).IsRef() || Int(4).IsRef() {
		t.Error("IsRef misclassifies")
	}
	if id, ok := EdgeRef(9).RefID(); !ok || id != 9 {
		t.Error("RefID round-trip failed")
	}
}

func TestParseDate(t *testing.T) {
	d, err := ParseDate("1/12/2014")
	if err != nil {
		t.Fatalf("ParseDate: %v", err)
	}
	if d.Kind() != KindDate {
		t.Fatalf("kind = %v", d.Kind())
	}
	if got := d.String(); got != "1/12/2014" {
		t.Errorf("date renders as %q", got)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error for invalid date")
	}
}

func TestSetNormalization(t *testing.T) {
	s := Set(Str("MIT"), Str("CWI"), Str("MIT"))
	if s.Len() != 2 {
		t.Fatalf("set of {MIT,CWI,MIT} has %d elements", s.Len())
	}
	if !Equal(s, Set(Str("CWI"), Str("MIT"))) {
		t.Error("sets differing only in construction order must be equal")
	}
	// Nulls are dropped: the empty set already means absence.
	if Set(Null).Len() != 0 {
		t.Error("Set(Null) should be empty")
	}
}

func TestSingletonAndScalarize(t *testing.T) {
	one := Set(Str("Acme"))
	if v, ok := one.Singleton(); !ok || !Equal(v, Str("Acme")) {
		t.Error("singleton unwrap failed")
	}
	if _, ok := Set(Str("a"), Str("b")).Singleton(); ok {
		t.Error("two-element set is not a singleton")
	}
	if !Equal(one.Scalarize(), Str("Acme")) {
		t.Error("Scalarize should unwrap singleton set")
	}
	if !EmptySet.Scalarize().IsNull() {
		t.Error("Scalarize of empty set should be Null")
	}
	if !Equal(Int(3).Scalarize(), Int(3)) {
		t.Error("Scalarize of scalar should be identity")
	}
}

func TestCompareAcrossKinds(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 || Compare(Float(2.0), Int(2)) != 0 {
		// Numerically equal values are the same value across kinds.
		t.Error("2 and 2.0 must compare equal")
	}
	if Compare(Int(3), Float(2.5)) <= 0 {
		t.Error("3 > 2.5 across kinds")
	}
	if Compare(Str("a"), Int(1)) <= 0 {
		t.Error("string kind sorts after int kind")
	}
	if Compare(List(Int(1), Int(2)), List(Int(1), Int(3))) >= 0 {
		t.Error("lists compare lexicographically")
	}
	if Compare(List(Int(1)), List(Int(1), Int(0))) >= 0 {
		t.Error("prefix list sorts first")
	}
}

func TestEqSemantics(t *testing.T) {
	// The paper's core example: "MIT" = {"CWI","MIT"} is FALSE.
	multi := Set(Str("CWI"), Str("MIT"))
	if v := Eq(Str("MIT"), multi); v.b() {
		t.Error(`"MIT" = {"CWI","MIT"} must be FALSE`)
	}
	// Singleton sets unwrap: "Acme" = {"Acme"} is TRUE.
	if v := Eq(Str("Acme"), Set(Str("Acme"))); !v.b() {
		t.Error(`"Acme" = {"Acme"} must be TRUE`)
	}
	// Absent property: comparisons are FALSE, not errors.
	if v := Eq(Str("Acme"), Null); v.b() {
		t.Error("= with absent operand must be FALSE")
	}
	if v := Neq(Str("Acme"), Null); v.b() {
		t.Error("<> with absent operand must be FALSE")
	}
	if v := Eq(multi, multi); !v.b() {
		t.Error("set = set compares structurally")
	}
	if v := Neq(Str("a"), Str("b")); !v.b() {
		t.Error("'a' <> 'b' must be TRUE")
	}
}

func TestInAndSubset(t *testing.T) {
	emp := Set(Str("CWI"), Str("MIT"))
	if v := In(Str("MIT"), emp); !v.b() {
		t.Error(`"MIT" IN {"CWI","MIT"} must be TRUE`)
	}
	if v := In(Str("Acme"), emp); v.b() {
		t.Error(`"Acme" IN {"CWI","MIT"} must be FALSE`)
	}
	// Singleton left side unwraps (c.name IN n.employer with c.name a set).
	if v := In(Set(Str("CWI")), emp); !v.b() {
		t.Error("singleton set IN set must unwrap")
	}
	if v := In(Str("x"), Null); v.b() {
		t.Error("IN absent collection must be FALSE")
	}
	// Scalar RHS behaves as singleton: 'a' IN 'a'.
	if v := In(Str("a"), Str("a")); !v.b() {
		t.Error("scalar IN scalar compares equality")
	}
	if v := Subset(Set(Str("MIT")), emp); !v.b() {
		t.Error("{MIT} SUBSET {CWI,MIT} must be TRUE")
	}
	if v := Subset(emp, Set(Str("MIT"))); v.b() {
		t.Error("{CWI,MIT} SUBSET {MIT} must be FALSE")
	}
	if v := Subset(Null, emp); !v.b() {
		t.Error("empty set is subset of everything")
	}
}

func TestOrdering(t *testing.T) {
	if !Lt(Int(1), Float(1.5)).b() || !Gt(Float(1.5), Int(1)).b() {
		t.Error("cross-kind numeric ordering failed")
	}
	if !Le(Str("a"), Str("a")).b() || !Ge(Str("b"), Str("a")).b() {
		t.Error("string ordering failed")
	}
	if Lt(Str("a"), Int(1)).b() {
		t.Error("ordering between unordered kinds must be FALSE")
	}
	if Lt(Null, Int(1)).b() {
		t.Error("ordering with absent operand must be FALSE")
	}
	d1, _ := ParseDate("1/12/2014")
	d2, _ := ParseDate("2/12/2014")
	if !Lt(d1, d2).b() {
		t.Error("date ordering failed")
	}
}

func TestBooleanOps(t *testing.T) {
	v, err := And(True, False)
	if err != nil || v.b() {
		t.Error("TRUE AND FALSE must be FALSE")
	}
	v, err = Or(False, True)
	if err != nil || !v.b() {
		t.Error("FALSE OR TRUE must be TRUE")
	}
	v, err = Not(False)
	if err != nil || !v.b() {
		t.Error("NOT FALSE must be TRUE")
	}
	if _, err = Not(Int(3)); err == nil {
		t.Error("NOT 3 must be a type error")
	}
	// Absent operands behave as FALSE in filters.
	v, err = And(Null, True)
	if err != nil || v.b() {
		t.Error("NULL AND TRUE must be FALSE")
	}
	if b, err := Truth(Set(Bool(true))); err != nil || !b {
		t.Error("Truth should unwrap singleton boolean set")
	}
	if _, err := Truth(Str("x")); err == nil {
		t.Error("Truth of a string must be a type error")
	}
}

func TestArithmetic(t *testing.T) {
	v, err := Add(Int(2), Int(3))
	if err != nil || !Equal(v, Int(5)) {
		t.Errorf("2+3 = %v, %v", v, err)
	}
	v, err = Add(Str("Doe"), Str(", John"))
	if err != nil || !Equal(v, Str("Doe, John")) {
		t.Errorf("string concat = %v, %v", v, err)
	}
	v, err = Sub(Int(2), Float(0.5))
	if err != nil || !Equal(v, Float(1.5)) {
		t.Errorf("2-0.5 = %v, %v", v, err)
	}
	v, err = Mul(Int(4), Int(5))
	if err != nil || !Equal(v, Int(20)) {
		t.Errorf("4*5 = %v, %v", v, err)
	}
	// Division is always real: the paper's cost 1/(1+e.nr_messages).
	v, err = Div(Int(1), Int(4))
	if err != nil || !Equal(v, Float(0.25)) {
		t.Errorf("1/4 = %v, %v", v, err)
	}
	if _, err = Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero must error")
	}
	v, err = Mod(Int(7), Int(3))
	if err != nil || !Equal(v, Int(1)) {
		t.Errorf("7%%3 = %v, %v", v, err)
	}
	if _, err = Mod(Int(7), Int(0)); err == nil {
		t.Error("modulo by zero must error")
	}
	if _, err = Add(Int(1), Bool(true)); err == nil {
		t.Error("1 + TRUE must be a type error")
	}
	v, err = Neg(Int(3))
	if err != nil || !Equal(v, Int(-3)) {
		t.Errorf("-3 = %v, %v", v, err)
	}
	// Singleton-set operands unwrap in arithmetic.
	v, err = Add(Set(Int(1)), Int(1))
	if err != nil || !Equal(v, Int(2)) {
		t.Errorf("{1}+1 = %v, %v", v, err)
	}
	// Absent operands propagate absence.
	v, err = Add(Null, Int(1))
	if err != nil || !v.IsNull() {
		t.Errorf("null+1 = %v, %v", v, err)
	}
}

func TestIndexAndLen(t *testing.T) {
	l := List(Int(10), Int(20), Int(30))
	if !Equal(l.Index(1), Int(20)) {
		t.Error("Index(1) failed")
	}
	if !l.Index(5).IsNull() || !l.Index(-1).IsNull() {
		t.Error("out-of-range Index must be Null")
	}
	if l.Len() != 3 || Str("abc").Len() != 3 || Null.Len() != 0 || Int(1).Len() != -1 {
		t.Error("Len misbehaves")
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"null":           Null,
		"TRUE":           True,
		"42":             Int(42),
		"0.95":           Float(0.95),
		`"Wagner"`:       Str("Wagner"),
		`{"CWI", "MIT"}`: Set(Str("MIT"), Str("CWI")),
		`"MIT"`:          Set(Str("MIT")), // singleton renders without braces
		"[1, 2]":         List(Int(1), Int(2)),
		"#105":           NodeRef(105),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v renders as %q, want %q", v.Kind(), got, want)
		}
	}
}

// TestKeyDistinguishesValues: a value is its own grouping key under
// Compare and Hash — distinct values compare unequal and, over this
// small domain, hash apart; equal values across int/float share both.
func TestKeyDistinguishesValues(t *testing.T) {
	vals := []Value{
		Null, True, False, Int(1), Int(2), Float(1.5), Str("1"), Str("x"),
		Date(1), List(Int(1)), Set(Int(1)), NodeRef(1), EdgeRef(1), PathRef(1),
		List(Int(1), Int(2)), Set(Int(1), Int(2)),
	}
	seen := map[uint64]Value{}
	for i, v := range vals {
		for _, w := range vals[:i] {
			if Equal(v, w) {
				t.Errorf("%v and %v compare equal", w, v)
			}
		}
		h := v.Hash(HashSeed())
		if prev, dup := seen[h]; dup {
			t.Errorf("Hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
	if !Equal(Int(2), Float(2.0)) || Int(2).Hash(HashSeed()) != Float(2.0).Hash(HashSeed()) {
		t.Error("2 and 2.0 must be one grouping key")
	}
}

func TestAggregates(t *testing.T) {
	in := []Value{Int(1), Null, Int(3), Int(2)}
	check := func(k AggKind, want Value) {
		t.Helper()
		got, err := Aggregate(k, in)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if !Equal(got, want) {
			t.Errorf("%v = %v, want %v", k, got, want)
		}
	}
	check(AggCount, Int(3)) // Null skipped
	check(AggSum, Int(6))
	check(AggMin, Int(1))
	check(AggMax, Int(3))
	check(AggAvg, Float(2))
	check(AggCollect, List(Int(1), Int(3), Int(2)))

	got, err := Aggregate(AggSum, []Value{Int(1), Float(0.5)})
	if err != nil || !Equal(got, Float(1.5)) {
		t.Errorf("mixed SUM = %v, %v", got, err)
	}
	if _, err := Aggregate(AggSum, []Value{Str("x")}); err == nil {
		t.Error("SUM of strings must be a type error")
	}
	if v, err := Aggregate(AggAvg, nil); err != nil || !v.IsNull() {
		t.Error("AVG of empty group must be absent")
	}
	if v, err := Aggregate(AggMin, nil); err != nil || !v.IsNull() {
		t.Error("MIN of empty group must be absent")
	}
}

func TestParseAggKind(t *testing.T) {
	for _, name := range []string{"count", "SUM", "Min", "MAX", "avg", "COLLECT"} {
		if _, ok := ParseAggKind(name); !ok {
			t.Errorf("ParseAggKind(%q) failed", name)
		}
	}
	if _, ok := ParseAggKind("median"); ok {
		t.Error("unknown aggregate should not parse")
	}
	for _, k := range []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg, AggCollect} {
		if k.String() == "" {
			t.Error("empty agg name")
		}
	}
}

// randValue generates a random scalar value for property-based tests.
func randValue(r *rand.Rand, depth int) Value {
	switch n := r.Intn(7); {
	case n == 0:
		return Int(int64(r.Intn(20) - 10))
	case n == 1:
		return Float(float64(r.Intn(40))/4 - 5)
	case n == 2:
		return Str(string(rune('a' + r.Intn(5))))
	case n == 3:
		return Bool(r.Intn(2) == 0)
	case n == 4:
		return Date(int64(r.Intn(100)))
	case n == 5 && depth > 0:
		k := r.Intn(3)
		es := make([]Value, k)
		for i := range es {
			es[i] = randValue(r, depth-1)
		}
		return Set(es...)
	case n == 6 && depth > 0:
		k := r.Intn(3)
		es := make([]Value, k)
		for i := range es {
			es[i] = randValue(r, depth-1)
		}
		return List(es...)
	}
	return Null
}

// TestCompareIsTotalOrder: Compare is a total preorder — reflexive,
// antisymmetric and transitive over every triple — on random values
// plus the numeric boundaries where a float64 detour would round
// (2⁵³±1, 2⁶⁰, ±2⁶³, 1e18), the non-finite floats and −0.0; and Equal
// implies equal Hash.
func TestCompareIsTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := []Value{
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.Copysign(0, -1)), Float(0), Int(0), Int(1), Float(1), Float(1.5),
		Int(1<<53 - 1), Int(1 << 53), Int(1<<53 + 1), Float(1 << 53),
		Int(1 << 60), Float(1 << 60), Int(1<<60 + 1),
		Int(math.MaxInt64), Int(math.MinInt64), Float(1 << 63), Float(-(1 << 63)),
		Int(1e18), Float(1e18), Int(1e18 + 1),
		Set(Int(1), Float(math.NaN())), List(Float(math.NaN()), Int(1)),
	}
	// Strings sharing one backing array with each other, and fresh
	// copies of the same contents: a string compares and hashes by its
	// bytes, never by where they live.
	backing := "abcabcab"
	for _, sub := range []string{backing[:3], backing[3:6], backing[6:], backing[2:2], backing[1:4]} {
		shared, fresh := Str(sub), Str(strings.Clone(sub))
		if Compare(shared, fresh) != 0 || shared.Hash(HashSeed()) != fresh.Hash(HashSeed()) {
			t.Fatalf("substring %q compares or hashes apart from its copy", sub)
		}
		vals = append(vals, shared, fresh, List(shared, Int(1)), Set(fresh))
	}
	for i := 0; i < 60; i++ {
		vals = append(vals, randValue(r, 2))
	}
	for _, a := range vals {
		if Compare(a, a) != 0 {
			t.Fatalf("Compare not reflexive on %v", a)
		}
		for _, b := range vals {
			ab, ba := Compare(a, b), Compare(b, a)
			if (ab < 0) != (ba > 0) || (ab == 0) != (ba == 0) {
				t.Fatalf("Compare not antisymmetric on %v, %v", a, b)
			}
			if ab == 0 && a.Hash(HashSeed()) != b.Hash(HashSeed()) {
				t.Fatalf("Equal values %v and %v hash apart", a, b)
			}
			for _, c := range vals {
				bc, ac := Compare(b, c), Compare(a, c)
				if ab <= 0 && bc <= 0 && (ac > 0 || (ab < 0 || bc < 0) && ac == 0) {
					t.Fatalf("Compare not transitive: %v ≤ %v ≤ %v but Compare(a, c) = %d", a, b, c, ac)
				}
			}
		}
	}
	if s := Set(Int(1), Float(math.NaN())); s.Len() != 2 {
		t.Errorf("Set(1, NaN) = %v: NaN must stay apart from 1", s)
	}
}

func TestQuickSetIdempotent(t *testing.T) {
	f := func(xs []int64) bool {
		vs := make([]Value, len(xs))
		for i, x := range xs {
			vs[i] = Int(x % 10)
		}
		s := Set(vs...)
		// Building a set from a set's elements is the identity.
		return Equal(s, Set(s.Elems()...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetReflexiveAndEmpty(t *testing.T) {
	f := func(xs []int64) bool {
		vs := make([]Value, len(xs))
		for i, x := range xs {
			vs[i] = Int(x % 10)
		}
		s := Set(vs...)
		return Subset(s, s).b() && Subset(EmptySet, s).b()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickInConsistentWithSubset(t *testing.T) {
	f := func(x int64, xs []int64) bool {
		vs := make([]Value, len(xs))
		for i, e := range xs {
			vs[i] = Int(e % 10)
		}
		s := Set(vs...)
		v := Int(x % 10)
		return In(v, s).b() == Subset(Set(v), s).b()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestArithmeticNonFinite: an arithmetic result or a float SUM/AVG that
// is ±Inf or NaN is an error, like division by zero — no operator
// hands a non-finite number to the rest of the engine.
func TestArithmeticNonFinite(t *testing.T) {
	big, nan := Float(1e308), Float(math.NaN())
	for name, f := range map[string]func() (Value, error){
		"1e308+1e308":      func() (Value, error) { return Add(big, big) },
		"-1e308-1e308":     func() (Value, error) { return Sub(Float(-1e308), big) },
		"1e308*10":         func() (Value, error) { return Mul(big, Int(10)) },
		"1e308/0.5":        func() (Value, error) { return Div(big, Float(0.5)) },
		"NaN+1":            func() (Value, error) { return Add(nan, Int(1)) },
		"NaN*0":            func() (Value, error) { return Mul(nan, Int(0)) },
		"SUM(1e308,1e308)": func() (Value, error) { return Aggregate(AggSum, []Value{big, big}) },
		"AVG(1e308,1e308)": func() (Value, error) { return Aggregate(AggAvg, []Value{big, big}) },
		"SUM(NaN)":         func() (Value, error) { return Aggregate(AggSum, []Value{nan}) },
		"AVG(1,NaN)":       func() (Value, error) { return Aggregate(AggAvg, []Value{Int(1), nan}) },
	} {
		if v, err := f(); err == nil {
			t.Errorf("%s = %v, want an error", name, v)
		}
	}
	// Results at the edge of the float range stay numbers.
	if v, err := Mul(Float(1e154), Float(1e154)); err != nil || !Equal(v, Float(1e308)) {
		t.Errorf("1e154*1e154 = %v, %v", v, err)
	}
	if v, err := Aggregate(AggAvg, []Value{big, Float(-1e308)}); err != nil || !Equal(v, Float(0)) {
		t.Errorf("AVG(1e308,-1e308) = %v, %v", v, err)
	}
}
