package value

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"unicode/utf8"
)

func roundTripJSON(t *testing.T, v Value) Value {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %v: %v", v, err)
	}
	var back Value
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	return back
}

func TestJSONRoundTripAllKinds(t *testing.T) {
	d, _ := ParseDate("1/12/2014")
	vals := []Value{
		Null, True, False, Int(42), Int(-1), Float(2.5), Float(3.0),
		Str("x"), Str(""), d,
		List(Int(1), Str("a")), Set(Str("CWI"), Str("MIT")),
		NodeRef(7), EdgeRef(8), PathRef(9),
		List(Set(Int(1)), List()),
	}
	for _, v := range vals {
		back := roundTripJSON(t, v)
		if !Equal(v, back) {
			t.Errorf("round trip changed %v (%v) to %v (%v)", v, v.Kind(), back, back.Kind())
		}
		if v.Kind() != back.Kind() {
			t.Errorf("round trip changed kind of %v: %v → %v", v, v.Kind(), back.Kind())
		}
	}
}

func TestJSONFloatStaysFloat(t *testing.T) {
	// Integral floats must keep their kind through JSON.
	back := roundTripJSON(t, Float(4.0))
	if back.Kind() != KindFloat {
		t.Errorf("4.0 decoded as %v", back.Kind())
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	bad := []string{
		`{"date": 5}`,
		`{"date": "nope"}`,
		`{"list": 5}`,
		`{"set": "x"}`,
		`{"node": "x"}`,
		`{"node": -1}`,
		`{"node": 1.5}`,
		`{"bogus": 1}`,
		`{"list": [1], "set": [2]}`,
		`[{"bogus": 1}]`,
		`{`,
	}
	for _, src := range bad {
		var v Value
		if err := json.Unmarshal([]byte(src), &v); err == nil {
			t.Errorf("decoded invalid %q as %v", src, v)
		}
	}
	// Top-level arrays are not a Value form.
	var v Value
	if err := json.Unmarshal([]byte(`[1,2]`), &v); err == nil {
		t.Error("bare array must not decode")
	}
}

func TestJSONLargeNumbers(t *testing.T) {
	back := roundTripJSON(t, Int(1<<53+1))
	if i, ok := back.AsInt(); !ok || i != 1<<53+1 {
		t.Errorf("large int round trip = %v", back)
	}
}

func TestMarshalUnknownKind(t *testing.T) {
	v := Value{kind: Kind(99)}
	if _, err := json.Marshal(v); err == nil {
		t.Error("unknown kind must fail to marshal")
	}
}

func TestAsDateDays(t *testing.T) {
	d, _ := ParseDate("2/1/1970")
	days, ok := d.AsDateDays()
	if !ok || days != 1 {
		t.Errorf("2/1/1970 = %d days, ok=%v", days, ok)
	}
	if _, ok := Int(1).AsDateDays(); ok {
		t.Error("non-date must not report days")
	}
}

func TestOpsErrorMessages(t *testing.T) {
	_, err := Add(Bool(true), Int(1))
	if err == nil {
		t.Fatal("expected type error")
	}
	if te, ok := err.(*TypeError); !ok || te.Error() == "" {
		t.Errorf("error = %v", err)
	}
	if _, err := Neg(Str("x")); err == nil {
		t.Error("negating a string must fail")
	}
	if v, err := Neg(Null); err != nil || !v.IsNull() {
		t.Error("negating null is null")
	}
	if v, err := Neg(Float(1.5)); err != nil || !Equal(v, Float(-1.5)) {
		t.Error("negating float failed")
	}
	if _, err := And(Int(1), True); err == nil {
		t.Error("AND with integer must fail")
	}
	if _, err := Or(True, Int(1)); err == nil {
		t.Error("OR with integer must fail")
	}
	if _, err := Sub(Str("a"), Str("b")); err == nil {
		t.Error("string subtraction must fail")
	}
	if _, err := Mul(Str("a"), Int(2)); err == nil {
		t.Error("string multiplication must fail")
	}
	if v, err := Mod(Float(7.5), Float(2)); err != nil || !Equal(v, Float(1.5)) {
		t.Errorf("float mod = %v, %v", v, err)
	}
	if _, err := Div(Str("a"), Int(1)); err == nil {
		t.Error("dividing a string must fail")
	}
	if _, err := Div(Int(1), Str("a")); err == nil {
		t.Error("dividing by a string must fail")
	}
}

func TestSubsetWithListOperands(t *testing.T) {
	// Lists coerce to sets for SUBSET.
	if v := Subset(List(Int(1), Int(1)), Set(Int(1), Int(2))); !v.b {
		t.Error("list SUBSET set failed")
	}
	if v := Subset(Int(1), Set(Int(1))); !v.b {
		t.Error("scalar SUBSET singleton failed")
	}
}

// refValue routes encoding/json through referenceJSON, so nested
// elements are encoded by the reference too.
type refValue Value

func (r refValue) MarshalJSON() ([]byte, error) { return referenceJSON(Value(r)) }

func refElems(elems []Value) []refValue {
	if elems == nil {
		return nil
	}
	out := make([]refValue, len(elems))
	for i, e := range elems {
		out[i] = refValue(e)
	}
	return out
}

// referenceJSON is the reflection encoder MarshalJSON used before
// AppendJSON replaced it, kept as the oracle AppendJSON must match byte
// for byte.
func referenceJSON(v Value) ([]byte, error) {
	switch v.kind {
	case KindNull:
		return []byte("null"), nil
	case KindBool:
		return json.Marshal(v.b)
	case KindInt:
		return json.Marshal(v.i)
	case KindFloat:
		if v.f == float64(int64(v.f)) {
			return []byte(fmt.Sprintf("%.1f", v.f)), nil
		}
		return json.Marshal(v.f)
	case KindString:
		return json.Marshal(v.s)
	case KindDate:
		return json.Marshal(map[string]string{"date": v.String()})
	case KindList:
		return json.Marshal(map[string][]refValue{"list": refElems(v.elems)})
	case KindSet:
		return json.Marshal(map[string][]refValue{"set": refElems(v.elems)})
	case KindNode:
		return json.Marshal(map[string]uint64{"node": uint64(v.i)})
	case KindEdge:
		return json.Marshal(map[string]uint64{"edge": uint64(v.i)})
	case KindPath:
		return json.Marshal(map[string]uint64{"path": uint64(v.i)})
	}
	return nil, fmt.Errorf("value: cannot marshal kind %v", v.kind)
}

// fuzzValue builds a value tree from the fuzz inputs: shape picks the
// top-level form, so one corpus entry exercises scalars, wrappers and
// nesting.
func fuzzValue(s string, f float64, i int64, shape byte) Value {
	date := Date(int64(uint64(i) % 2932896)) // 1/1/1970 … 31/12/9999
	scalars := []Value{Str(s), Float(f), Int(i), date, Bool(i%2 == 0), Null}
	switch shape % 8 {
	case 0:
		return Str(s)
	case 1:
		return Float(f)
	case 2:
		return List(scalars...)
	case 3:
		return Set(scalars...)
	case 4:
		id := uint64(i) & math.MaxInt64 // identifiers decode as int64
		return List(Set(Str(s), Float(f)), List(), List(NodeRef(id), EdgeRef(id), PathRef(id)))
	case 5:
		return Value{kind: KindList} // nil elements: encodes, but has no decoded form
	case 6:
		return date
	}
	return Set(List(Str(s)), Set(Float(f), Int(i)), Str(s+s))
}

func FuzzValueJSON(f *testing.F) {
	for _, s := range []string{"", "plain", "<>&", "a b c", "\xff\xfe bad \xc3", "\x00\x01\x1f\b\f\n\r\t\x7f", `"\/`, "ünïcödé 日本"} {
		f.Add(s, 1.5, int64(7), byte(0))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 3, -42, 1e20, 1e21, 1.5e300, 5e-324, 1e-7, 1e-6, 123456.789, 9.223372036854775807e18, -9.223372036854775808e18, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add("x", x, int64(-3), byte(1))
	}
	for shape := byte(2); shape < 8; shape++ {
		f.Add("<set>", 2.0, int64(16000), shape)
		f.Add(" ", 0.1, int64(math.MinInt64), shape)
	}
	f.Fuzz(func(t *testing.T, s string, x float64, i int64, shape byte) {
		v := fuzzValue(s, x, i, shape)
		want, wantErr := referenceJSON(v)
		got, err := v.AppendJSON([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v: AppendJSON error %v, reference error %v", v, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("%v: AppendJSON wrote %q, reference %q", v, got, want)
		}
		if shape%8 == 5 {
			return
		}
		var back Value
		if err := back.UnmarshalJSON(want); err != nil {
			t.Fatalf("%v: %q does not decode: %v", v, want, err)
		}
		if utf8.ValidString(s) && (!Equal(v, back) || v.Kind() != back.Kind()) {
			t.Fatalf("round trip changed %v (%v) to %v (%v)", v, v.Kind(), back, back.Kind())
		}
	})
}
