package table

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"gcore/internal/value"
)

func sample(t *testing.T) *Table {
	t.Helper()
	tb := New("orders", "custName", "prodCode")
	rows := [][]value.Value{
		{value.Str("Bob"), value.Int(1001)},
		{value.Str("Ada"), value.Int(1002)},
	}
	for _, r := range rows {
		if err := tb.AddRow(r...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestBasics(t *testing.T) {
	tb := sample(t)
	if tb.Len() != 2 {
		t.Fatalf("len = %d", tb.Len())
	}
	if tb.Col("prodCode") != 1 || tb.Col("missing") != -1 {
		t.Error("Col misbehaves")
	}
	if err := tb.AddRow(value.Int(1)); err == nil {
		t.Error("arity mismatch must fail")
	}
	s := tb.Sorted()
	if v, _ := s.Rows[0][0].AsString(); v != "Ada" {
		t.Errorf("sorted first row = %v", s.Rows[0])
	}
	// Original unchanged.
	if v, _ := tb.Rows[0][0].AsString(); v != "Bob" {
		t.Error("Sorted must not mutate")
	}
}

func TestStringRendering(t *testing.T) {
	out := sample(t).String()
	if !strings.Contains(out, "custName") || !strings.Contains(out, `"Ada"`) {
		t.Errorf("render = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Errorf("lines = %d", len(lines))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tb := sample(t)
	data, err := tb.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if back.Name != "orders" || back.Len() != 2 || len(back.Cols) != 2 {
		t.Fatalf("round trip = %+v", back)
	}
	if !value.Equal(back.Rows[0][1], value.Int(1001)) {
		t.Error("values lost")
	}
	// Arity errors rejected on decode.
	bad := `{"name":"t","cols":["a"],"rows":[[1,2]]}`
	if err := back.UnmarshalJSON([]byte(bad)); err == nil {
		t.Error("arity mismatch must fail on decode")
	}
	if err := back.UnmarshalJSON([]byte("{")); err == nil {
		t.Error("syntax error must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	src := "custName,prodCode,vip\nAda,1001,true\nBob,2.5,false\nCyd,,\n"
	tb, err := ReadCSV("orders", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 || len(tb.Cols) != 3 {
		t.Fatalf("table = %+v", tb)
	}
	if !value.Equal(tb.Rows[0][1], value.Int(1001)) {
		t.Error("integer cell not typed")
	}
	if !value.Equal(tb.Rows[1][1], value.Float(2.5)) {
		t.Error("float cell not typed")
	}
	if b, _ := tb.Rows[0][2].AsBool(); !b {
		t.Error("bool cell not typed")
	}
	if !tb.Rows[2][1].IsNull() {
		t.Error("empty cell must be null")
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("orders", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 3 {
		t.Error("CSV round trip lost rows")
	}
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Error("empty CSV must fail (no header)")
	}
}

// TestAppendJSONMatchesReference holds the appender to the reflection
// encoder MarshalJSON used before it: compact bytes identical, nil
// column lists, row lists and rows written as null.
func TestAppendJSONMatchesReference(t *testing.T) {
	for _, tb := range []*Table{
		sample(t),
		New("empty"),
		{Name: "no_cols", Cols: []string{}, Rows: [][]value.Value{}},
		{Name: "nil_rows<&>", Cols: []string{"a"}, Rows: [][]value.Value{nil, {value.Set(value.Float(1), value.Str(" "))}}},
	} {
		want, err := json.Marshal(struct {
			Name string          `json:"name"`
			Cols []string        `json:"cols"`
			Rows [][]value.Value `json:"rows"`
		}{tb.Name, tb.Cols, tb.Rows})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tb.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON %s, reference %s", tb.Name, got, want)
		}
		indented, err := tb.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, indented); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compact.Bytes(), want) {
			t.Errorf("%s: json.Compact(MarshalJSON) %s, reference %s", tb.Name, compact.Bytes(), want)
		}
	}
}
