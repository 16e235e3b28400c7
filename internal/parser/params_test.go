package parser

import (
	"strings"
	"testing"

	"gcore/internal/value"
)

func TestParseParamExpr(t *testing.T) {
	stmt, err := Parse(`CONSTRUCT (n) MATCH (n:Person) WHERE n.age > $min AND n.name = $name`)
	if err != nil {
		t.Fatal(err)
	}
	text := stmt.String()
	for _, want := range []string{"$min", "$name"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed statement lost %s: %s", want, text)
		}
	}
	// A reparse of the printed form round-trips.
	if _, err := Parse(text); err != nil {
		t.Fatalf("reparse: %v", err)
	}
}

func TestParamNames(t *testing.T) {
	names := ParamNames(`SELECT n.x MATCH (n) WHERE n.a = $b AND n.c = $a OR n.d = $b`)
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("names = %v", names)
	}
	if names := ParamNames(`MATCH (n)`); names != nil {
		t.Fatalf("no-param names = %v", names)
	}
	if names := ParamNames(`MATCH (n) WHERE $`); names != nil {
		t.Fatalf("lex-error names = %v", names)
	}
}

func TestLiteralText(t *testing.T) {
	date, err := value.ParseDate("1/12/2014")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.Null, "NULL"},
		{value.True, "TRUE"},
		{value.Int(-42), "-42"},
		{value.Float(1.5), "1.5"},
		{value.Float(3), "3.0"}, // must stay a float literal
		{value.Str("it's"), "'it''s'"},
		{date, "DATE '1/12/2014'"},
	}
	for _, tc := range cases {
		got, err := LiteralText(tc.v)
		if err != nil {
			t.Errorf("LiteralText(%v): %v", tc.v, err)
			continue
		}
		if got != tc.want {
			t.Errorf("LiteralText(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	if _, err := LiteralText(value.List(value.Int(1))); err == nil {
		t.Error("list literal text succeeded")
	}
}

func TestInlineParams(t *testing.T) {
	src := `CONSTRUCT (n) MATCH (n:Person) WHERE n.age > $min AND n.name = $who`
	out, err := InlineParams(src, map[string]value.Value{
		"min": value.Int(30),
		"who": value.Str("Alice"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `CONSTRUCT (n) MATCH (n:Person) WHERE n.age > (30) AND n.name = ('Alice')`
	if out != want {
		t.Fatalf("inlined = %q\nwant      %q", out, want)
	}
	if _, err := Parse(out); err != nil {
		t.Fatalf("inlined text does not parse: %v", err)
	}

	// Unbound parameters are named in the error with their position.
	_, err = InlineParams(src, map[string]value.Value{"min": value.Int(1)})
	if err == nil || !strings.Contains(err.Error(), "$who") {
		t.Fatalf("unbound error = %v", err)
	}

	// A statement with no parameters passes through untouched.
	out, err = InlineParams(`MATCH (n)`, nil)
	if err != nil || out != `MATCH (n)` {
		t.Fatalf("passthrough = %q, %v", out, err)
	}
}

func TestParamInSelectAndConstruct(t *testing.T) {
	// Parameters are ordinary expressions: usable in SELECT lists and
	// property assignments, not just WHERE.
	for _, src := range []string{
		`SELECT n.name AS name, $tag AS tag MATCH (n)`,
		`CONSTRUCT (n {score := $s}) MATCH (n)`,
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if !strings.Contains(stmt.String(), "$") {
			t.Errorf("printed form of %q lost the parameter: %s", src, stmt.String())
		}
	}
}
