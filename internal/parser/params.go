package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gcore/internal/ast"
	"gcore/internal/lexer"
	"gcore/internal/value"
)

// Prepared-statement support at the source-text level: collecting the
// $param names of a statement, and inlining bindings as literal text.

// ParamNames returns the distinct $param names of src in first-use
// order. A lex error yields nil: the caller's parse will report it.
func ParamNames(src string) []string {
	toks, err := lexer.Lex(src)
	if err != nil {
		return nil
	}
	var names []string
	seen := map[string]bool{}
	for _, t := range toks {
		if t.Kind == lexer.Param && !seen[t.Text] {
			seen[t.Text] = true
			names = append(names, t.Text)
		}
	}
	return names
}

// LiteralText renders a scalar value as G-CORE literal syntax that
// lexes and parses back to the same value. Collections and
// graph-object references have no literal form and are rejected.
func LiteralText(v value.Value) (string, error) {
	switch v.Kind() {
	case value.KindNull:
		return "NULL", nil
	case value.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "", fmt.Errorf("float parameter %v has no literal form", f)
		}
		s := strconv.FormatFloat(f, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep the literal a float, not an integer
		}
		return s, nil
	case value.KindBool, value.KindInt, value.KindString, value.KindDate:
		return ast.ExprString(&ast.Literal{Val: v}), nil
	}
	return "", fmt.Errorf("parameter of kind %s has no literal form", v.Kind())
}

// InlineParams replaces every $name token of src with the literal text
// of its binding, preserving the surrounding source byte-for-byte.
// Unbound parameters are an error; unused bindings are ignored (the
// evaluator treats extra bindings the same way). The engine itself
// never inlines: bound parameters compile into the plan-cache entry.
// InlineParams is the inlined-literal oracle of the root package's
// tests (FuzzParamInline, the planner and seek tests, and the
// parameter benchmarks), which hold a parameterised execution equal to
// the statement with its literals spliced in.
func InlineParams(src string, params map[string]value.Value) (string, error) {
	toks, err := lexer.Lex(src)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	last := 0
	for _, t := range toks {
		if t.Kind != lexer.Param {
			continue
		}
		v, ok := params[t.Text]
		if !ok {
			return "", fmt.Errorf("unbound parameter $%s at %s", t.Text, t.Pos)
		}
		lit, err := LiteralText(v)
		if err != nil {
			return "", fmt.Errorf("parameter $%s: %v", t.Text, err)
		}
		sb.WriteString(src[last:t.Off])
		// Parenthesise so operator precedence around the splice point
		// is unchanged (e.g. -$x with $x = -1).
		sb.WriteString("(" + lit + ")")
		last = t.End
	}
	sb.WriteString(src[last:])
	return sb.String(), nil
}
