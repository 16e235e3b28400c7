package value

import (
	"fmt"
	"math"
)

// The operator semantics below implement §3 ("Dealing with Multi-Valued
// properties") and §A.1 of the paper:
//
//   - property access yields a set; in scalar positions singleton sets
//     stand for their element ("we omit curly braces"),
//   - comparing a scalar with a non-singleton set with = is simply
//     FALSE ("MIT" = {"CWI","MIT"} evaluates to FALSE),
//   - IN tests membership of a scalar (or singleton set) in a set,
//   - SUBSET compares two sets by inclusion,
//   - an absent property (the empty set / Null) makes comparisons
//     evaluate to FALSE rather than raising an error, which is what
//     lets WHERE silently drop bindings with missing data.

// TypeError reports an operand kind an operator cannot accept.
type TypeError struct {
	Op   string
	Kind Kind
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("value: operator %s cannot be applied to %s operand", e.Op, e.Kind)
}

// Eq implements the language's `=` comparison.
func Eq(a, b Value) Value {
	a, b = a.Scalarize(), b.Scalarize()
	if a.IsNull() || b.IsNull() {
		return False
	}
	// A residual non-singleton set compared with a scalar is FALSE;
	// set = set compares structurally.
	if (a.kind == KindSet) != (b.kind == KindSet) {
		return False
	}
	return Bool(Equal(a, b))
}

// Neq implements `<>`.
func Neq(a, b Value) Value {
	v := Eq(a, b)
	if a.Scalarize().IsNull() || b.Scalarize().IsNull() {
		return False
	}
	return Bool(!v.b())
}

// orderable reports whether the (scalarized) kinds can be ordered.
func orderable(a, b Value) bool {
	if a.IsNumeric() && b.IsNumeric() {
		return true
	}
	return a.kind == b.kind && (a.kind == KindString || a.kind == KindDate || a.kind == KindBool)
}

func cmpOp(op string, a, b Value, keep func(int) bool) Value {
	a, b = a.Scalarize(), b.Scalarize()
	if a.IsNull() || b.IsNull() {
		return False
	}
	if !orderable(a, b) {
		return False
	}
	return Bool(keep(Compare(a, b)))
}

// Lt implements `<`. Comparisons between unordered kinds are FALSE.
func Lt(a, b Value) Value { return cmpOp("<", a, b, func(c int) bool { return c < 0 }) }

// Le implements `<=`.
func Le(a, b Value) Value { return cmpOp("<=", a, b, func(c int) bool { return c <= 0 }) }

// Gt implements `>`.
func Gt(a, b Value) Value { return cmpOp(">", a, b, func(c int) bool { return c > 0 }) }

// Ge implements `>=`.
func Ge(a, b Value) Value { return cmpOp(">=", a, b, func(c int) bool { return c >= 0 }) }

// In implements `x IN s`: membership of a scalar (or singleton set) in
// a set or list. A Null element or an absent collection yields FALSE.
func In(x, s Value) Value {
	x = x.Scalarize()
	if x.IsNull() {
		return False
	}
	switch s.kind {
	case KindSet, KindList:
		for _, e := range s.elems() {
			if Equal(e, x) {
				return True
			}
		}
		return False
	case KindNull:
		return False
	}
	// Scalar right-hand side: treat as singleton collection.
	return Bool(Equal(x, s))
}

// Subset implements `a SUBSET b`: set inclusion. Scalars are promoted
// to singleton sets; Null is the empty set (subset of everything).
func Subset(a, b Value) Value {
	as, bs := asSet(a), asSet(b)
	for _, e := range as.elems() {
		if v := In(e, bs); !v.b() {
			return False
		}
	}
	return True
}

func asSet(v Value) Value {
	switch v.kind {
	case KindSet:
		return v
	case KindNull:
		return EmptySet
	case KindList:
		return Set(v.elems()...)
	}
	return Set(v)
}

// Not implements boolean negation. Null negates to Null.
func Not(v Value) (Value, error) {
	v = v.Scalarize()
	switch v.kind {
	case KindBool:
		return Bool(!v.b()), nil
	case KindNull:
		return Null, nil
	}
	return Null, &TypeError{Op: "NOT", Kind: v.kind}
}

// And implements conjunction; an absent operand behaves as FALSE,
// matching the filter semantics of WHERE.
func And(a, b Value) (Value, error) {
	ab, err := truth("AND", a)
	if err != nil {
		return Null, err
	}
	bb, err := truth("AND", b)
	if err != nil {
		return Null, err
	}
	return Bool(ab && bb), nil
}

// Or implements disjunction; an absent operand behaves as FALSE.
func Or(a, b Value) (Value, error) {
	ab, err := truth("OR", a)
	if err != nil {
		return Null, err
	}
	bb, err := truth("OR", b)
	if err != nil {
		return Null, err
	}
	return Bool(ab || bb), nil
}

// Truth coerces a value to a filter decision: TRUE keeps a binding,
// everything else (FALSE, Null/absent) drops it. Non-boolean scalars
// are a type error.
func Truth(v Value) (bool, error) { return truth("boolean condition", v) }

func truth(op string, v Value) (bool, error) {
	v = v.Scalarize()
	switch v.kind {
	case KindBool:
		return v.b(), nil
	case KindNull:
		return false, nil
	}
	return false, &TypeError{Op: op, Kind: v.kind}
}

// Neg implements arithmetic negation.
func Neg(v Value) (Value, error) {
	v = v.Scalarize()
	switch v.kind {
	case KindInt:
		return Int(-v.i()), nil
	case KindFloat:
		return Float(-v.f()), nil
	case KindNull:
		return Null, nil
	}
	return Null, &TypeError{Op: "-", Kind: v.kind}
}

// Add implements `+`: numeric addition or string concatenation (the
// paper's tabular example concatenates lastName + ', ' + firstName).
func Add(a, b Value) (Value, error) {
	a, b = a.Scalarize(), b.Scalarize()
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if as, ok := a.AsString(); ok {
		if bs, ok := b.AsString(); ok {
			return Str(as + bs), nil
		}
	}
	return arith("+", a, b,
		func(x, y int64) (int64, error) { return x + y, nil },
		func(x, y float64) (float64, error) { return x + y, nil })
}

// Sub implements numeric `-`.
func Sub(a, b Value) (Value, error) {
	return arith("-", a.Scalarize(), b.Scalarize(),
		func(x, y int64) (int64, error) { return x - y, nil },
		func(x, y float64) (float64, error) { return x - y, nil })
}

// Mul implements numeric `*`.
func Mul(a, b Value) (Value, error) {
	return arith("*", a.Scalarize(), b.Scalarize(),
		func(x, y int64) (int64, error) { return x * y, nil },
		func(x, y float64) (float64, error) { return x * y, nil })
}

// Div implements `/`. Division always yields a float (the weighted
// shortest-path example writes 1 / (1 + e.nr_messages) and expects a
// fractional cost); division by zero is a runtime error, and so is a
// quotient that is not a finite number.
func Div(a, b Value) (Value, error) {
	a, b = a.Scalarize(), b.Scalarize()
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok {
		return Null, &TypeError{Op: "/", Kind: a.kind}
	}
	if !bok {
		return Null, &TypeError{Op: "/", Kind: b.kind}
	}
	if bf == 0 {
		return Null, fmt.Errorf("value: division by zero")
	}
	return finite("/", af/bf)
}

// finite wraps a float result, refusing ±Inf and NaN: like a division
// by zero, a result no number represents is an evaluation error.
func finite(op string, f float64) (Value, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return Null, fmt.Errorf("value: %s has no finite result (%g)", op, f)
	}
	return Float(f), nil
}

// Mod implements integer `%`.
func Mod(a, b Value) (Value, error) {
	return arith("%", a.Scalarize(), b.Scalarize(),
		func(x, y int64) (int64, error) {
			if y == 0 {
				return 0, fmt.Errorf("value: modulo by zero")
			}
			return x % y, nil
		},
		func(x, y float64) (float64, error) {
			if y == 0 {
				return 0, fmt.Errorf("value: modulo by zero")
			}
			return math.Mod(x, y), nil
		})
}

func arith(op string, a, b Value, fi func(int64, int64) (int64, error), ff func(float64, float64) (float64, error)) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if ai, ok := a.AsInt(); ok {
		if bi, ok := b.AsInt(); ok {
			r, err := fi(ai, bi)
			if err != nil {
				return Null, err
			}
			return Int(r), nil
		}
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok {
		return Null, &TypeError{Op: op, Kind: a.kind}
	}
	if !bok {
		return Null, &TypeError{Op: op, Kind: b.kind}
	}
	r, err := ff(af, bf)
	if err != nil {
		return Null, err
	}
	return finite(op, r)
}
