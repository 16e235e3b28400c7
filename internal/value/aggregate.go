package value

import (
	"fmt"
	"strings"
)

// Aggregation functions of §A.1: COUNT, MIN, MAX, SUM, AVG and
// COLLECT. Each folds the values an expression takes across the
// bindings of one construct group (§A.3). Absent (Null) inputs are
// skipped, mirroring SQL's treatment of NULL in aggregates; COUNT(*)
// is handled by the evaluator, which feeds one non-null marker per
// counted binding.

// AggKind names an aggregation function.
type AggKind uint8

// The supported aggregation functions.
const (
	AggCount AggKind = iota
	AggSum
	AggMin
	AggMax
	AggAvg
	AggCollect
)

// ParseAggKind resolves an aggregation function name (case-insensitive).
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "AVG":
		return AggAvg, true
	case "COLLECT":
		return AggCollect, true
	}
	return 0, false
}

// String returns the surface name of the aggregation function.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	case AggCollect:
		return "COLLECT"
	}
	return fmt.Sprintf("AGG(%d)", uint8(k))
}

// Aggregate folds in over the aggregation function k. Sets in the
// input are not flattened: each binding contributes one value.
func Aggregate(k AggKind, in []Value) (Value, error) {
	switch k {
	case AggCount:
		n := int64(0)
		for _, v := range in {
			if !v.Scalarize().IsNull() { // the empty set means absent
				n++
			}
		}
		return Int(n), nil
	case AggCollect:
		out := make([]Value, 0, len(in))
		for _, v := range in {
			if !v.Scalarize().IsNull() {
				out = append(out, v)
			}
		}
		return List(out...), nil
	case AggMin, AggMax:
		best := Null
		for _, v := range in {
			v = v.Scalarize()
			if v.IsNull() {
				continue
			}
			if best.IsNull() {
				best = v
				continue
			}
			c := Compare(v, best)
			if (k == AggMin && c < 0) || (k == AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	case AggSum, AggAvg:
		var (
			fsum    float64
			isum    int64
			n       int64
			sawReal bool
		)
		for _, v := range in {
			v = v.Scalarize()
			if v.IsNull() {
				continue
			}
			switch v.Kind() {
			case KindInt:
				isum += v.i()
				fsum += float64(v.i())
			case KindFloat:
				sawReal = true
				fsum += v.f()
			default:
				return Null, &TypeError{Op: k.String(), Kind: v.Kind()}
			}
			n++
		}
		if k == AggAvg {
			if n == 0 {
				return Null, nil
			}
			return finite(k.String(), fsum/float64(n))
		}
		if sawReal {
			return finite(k.String(), fsum)
		}
		return Int(isum), nil
	}
	return Null, fmt.Errorf("value: unknown aggregation function %v", k)
}
