package repro

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gcore"
	"gcore/internal/parser"
)

// The paper's correlated query lines: a pattern predicate (L23, L28,
// L32, L72) or an explicit EXISTS (L36) correlated with the rows of
// MATCH. Appendix A defines the correlation set-at-a-time,
// ⟦γ⟧Ω,G = ⟦γ⟧G ⋉ Ω, so their work must grow polynomially with a small
// exponent, not once more per outer row.

// correlatedDeadline bounds each evaluation, so an evaluator that runs
// a subquery once per outer row fails fast instead of running on.
const correlatedDeadline = 5 * time.Second

// evalOnSNB evaluates src on a fresh engine over SNB seed 1 with the
// given number of persons, under correlatedDeadline, and returns the
// result with the engine's metrics.
func evalOnSNB(t *testing.T, src string, persons int) (*gcore.Result, gcore.Metrics) {
	t.Helper()
	eng, _, err := engineAt(persons)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), correlatedDeadline)
	defer cancel()
	res, err := eng.EvalContext(ctx, src)
	if err != nil {
		t.Fatalf("%d persons: %v\n%s", persons, err, src)
	}
	return res, eng.Metrics()
}

// work is a deterministic count of an engine's evaluation work: the
// rows that entered every operator plus the path kernels' frontier pops.
func work(m gcore.Metrics) int64 {
	var w int64
	for _, op := range m.Operators {
		w += op.RowsIn + op.Pops
	}
	return w
}

// slope is the least-squares slope of log y against log x.
func slope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += math.Log(xs[i]) / float64(len(xs))
		my += math.Log(ys[i]) / float64(len(ys))
	}
	var num, den float64
	for i := range xs {
		dx := math.Log(xs[i]) - mx
		num += dx * (math.Log(ys[i]) - my)
		den += dx * dx
	}
	return num / den
}

// TestCorrelatedScaling fits the exponent of work against persons over
// 100 → 200 → 400 persons. L36's outer table is the Cartesian product
// of the persons, so its output alone grows with persons².
func TestCorrelatedScaling(t *testing.T) {
	bounds := []struct {
		line string
		max  float64
	}{{"L23", 1.5}, {"L28", 1.5}, {"L32", 1.5}, {"L72", 1.5}, {"L36", 2.2}}
	persons := []float64{100, 200, 400}
	for _, b := range bounds {
		var works []float64
		for _, p := range persons {
			_, m := evalOnSNB(t, parser.PaperQueries[b.line], int(p))
			works = append(works, float64(work(m)))
		}
		k := slope(persons, works)
		t.Logf("%s: work %v, exponent %.2f", b.line, works, k)
		if k > b.max {
			t.Errorf("%s: work grows with persons^%.2f, want at most persons^%.1f (work %v)", b.line, k, b.max, works)
		}
	}
}

// TestExistsRunsOncePerTable checks that L36's EXISTS body is matched
// once for the whole outer table: its node scans do not grow with the
// outer table's 10 000 → 40 000 rows.
func TestExistsRunsOncePerTable(t *testing.T) {
	_, m100 := evalOnSNB(t, parser.PaperQueries["L36"], 100)
	_, m200 := evalOnSNB(t, parser.PaperQueries["L36"], 200)
	s100, s200 := m100.Operators["scan"].Count, m200.Operators["scan"].Count
	if s100 != s200 {
		t.Fatalf("node scans: %d at 100 persons, %d at 200", s100, s200)
	}
}

// TestPatternPredicateIsMatchConjunct checks the law "a pattern
// predicate ≡ the same pattern as a MATCH conjunct, up to row
// multiplicity" on L28 and L72 at 100 persons.
func TestPatternPredicateIsMatchConjunct(t *testing.T) {
	const predicate = "\nAND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)"
	const conjunct = ",\n(n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)\nWHERE"
	for _, tc := range []struct {
		line string
		size int
	}{{"L28", 37}, {"L72", 57}} {
		src := parser.PaperQueries[tc.line]
		if !strings.Contains(src, predicate) {
			t.Fatalf("%s no longer ends in the predicate", tc.line)
		}
		rewritten := strings.Replace(strings.Replace(src, predicate, "", 1), "\nWHERE", conjunct, 1)
		got, _ := evalOnSNB(t, src, 100)
		want, _ := evalOnSNB(t, rewritten, 100)
		gotSet, wantSet := resultSet(got), resultSet(want)
		if n := resultSize(got); n != tc.size {
			t.Errorf("%s: %d results, want %d", tc.line, n, tc.size)
		}
		if !slices.Equal(gotSet, wantSet) {
			t.Errorf("%s: the predicate gives %d distinct results, the conjunct %d:\n%s", tc.line, len(gotSet), len(wantSet), rewritten)
		}
	}
}

// resultSize is a graph result's node count or a table's row count.
func resultSize(r *gcore.Result) int {
	if r.Graph != nil {
		return r.Graph.NumNodes()
	}
	return r.Table.Len()
}

// resultSet renders a result's nodes or rows, sorted and distinct.
func resultSet(r *gcore.Result) []string {
	var out []string
	if r.Graph != nil {
		for _, id := range r.Graph.NodeIDs() {
			out = append(out, strconv.FormatUint(uint64(id), 10))
		}
	} else {
		for _, row := range r.Table.Rows {
			var sb strings.Builder
			for _, v := range row {
				sb.WriteString(v.String())
				sb.WriteByte('\t')
			}
			out = append(out, sb.String())
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
