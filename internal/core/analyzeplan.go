package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gcore/internal/ast"
	"gcore/internal/obs"
)

// EXPLAIN ANALYZE: run the statement through the ordinary governed
// evaluation path with a verbose collector attached, then re-render
// the static plan with each plan line annotated by the span the
// evaluator recorded for that operator.
//
// Matching is FIFO per (operator, label) over the top-level spans
// (Depth 0): chain steps match by their exact step label (the printer
// and the evaluator share the label constructors), operators with one
// plan line per occurrence (join order, residual filter, OPTIONAL
// left-join, SELECT, CONSTRUCT) match by operator alone. A plan line
// whose operator ran under a different plan — chains over graphs only
// materialised at run time may re-plan — simply prints without an
// annotation; nothing is guessed.

// ExplainAnalyze runs stmt and renders its plan annotated with actual
// rows, timings, and cache/budget totals. Like the EXPLAIN ANALYZE of
// SQL engines the statement really executes: GRAPH VIEW definitions
// it contains are committed on success.
func (ev *Evaluator) ExplainAnalyze(stmt *ast.Statement) (string, error) {
	return ev.ExplainAnalyzeContext(context.Background(), stmt)
}

// ExplainAnalyzeContext is ExplainAnalyze under the caller's context:
// the execution leg runs through the exact cancellation/budget/panic
// containment path of EvalStatementContext.
func (ev *Evaluator) ExplainAnalyzeContext(ctx context.Context, stmt *ast.Statement) (string, error) {
	return ev.ExplainAnalyzeExec(ctx, Exec{stmt: stmt})
}

// ExplainAnalyzeExec is the execution leg shared by the AST-level and
// source-level (plan-cached) EXPLAIN ANALYZE entry points. The
// collector is fresh per call, so concurrent EXPLAIN ANALYZE runs
// never share span state.
func (ev *Evaluator) ExplainAnalyzeExec(ctx context.Context, ex Exec) (string, error) {
	col := obs.NewCollector()
	col.SetHandler(ev.trace)
	if _, err := ev.evalGoverned(ctx, col, ex); err != nil {
		return "", err
	}
	var sb strings.Builder
	explainStatement(ev, ex.opts.DefaultGraph, &sb, ex.stmt, "", newPlanAnnotator(col.SpansSince(obs.Mark{})))
	writeAnalyzeFooter(&sb, col.Stats())
	return sb.String(), nil
}

// planAnnotator matches recorded spans to plan lines.
type planAnnotator struct {
	spans []obs.Span
	used  []bool
}

func newPlanAnnotator(spans []obs.Span) *planAnnotator {
	top := spans[:0]
	for _, sp := range spans {
		if sp.Depth == 0 {
			top = append(top, sp)
		}
	}
	return &planAnnotator{spans: top, used: make([]bool, len(top))}
}

// take claims the first unused span of the given operator; a
// non-empty label additionally requires an exact label match.
func (a *planAnnotator) take(op obs.Op, label string) (obs.Span, bool) {
	if a == nil {
		return obs.Span{}, false
	}
	for i := range a.spans {
		if a.used[i] || a.spans[i].Op != op {
			continue
		}
		if label != "" && a.spans[i].Label != label {
			continue
		}
		a.used[i] = true
		return a.spans[i], true
	}
	return obs.Span{}, false
}

// suffix renders the annotation for one plan line, or "" when no span
// matches (static EXPLAIN, or a re-planned chain).
func (a *planAnnotator) suffix(op obs.Op, label string) string {
	sp, ok := a.take(op, label)
	if !ok {
		return ""
	}
	return fmt.Sprintf("  [actual rows=%d→%d, time=%s]", sp.RowsIn, sp.RowsOut, fmtElapsed(sp.Elapsed))
}

// scanSuffix is suffix for node scans: the input side is the number of
// candidate ordinals examined, followed by where the evaluator actually
// took them from: every node, a label partition, or a value index.
func (a *planAnnotator) scanSuffix(label string) string {
	sp, ok := a.take(obs.OpScan, label)
	if !ok {
		return ""
	}
	how := "full scan"
	switch {
	case sp.Seek != "":
		how = "value index " + sp.Seek
	case sp.Indexed:
		how = "label index"
	}
	return fmt.Sprintf("  [actual rows=%d→%d, time=%s, %s]", sp.RowsIn, sp.RowsOut, fmtElapsed(sp.Elapsed), how)
}

// writeAnalyzeFooter appends the statement-wide totals: wall time and
// result size, path-kernel frontier work, cache effectiveness, and
// consumed budget (when limits were set — the governor only meters
// what it bounds).
func writeAnalyzeFooter(sb *strings.Builder, st obs.Stats) {
	total := st.Op(obs.OpStatement)
	fmt.Fprintf(sb, "executed: total time %s, result rows %d\n", fmtElapsed(total.Elapsed), total.RowsOut)
	kernels := []struct {
		name string
		op   obs.Op
	}{
		{"k-shortest", obs.OpShortest},
		{"reachability", obs.OpReach},
		{"ALL-paths", obs.OpAllPaths},
	}
	var parts []string
	for _, k := range kernels {
		os := st.Op(k.op)
		if os.Count == 0 {
			continue
		}
		part := fmt.Sprintf("%s ×%d (pops %d, arrivals %d, time %s", k.name, os.Count, os.Pops, os.Arrivals, fmtElapsed(os.Elapsed))
		if k.op == obs.OpShortest {
			// Kept walks stay implicit until a query dereferences them.
			part += fmt.Sprintf(", walks %d built of %d", st.WalksBuilt, st.WalksFound)
		}
		parts = append(parts, part+")")
	}
	if len(parts) > 0 {
		fmt.Fprintf(sb, "path kernels: %s\n", strings.Join(parts, "; "))
	}
	if st.NFAHits+st.NFAMisses+st.CSRReuses+st.CSRBuilds > 0 {
		fmt.Fprintf(sb, "caches: NFA %d hit/%d compiled, CSR %d reused/%d built\n",
			st.NFAHits, st.NFAMisses, st.CSRReuses, st.CSRBuilds)
	}
	if st.SnapshotFullBuilds+st.SnapshotDeltaApplies+st.SnapshotFallbacks > 0 {
		fmt.Fprintf(sb, "snapshots: %d full, %d delta-applied (%d ops, %s shared/%s copied), %d fallback\n",
			st.SnapshotFullBuilds, st.SnapshotDeltaApplies, st.SnapshotDeltaOps,
			fmtBytes(st.SnapshotBytesShared), fmtBytes(st.SnapshotBytesCopied), st.SnapshotFallbacks)
	}
	if st.PropColHits+st.PropColFallbacks > 0 {
		fmt.Fprintf(sb, "prop columns: %d predicate rows columnar, %d interpreted\n",
			st.PropColHits, st.PropColFallbacks)
	}
	if st.FrontierUsed > 0 || st.ResultsUsed > 0 {
		fmt.Fprintf(sb, "budget: frontier %d, result elements %d\n", st.FrontierUsed, st.ResultsUsed)
	}
	if st.PlanCacheHits+st.PlanCacheMisses > 0 {
		if st.PlanCacheHits > 0 {
			fmt.Fprintf(sb, "plan cache: hit (compile %s saved)\n", fmtElapsed(st.PlanCacheCompile))
		} else {
			fmt.Fprintf(sb, "plan cache: miss (compile %s)\n", fmtElapsed(st.PlanCacheCompile))
		}
	}
}

// fmtBytes renders a byte count with a binary-unit suffix for the
// snapshots footer line.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// fmtElapsed rounds a duration for plan annotations: enough digits to
// compare operators, not enough to drown the plan.
func fmtElapsed(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}
