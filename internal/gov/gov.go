// Package gov implements per-query execution governance: context
// cancellation, resource budgets and panic containment for the G-CORE
// evaluator. The paper's tractability guarantee (§6: every fixed
// query evaluates in polynomial time) still leaves "polynomial" free
// to mean seconds of CPU and unbounded intermediate state on
// SNB-scale data — ALL-path projections, k-shortest sweeps, CONSTRUCT
// grouping. A Governor is created per statement from the caller's
// context and the engine's Limits; every hot loop of the evaluation
// stack (node scans, edge expansion, WHERE filters, the path-search
// kernels, CONSTRUCT grouping, and the worker pool's chunk dispatch)
// calls back into it at a checkpoint, so a
// cancelled or expired context, or an exhausted budget, stops the
// query within one checkpoint interval and surfaces as a typed
// *QueryError instead of unbounded work.
package gov

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"gcore/internal/faultinject"
)

// Kind classifies a QueryError.
type Kind int

const (
	// KindEval is an ordinary evaluation error (type errors, unknown
	// names, semantic violations).
	KindEval Kind = iota
	// KindCanceled: the caller's context was cancelled mid-flight.
	KindCanceled
	// KindTimeout: the statement exceeded its deadline (Limits.Timeout
	// or a deadline already on the caller's context).
	KindTimeout
	// KindBudget: a resource limit (bindings, path frontier, result
	// elements) was exhausted.
	KindBudget
	// KindInternal: a panic was contained during evaluation; the
	// statement failed but the process — and the engine's registered
	// graphs — are intact.
	KindInternal
)

func (k Kind) String() string {
	switch k {
	case KindEval:
		return "eval"
	case KindCanceled:
		return "canceled"
	case KindTimeout:
		return "timeout"
	case KindBudget:
		return "budget"
	case KindInternal:
		return "internal"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// QueryError is the typed error the engine returns for governed
// failures: cancellation, timeout, exhausted budgets and contained
// panics. Callers switch on Kind; errors.Is sees the underlying
// context error through Unwrap.
type QueryError struct {
	Kind Kind
	Msg  string
	// Stmt carries the statement text for contained panics, so a log
	// line identifies the pathological query without a debugger.
	Stmt string
	// Err is the underlying cause (context.Canceled,
	// context.DeadlineExceeded) when one exists.
	Err error
}

func (e *QueryError) Error() string {
	msg := fmt.Sprintf("query error (%s): %s", e.Kind, e.Msg)
	if e.Stmt != "" {
		msg += fmt.Sprintf(" [statement: %s]", e.Stmt)
	}
	return msg
}

func (e *QueryError) Unwrap() error { return e.Err }

// AsQueryError extracts the *QueryError from an error chain.
func AsQueryError(err error) (*QueryError, bool) {
	var qe *QueryError
	if errors.As(err, &qe) {
		return qe, true
	}
	return nil, false
}

// Limits bounds one statement's resource use. The zero value means
// ungoverned (no limits) everywhere.
type Limits struct {
	// MaxBindings bounds intermediate binding-table sizes: a query
	// whose evaluation would materialise more rows fails with a
	// KindBudget error instead of exhausting memory.
	MaxBindings int
	// MaxPathFrontier bounds the total number of product-automaton
	// states a statement's path searches may explore (arrivals pushed
	// across every reachability, k-shortest and ALL-paths sweep).
	MaxPathFrontier int
	// MaxResultElements bounds the number of graph elements (nodes,
	// edges, paths) CONSTRUCT may build in one statement.
	MaxResultElements int
	// Timeout bounds wall-clock evaluation time per statement; the
	// engine derives a deadline context from it, so expiry surfaces
	// as a KindTimeout error at the next checkpoint.
	Timeout time.Duration
}

// Governor carries one statement's context and budget counters. All
// methods are safe for concurrent use by worker goroutines and are
// no-ops on a nil receiver (path kernels constructed outside the
// evaluator — tests, tools — run ungoverned).
type Governor struct {
	ctx      context.Context
	done     <-chan struct{}
	limits   Limits
	frontier atomic.Int64
	results  atomic.Int64
}

// New creates a governor for one statement. ctx must be non-nil
// (callers derive the Timeout deadline before constructing it).
func New(ctx context.Context, limits Limits) *Governor {
	return &Governor{ctx: ctx, done: ctx.Done(), limits: limits}
}

// Context returns the governed context (context.Background on a nil
// governor), for handing to the worker pool.
func (g *Governor) Context() context.Context {
	if g == nil {
		return context.Background()
	}
	return g.ctx
}

// Limits returns the governing limits (zero on a nil governor).
func (g *Governor) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.limits
}

// Checkpoint is the cancellation probe placed in every hot loop:
// first the fault-injection harness (a single atomic load when
// disarmed), then a non-blocking poll of the context. Loops that do
// trivial work per iteration call it on a small stride; everything
// else calls it per iteration.
func (g *Governor) Checkpoint(site string) error {
	if err := faultinject.Check(site); err != nil {
		return err
	}
	if g == nil {
		return nil
	}
	select {
	case <-g.done:
		return g.cancelErr()
	default:
		return nil
	}
}

// cancelErr classifies the context's failure: deadline expiry is a
// timeout, everything else a cancellation.
func (g *Governor) cancelErr() *QueryError {
	cause := g.ctx.Err()
	if errors.Is(cause, context.DeadlineExceeded) {
		msg := "evaluation exceeded its deadline"
		if g.limits.Timeout > 0 {
			msg = fmt.Sprintf("evaluation exceeded the %v statement timeout", g.limits.Timeout)
		}
		return &QueryError{Kind: KindTimeout, Msg: msg, Err: cause}
	}
	return &QueryError{Kind: KindCanceled, Msg: "evaluation canceled by the caller", Err: cause}
}

// CancelError classifies a bare context's failure state for callers
// without a governor (the worker pool when dispatch stops). Returns
// nil if ctx is still live.
func CancelError(ctx context.Context) error {
	cause := ctx.Err()
	if cause == nil {
		return nil
	}
	if errors.Is(cause, context.DeadlineExceeded) {
		return &QueryError{Kind: KindTimeout, Msg: "evaluation exceeded its deadline", Err: cause}
	}
	return &QueryError{Kind: KindCanceled, Msg: "evaluation canceled by the caller", Err: cause}
}

// GrowFrontier charges n product-automaton states against the path
// frontier budget; the error names the limit and the progress made.
func (g *Governor) GrowFrontier(n int) error {
	if g == nil || g.limits.MaxPathFrontier <= 0 {
		return nil
	}
	if total := g.frontier.Add(int64(n)); total > int64(g.limits.MaxPathFrontier) {
		return &QueryError{Kind: KindBudget, Msg: fmt.Sprintf(
			"path search exceeded the frontier limit (limit %d product states, explored %d); narrow the path pattern or raise Limits.MaxPathFrontier",
			g.limits.MaxPathFrontier, total)}
	}
	return nil
}

// AddResults charges n constructed graph elements against the result
// budget.
func (g *Governor) AddResults(n int) error {
	if g == nil || g.limits.MaxResultElements <= 0 {
		return nil
	}
	if total := g.results.Add(int64(n)); total > int64(g.limits.MaxResultElements) {
		return &QueryError{Kind: KindBudget, Msg: fmt.Sprintf(
			"CONSTRUCT exceeded the result limit (limit %d elements, built %d); tighten the match or raise Limits.MaxResultElements",
			g.limits.MaxResultElements, total)}
	}
	return nil
}

// FrontierUsed reports the product-automaton states charged so far.
// The counter is maintained only when MaxPathFrontier is set — the
// unlimited path deliberately skips the atomic so ungoverned kernels
// pay nothing — so observability reports it as "budget consumed", not
// as total frontier activity (kernel spans carry that).
func (g *Governor) FrontierUsed() int64 {
	if g == nil {
		return 0
	}
	return g.frontier.Load()
}

// ResultsUsed reports the constructed elements charged so far, under
// the same limit-gated caveat as FrontierUsed.
func (g *Governor) ResultsUsed() int64 {
	if g == nil {
		return 0
	}
	return g.results.Load()
}

// BindingsError is the KindBudget error for an overflowing binding
// table: rows is the size the table reached when the budget tripped.
func (g *Governor) BindingsError(rows int) *QueryError {
	limit := 0
	if g != nil {
		limit = g.limits.MaxBindings
	}
	return &QueryError{Kind: KindBudget, Msg: fmt.Sprintf(
		"evaluation exceeded the binding limit (limit %d rows, reached %d); narrow the patterns or raise Limits.MaxBindings",
		limit, rows)}
}

// PanicError converts a recovered panic value into the KindInternal
// error surfaced to the caller: the panic value, the statement text
// (when known at the recovery point) and the stack of the panicking
// goroutine.
func PanicError(recovered any, stmt string) *QueryError {
	return &QueryError{
		Kind: KindInternal,
		Msg:  fmt.Sprintf("panic during evaluation: %v\n%s", recovered, debug.Stack()),
		Stmt: stmt,
	}
}
