package gcore

import "context"

// Querier is the canonical evaluation surface of this package,
// implemented by *Engine, *DurableEngine and *Session. Code that only
// runs statements — the REPL, the gcored server, tests — programs
// against it and works identically over an in-memory engine, a
// durable one, or a per-client session with its own default graph and
// limits.
//
// All methods are safe for concurrent use. Read-only statements run
// concurrently under the engine's shared lock against the committed
// catalog version and graph snapshot generations pinned at dispatch;
// mutating statements serialise behind the writer mutex, evaluate
// beside the readers and take the exclusive lock only to publish (see
// ReadOnly for the classification).
type Querier interface {
	// EvalContext parses and evaluates one statement under ctx.
	EvalContext(ctx context.Context, src string) (*Result, error)
	// EvalScriptContext evaluates a semicolon-separated script,
	// returning one result per statement.
	EvalScriptContext(ctx context.Context, src string) ([]*Result, error)
	// Prepare validates one ($name-parameterisable) statement for
	// repeated execution.
	Prepare(src string) (*Prepared, error)
	// ExplainContext renders the static evaluation plan; nothing is
	// evaluated.
	ExplainContext(ctx context.Context, src string) (string, error)
	// ExplainAnalyzeContext executes the statement and renders the
	// plan annotated with observed rows and timings.
	ExplainAnalyzeContext(ctx context.Context, src string) (string, error)
	// Metrics snapshots the engine-lifetime execution metrics.
	Metrics() Metrics
}

var (
	_ Querier = (*Engine)(nil)
	_ Querier = (*DurableEngine)(nil)
	_ Querier = (*Session)(nil)
)
