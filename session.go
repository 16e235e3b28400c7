package gcore

import (
	"context"
	"fmt"
	"sync"

	"gcore/internal/core"
	"gcore/internal/parser"
)

// Session is a per-caller view of an engine: a default graph and
// resource-limit overrides that apply to this session's statements
// only, without touching the engine-wide configuration or other
// sessions. The gcored server gives every network client one Session;
// the REPL runs in one; library users create them with NewSession. A
// Session implements Querier, so code written against the interface
// runs unchanged inside a session.
//
// A Session is safe for concurrent use and adds no locking of its
// own beyond its small configuration state: its statements go through
// the engine's read/write path split like any other, so read-only
// statements from many sessions run concurrently, beside at most one
// evaluating write.
type Session struct {
	eng       *Engine
	metricsFn func() Metrics // engine metrics source (durable fills WAL counters)

	mu     sync.Mutex
	def    string
	limits *Limits
}

// NewSession creates a session over the engine with no overrides: the
// engine's default graph and limits apply until the session sets its
// own.
func (e *Engine) NewSession() *Session {
	return &Session{eng: e, metricsFn: e.Metrics}
}

// NewSession creates a session over the durable engine. Mutations the
// session performs are logged like any other (the write-ahead boundary
// hooks the catalog, not the entry points), and its metrics carry the
// WAL counters.
func (d *DurableEngine) NewSession() *Session {
	return &Session{eng: d.Engine, metricsFn: d.Metrics}
}

// SetDefaultGraph sets the graph this session's MATCH uses when ON is
// omitted; "" reverts to the engine-wide default. The name must be a
// registered graph or table (tables are matched as node graphs, §5).
// Other sessions and the engine default are unaffected.
func (s *Session) SetDefaultGraph(name string) error {
	if name != "" {
		s.eng.mu.RLock()
		_, isGraph := s.eng.cat.Graph(name)
		_, isTable := s.eng.cat.Table(name)
		s.eng.mu.RUnlock()
		if !isGraph && !isTable {
			return fmt.Errorf("gcore: unknown graph %q (known graphs: %v)", name, s.eng.GraphNames())
		}
	}
	s.mu.Lock()
	s.def = name
	s.mu.Unlock()
	return nil
}

// DefaultGraph returns this session's default-graph override ("" when
// the engine default applies).
func (s *Session) DefaultGraph() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.def
}

// SetLimits installs per-statement resource limits for this session,
// replacing the engine limits for its statements (a zero field means
// unlimited — the session override is taken whole, not merged).
func (s *Session) SetLimits(l Limits) {
	s.mu.Lock()
	s.limits = &l
	s.mu.Unlock()
}

// ClearLimits removes the session's limits override; the engine
// limits apply again.
func (s *Session) ClearLimits() {
	s.mu.Lock()
	s.limits = nil
	s.mu.Unlock()
}

// Limits returns the session's effective per-statement limits: its
// own override when set, the engine limits otherwise.
func (s *Session) Limits() Limits {
	s.mu.Lock()
	l := s.limits
	s.mu.Unlock()
	if l != nil {
		return *l
	}
	return s.eng.Limits()
}

// opts snapshots the session configuration for one execution; the
// execution is unaffected by concurrent session reconfiguration.
func (s *Session) opts() core.ExecOpts {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := core.ExecOpts{DefaultGraph: s.def}
	if s.limits != nil {
		l := *s.limits
		o.Limits = &l
	}
	return o
}

// EvalContext parses and evaluates one statement under ctx with the
// session's default graph and limits (see Engine.EvalContext).
func (s *Session) EvalContext(ctx context.Context, src string) (*Result, error) {
	return s.eng.evalSrc(ctx, src, nil, s.opts())
}

// EvalParamsContext is EvalContext with $name parameter bindings, the
// one-shot form of Prepare + EvalContext.
func (s *Session) EvalParamsContext(ctx context.Context, src string, params map[string]Value) (*Result, error) {
	return s.eng.evalSrc(ctx, src, params, s.opts())
}

// EvalScriptContext evaluates a semicolon-separated script under the
// session configuration (see Engine.EvalScriptContext).
func (s *Session) EvalScriptContext(ctx context.Context, src string) ([]*Result, error) {
	return s.eng.evalScript(ctx, src, s.opts())
}

// Prepare validates one statement for repeated execution in this
// session. Each execution applies the session's configuration as of
// that execution — changing the session default graph re-targets
// already-prepared statements.
func (s *Session) Prepare(src string) (*Prepared, error) {
	s.eng.mu.RLock()
	err := s.eng.ev.CheckSrc(src, s.opts())
	s.eng.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return &Prepared{
		eng:    s.eng,
		src:    src,
		names:  parser.ParamNames(src),
		optsFn: s.opts,
	}, nil
}

// ExplainContext renders the static plan against the session's
// default graph and limits (see Engine.ExplainContext).
func (s *Session) ExplainContext(ctx context.Context, src string) (string, error) {
	return s.eng.explainSrc(ctx, src, s.opts())
}

// ExplainAnalyzeContext executes the statement under the session
// configuration and renders the annotated plan (see
// Engine.ExplainAnalyzeContext).
func (s *Session) ExplainAnalyzeContext(ctx context.Context, src string) (string, error) {
	return s.ExplainAnalyzeParamsContext(ctx, src, nil)
}

// ExplainAnalyzeParamsContext is ExplainAnalyzeContext with $name
// parameter bindings: the annotated plan of exactly the execution
// EvalParamsContext would run, so it shows what these bindings did —
// which scan took a value index, which conjuncts ran columnar.
func (s *Session) ExplainAnalyzeParamsContext(ctx context.Context, src string, params map[string]Value) (string, error) {
	return s.eng.explainAnalyzeSrc(ctx, src, params, s.opts())
}

// Metrics snapshots the engine-lifetime metrics (sessions do not
// keep per-session metrics; the registry is engine-wide).
func (s *Session) Metrics() Metrics {
	return s.metricsFn()
}
