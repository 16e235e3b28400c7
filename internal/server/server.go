// Package server is the HTTP/JSON front door of a G-CORE engine: the
// request handling behind cmd/gcored. It exposes query evaluation
// (POST /query), prepared statements (POST /prepare, POST /exec),
// session management (POST /session, DELETE /session/{id}), health
// and metrics (GET /healthz, GET /metrics) and the process expvar
// page (GET /debug/vars).
//
// Every network client maps to a gcore.Session, so per-client state —
// default graph, prepared-statement handles, limits — lives in the
// engine's session abstraction, identical to what library users get.
// Read-only statements from concurrent requests execute concurrently
// under the engine's shared read lock; mutating statements serialise.
//
// Admission control is layered: the server-level Limits apply to
// every session it creates, and a per-request timeout_ms may tighten
// (never exceed) the server's MaxTimeout cap. Request contexts are
// wired straight into evaluation governance, so a disconnected client
// or an expired deadline aborts the statement at its next checkpoint.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gcore"
	"gcore/internal/freelist"
	"gcore/internal/value"
)

// Backend is the engine surface the server needs: session creation
// and the metrics snapshot. *gcore.Engine and *gcore.DurableEngine
// both satisfy it.
type Backend interface {
	NewSession() *gcore.Session
	Metrics() gcore.Metrics
}

// Config tunes one Server; the zero value serves with no limits, a
// 5-minute session idle expiry and no slow-query log.
type Config struct {
	// Limits is the admission-control ceiling installed on every
	// session the server creates (zero fields = unlimited).
	Limits gcore.Limits
	// MaxTimeout caps the per-request timeout_ms override; requests
	// asking for more (or, when set, requests not asking at all) run
	// under this deadline. Zero leaves request timeouts uncapped.
	MaxTimeout time.Duration
	// SessionIdle expires sessions untouched for this long (their
	// prepared handles die with them). Zero means 5 minutes; negative
	// disables expiry.
	SessionIdle time.Duration
	// SlowQuery logs statements slower than this threshold ("slow
	// query" lines on Log). Zero disables the log.
	SlowQuery time.Duration
	// Log receives server lifecycle and slow-query lines; nil uses
	// the process default logger.
	Log *log.Logger
}

// Server handles the HTTP API over one backend. Create with New,
// mount via Handler (or serve with ListenAndServe from cmd/gcored),
// stop with Shutdown.
type Server struct {
	backend  Backend
	cfg      Config
	log      *log.Logger
	mux      *http.ServeMux
	sessions *registry
	// shared runs every sessionless request that does not override the
	// graph: such a request changes no session state, so one session
	// serves them all.
	shared *gcore.Session

	// base is the server lifetime: it parents every request context,
	// so cancelling it (Shutdown's drain deadline) aborts in-flight
	// queries at their next governance checkpoint.
	base      context.Context
	cancelAll context.CancelFunc
}

// New creates a Server over backend.
func New(backend Backend, cfg Config) *Server {
	if cfg.SessionIdle == 0 {
		cfg.SessionIdle = 5 * time.Minute
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		backend:   backend,
		cfg:       cfg,
		log:       logger,
		sessions:  newRegistry(cfg.SessionIdle),
		base:      base,
		cancelAll: cancel,
	}
	s.shared = s.newSession()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("POST /exec", s.handleExec)
	mux.HandleFunc("POST /session", s.handleSessionNew)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux = mux
	return s
}

// Handler returns the root handler (for httptest and custom servers).
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP dispatches one request with the server-lifetime context
// spliced under the request's own, so both client disconnects and
// server shutdown cancel evaluation.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := mergeCancel(r.Context(), s.base)
	defer cancel()
	s.mux.ServeHTTP(w, r.WithContext(ctx))
}

// Close cancels every in-flight query and stops the session janitor.
// Shutdown drains first; Close is the hard stop.
func (s *Server) Close() {
	s.cancelAll()
	s.sessions.stop()
}

// mergeCancel derives a context from primary that is additionally
// cancelled when secondary ends.
func mergeCancel(primary, secondary context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(primary)
	stop := context.AfterFunc(secondary, cancel)
	return ctx, func() { stop(); cancel() }
}

// The request and response shapes. Every error response is
// {"error": "...", "kind": "..."} with the HTTP status mapped from
// the governance error kind.

type queryRequest struct {
	// Query is the statement — or semicolon-separated script — to
	// evaluate.
	Query string `json:"query"`
	// Session targets an existing session (optional; a sessionless
	// request runs in the server's shared session, or in a throwaway
	// one when it overrides the graph).
	Session string `json:"session,omitempty"`
	// Graph overrides the default graph: for this request when
	// sessionless, persistently for the session otherwise.
	Graph string `json:"graph,omitempty"`
	// Params binds $name parameters (single-statement requests only).
	Params map[string]gcore.Value `json:"params,omitempty"`
	// TimeoutMS bounds this request's evaluation wall-clock time,
	// capped by the server's MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Explain selects plan output: "plan" renders the static plan,
	// "analyze" executes and annotates it.
	Explain string `json:"explain,omitempty"`
}

type sessionRequest struct {
	Graph     string `json:"graph,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

type sessionResponse struct {
	Session string `json:"session"`
	Graph   string `json:"graph,omitempty"`
}

type prepareRequest struct {
	Session string `json:"session"`
	Query   string `json:"query"`
}

type prepareResponse struct {
	Handle  string   `json:"handle"`
	Params  []string `json:"params"`
	Session string   `json:"session"`
}

type execRequest struct {
	Session   string                 `json:"session"`
	Handle    string                 `json:"handle"`
	Params    map[string]gcore.Value `json:"params,omitempty"`
	TimeoutMS int64                  `json:"timeout_ms,omitempty"`
	// Explain selects plan output as on /query: "plan" renders the
	// prepared statement's static plan, "analyze" executes it with
	// Params and annotates the plan with what that execution did.
	Explain string `json:"explain,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// newSession builds a fresh session with the server's admission
// limits installed.
func (s *Server) newSession() *gcore.Session {
	sess := s.backend.NewSession()
	if s.cfg.Limits != (gcore.Limits{}) {
		sess.SetLimits(s.cfg.Limits)
	}
	return sess
}

// requestTimeout resolves the effective deadline of one request:
// the requested timeout capped by MaxTimeout; with no request
// timeout, MaxTimeout itself (zero = none).
func (s *Server) requestTimeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	if d < 0 {
		d = 0
	}
	return d
}

func (s *Server) withTimeout(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	if d := s.requestTimeout(ms); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "empty query", "")
		return
	}
	var sess *gcore.Session
	var sid string
	if req.Session != "" {
		live := s.sessions.get(req.Session)
		if live == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session), "")
			return
		}
		sess, sid = live.sess, req.Session
	} else if req.Graph != "" {
		sess = s.newSession()
	} else {
		sess = s.shared
	}
	if req.Graph != "" {
		if err := sess.SetDefaultGraph(req.Graph); err != nil {
			writeError(w, http.StatusNotFound, err.Error(), "")
			return
		}
	}
	ctx, cancel := s.withTimeout(r.Context(), req.TimeoutMS)
	defer cancel()

	start := time.Now()
	var results []*gcore.Result
	var err error
	switch req.Explain {
	case "":
		if len(req.Params) > 0 {
			var res *gcore.Result
			res, err = sess.EvalParamsContext(ctx, req.Query, req.Params)
			if res != nil {
				results = []*gcore.Result{res}
			}
		} else {
			results, err = sess.EvalScriptContext(ctx, req.Query)
		}
	case "plan":
		var plan string
		plan, err = sess.ExplainContext(ctx, req.Query)
		if err == nil {
			results = []*gcore.Result{{Plan: plan}}
		}
	case "analyze":
		var plan string
		plan, err = sess.ExplainAnalyzeParamsContext(ctx, req.Query, req.Params)
		if err == nil {
			results = []*gcore.Result{{Plan: plan}}
		}
	default:
		writeUnknownExplain(w, req.Explain)
		return
	}
	elapsed := time.Since(start)
	s.logSlow(req.Query, sid, elapsed)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	s.writeResults(w, results, elapsed, sid)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req prepareRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "empty query", "")
		return
	}
	live := s.sessions.get(req.Session)
	if live == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session), "")
		return
	}
	p, err := live.sess.Prepare(req.Query)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	handle := live.addPrepared(p)
	writeJSON(w, http.StatusOK, prepareResponse{Handle: handle, Params: p.Params(), Session: req.Session})
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	var req execRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	live := s.sessions.get(req.Session)
	if live == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session), "")
		return
	}
	p := live.getPrepared(req.Handle)
	if p == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown prepared handle %q", req.Handle), "")
		return
	}
	ctx, cancel := s.withTimeout(r.Context(), req.TimeoutMS)
	defer cancel()
	start := time.Now()
	var res *gcore.Result
	var err error
	switch req.Explain {
	case "":
		res, err = p.EvalContext(ctx, req.Params)
	case "plan":
		var plan string
		if plan, err = live.sess.ExplainContext(ctx, p.Text()); err == nil {
			res = &gcore.Result{Plan: plan}
		}
	case "analyze":
		var plan string
		if plan, err = p.ExplainAnalyzeContext(ctx, req.Params); err == nil {
			res = &gcore.Result{Plan: plan}
		}
	default:
		writeUnknownExplain(w, req.Explain)
		return
	}
	elapsed := time.Since(start)
	s.logSlow(p.Text(), req.Session, elapsed)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	s.writeResults(w, []*gcore.Result{res}, elapsed, req.Session)
}

func (s *Server) handleSessionNew(w http.ResponseWriter, r *http.Request) {
	var req sessionRequest
	if r.ContentLength != 0 && !decodeJSON(w, r, &req) {
		return
	}
	sess := s.newSession()
	if req.Graph != "" {
		if err := sess.SetDefaultGraph(req.Graph); err != nil {
			writeError(w, http.StatusNotFound, err.Error(), "")
			return
		}
	}
	if req.TimeoutMS > 0 {
		l := sess.Limits()
		if d := s.requestTimeout(req.TimeoutMS); d > 0 {
			l.Timeout = d
			sess.SetLimits(l)
		}
	}
	id := s.sessions.add(sess)
	writeJSON(w, http.StatusOK, sessionResponse{Session: id, Graph: req.Graph})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id), "")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": s.sessions.count(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.backend.Metrics())
}

// writeResults encodes evaluation results as {"results": [...],
// "elapsed_ms": …, "session": …}, each result {"graph": …},
// {"table": …} or {"plan": "…"} ({} for a statement without one) —
// graphs and tables in their interchange JSON — into one compact
// buffer, and sends it in one Write with its Content-Length. A result
// JSON cannot hold (a NaN or infinite float) fails the whole reply as a
// 500 before any byte of it is written. The buffer comes from
// replyFree and goes back once the Write has returned.
func (s *Server) writeResults(w http.ResponseWriter, results []*gcore.Result, elapsed time.Duration, sid string) {
	buf := replyFree.Get()
	defer replyFree.Put(buf)
	body, err := appendResults((*buf)[:0], results, elapsed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	if sid != "" {
		body = value.AppendJSONString(append(body, `,"session":`...), sid)
	}
	body = append(body, "}\n"...)
	writeBody(w, http.StatusOK, body)
	if cap(body) <= maxKeptReply {
		*buf = body
	}
}

// replyFree recycles reply buffers: a stored-path reply grows its
// buffer to a megabyte or more, which would otherwise be reallocated,
// doubling from empty, on every request. A buffer past maxKeptReply
// is dropped instead, so one huge reply does not pin its memory for
// the life of the process.
var replyFree freelist.List[[]byte]

const maxKeptReply = 16 << 20

func appendResults(dst []byte, results []*gcore.Result, elapsed time.Duration) ([]byte, error) {
	dst = append(dst, `{"results":[`...)
	var err error
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		switch {
		case res == nil:
			dst = append(dst, "{}"...)
		case res.Plan != "":
			dst = append(value.AppendJSONString(append(dst, `{"plan":`...), res.Plan), '}')
		case res.Table != nil:
			if dst, err = res.Table.AppendJSON(append(dst, `{"table":`...)); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		case res.Graph != nil:
			if dst, err = res.Graph.AppendJSON(append(dst, `{"graph":`...)); err != nil {
				return nil, err
			}
			dst = append(dst, '}')
		default:
			dst = append(dst, "{}"...)
		}
	}
	dst = append(dst, `],"elapsed_ms":`...)
	return value.AppendJSONFloat(dst, float64(elapsed.Microseconds())/1e3)
}

func (s *Server) logSlow(query, sid string, elapsed time.Duration) {
	if s.cfg.SlowQuery <= 0 || elapsed < s.cfg.SlowQuery {
		return
	}
	if len(query) > 200 {
		query = query[:200] + "…"
	}
	if sid == "" {
		sid = "-"
	}
	s.log.Printf("slow query (%s, session %s): %s", elapsed.Round(time.Millisecond), sid, query)
}

// maxBodyBytes caps a request body. A request is one statement text
// plus its parameters, so 1 MiB is far above any legitimate body.
const maxBodyBytes = 1 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), "body_too_large")
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err), "")
		return false
	}
	return true
}

// writeJSON sends body as one compact JSON line.
func writeJSON(w http.ResponseWriter, status int, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		status, data = http.StatusInternalServerError, []byte(`{"error":"encoding the reply failed"}`)
	}
	writeBody(w, status, append(data, '\n'))
}

// writeBody sends a complete JSON reply in one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client left; nothing to report to
}

func writeError(w http.ResponseWriter, status int, msg, kind string) {
	writeJSON(w, status, errorResponse{Error: msg, Kind: kind})
}

func writeUnknownExplain(w http.ResponseWriter, mode string) {
	writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown explain mode %q (want \"plan\" or \"analyze\")", mode), "")
}

// writeQueryError maps a governed evaluation failure onto an HTTP
// status: user mistakes are 400s, exhausted budgets 422, deadlines
// 504, cancellation 499 (client gone or server draining), contained
// panics 500.
func writeQueryError(w http.ResponseWriter, err error) {
	status, kind := http.StatusBadRequest, ""
	if qe, ok := gcore.AsQueryError(err); ok {
		kind = qe.Kind.String()
		switch qe.Kind {
		case gcore.KindTimeout:
			status = http.StatusGatewayTimeout
		case gcore.KindCanceled:
			status = 499 // client closed request / server draining
		case gcore.KindBudget:
			status = http.StatusUnprocessableEntity
		case gcore.KindInternal:
			status = http.StatusInternalServerError
		}
	} else if errors.Is(err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	} else if errors.Is(err, context.Canceled) {
		status = 499
	}
	writeError(w, status, err.Error(), kind)
}
