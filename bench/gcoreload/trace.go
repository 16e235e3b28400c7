package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"gcore"
	"gcore/bench/workload"
	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/csr"
	"gcore/internal/parser"
	"gcore/internal/plancache"
	"gcore/internal/server"
	"gcore/internal/wal"
)

// The traced replay. gcored has no spans of its own yet, so the trace
// is taken from outside: one goroutine replays the workload's request
// sequence and, for every request, times the same work at each layer
// boundary by calling that layer's public entry point itself —
//
//	roundtrip  the real HTTP round trip to the gcored under test
//	loopback   a round trip of the same request and reply sizes to a
//	           do-nothing HTTP server in a process of its own (netProbe)
//	handler    the same request through server.New(...).ServeHTTP in
//	           this process, on a ResponseRecorder
//	eval       the same statement through Session.EvalScriptContext /
//	           Prepared.EvalContext on a second in-process engine
//	encode     Graph.MarshalJSON / Table.MarshalJSON of eval's result
//	normalize, parse, prepare, csr_of, wal_append
//	           direct calls into plancache, parser, core, csr and wal
//
// — plus the operator clocks the engine already keeps (the deltas of
// Engine.Metrics() around eval), which stand in for spans inside the
// statement. The calls run one after another, not inside each other,
// so a span's "children" are the separately measured durations of the
// work it contains; a layer's self time is its span's duration minus
// its children's, floored at zero. Self times so defined add up to the
// round trip by construction; what tests the decomposition is that two
// independently timed pieces, loopback and handler, add up to the real
// round trip (trace.unattributed_ratio), and how much the floor cut off
// (trace.clipped_ratio).

// span is one line of bench/out/trace_<workload>.jsonl.
type span struct {
	TraceID int    `json:"trace_id"` // request sequence number
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"` // since the replay began
	EndNS   int64  `json:"end_ns"`
	// Src is "call" for a duration timed around a call from the driver
	// and "counter" for one read off an engine counter; a counter span
	// is laid at its parent's start, since only its length is known.
	Src string `json:"src"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

// call times fn and records it as a span.
func (t *tracer) call(id int, name, parent, layer string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.spans = append(t.spans, span{id, name, parent, layer, t0.Sub(t.epoch).Nanoseconds(), t1.Sub(t.epoch).Nanoseconds(), "call"})
	return t1.Sub(t0)
}

// counter records a span whose duration came from a counter delta.
func (t *tracer) counter(id int, name, parent, layer string, d time.Duration) {
	if d <= 0 {
		return
	}
	start := int64(0)
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].TraceID == id; i-- {
		if t.spans[i].Span == parent {
			start = t.spans[i].StartNS
			break
		}
	}
	t.spans = append(t.spans, span{id, name, parent, layer, start, start + d.Nanoseconds(), "counter"})
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceLayers are the layers a request's time is split over, in
// caller-to-callee order.
var traceLayers = []string{"net", "server", "engine", "plancache", "parser", "core.compile", "core", "rpq", "csr", "wal", "ppg", "table"}

// coreOps are the statement's operator steps the core layer's time is
// split over.
var coreOps = []string{"scan", "expand", "residual", "join", "path", "construct", "select"}

// traceOut is what the replay measured, all in milliseconds.
type traceOut struct {
	requests  int
	self      map[string][]float64 // layer -> self time per request
	dur       map[string][]float64 // span name -> duration per occurrence
	ops       map[string][]float64 // core operator -> time per request
	traced    []float64            // read round trips during the traced pass
	untraced  []float64            // read round trips of the same requests, untraced pass
	clipped   []float64            // what flooring the self times at zero cut off, per request
	stmtBytes []float64            // statement text bytes per request
	class     []string             // statement class per request
	graphB    int64                // bytes and nanoseconds of every graph encode
	graphNS   int64
	graphs    int // graphs live in the replica after the replay
}

// inProcess is the engine stack rebuilt inside the driver for the
// traced replay: two replicas (one behind the HTTP handler, one called
// directly) so each sees the request sequence exactly once, the way
// the gcored under test does.
type inProcess struct {
	handler  http.Handler
	hconn    *conn // session and handles inside handler
	direct   *replica
	cold     *core.Evaluator // plan cache flushed before every use
	social   *gcore.Graph
	scratch  *wal.Log // same policy as gcored's, for wal_append
	probe    *netProbe
	closeAll func()
}

func newInProcess(cfg runConfig, spec *workload.Spec, dir string) (*inProcess, error) {
	ip := &inProcess{}
	var closers []func()
	ip.closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	ok := false
	defer func() {
		if !ok {
			ip.closeAll()
		}
	}()

	open := func(name string) (backend, error) {
		if !spec.Durable {
			return gcore.NewEngine(), nil
		}
		d, err := gcore.OpenDurable(filepath.Join(dir, name), gcore.WithCheckpointEvery(256))
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { _ = d.Close() })
		return d, nil
	}
	hb, err := open("replica-handler")
	if err != nil {
		return nil, err
	}
	// Only for the graphs and set-up views it registers: the handler
	// makes its own sessions.
	if _, err := newReplica(hb, cfg, spec); err != nil {
		return nil, err
	}
	// The same server configuration cmd/gcored builds from its flag
	// defaults.
	srv := server.New(hb, server.Config{
		MaxTimeout: 30 * time.Second,
		SlowQuery:  time.Second,
		Log:        log.New(io.Discard, "", 0),
	})
	closers = append(closers, srv.Close)
	ip.handler = srv.Handler()
	ip.hconn = &conn{handler: ip.handler}
	if err := ip.hconn.open(spec); err != nil {
		return nil, err
	}

	db, err := open("replica-direct")
	if err != nil {
		return nil, err
	}
	if ip.direct, err = newReplica(db, cfg, spec); err != nil {
		return nil, err
	}
	ip.social, _ = db.Graph(spec.SocialName())

	ip.cold = core.New(catalog.New())
	if ip.probe, err = startNetProbe(); err != nil {
		return nil, err
	}
	closers = append(closers, ip.probe.close)
	if spec.Durable {
		if ip.scratch, err = wal.Open(filepath.Join(dir, "scratch-wal"), wal.Options{Policy: wal.SyncAlways}); err != nil {
			return nil, err
		}
		closers = append(closers, func() { _ = ip.scratch.Close() })
	}
	ok = true
	return ip, nil
}

// replicaWarmup is how many requests of the sequence the in-process
// replicas are run through, untimed, before the traced pass.
const replicaWarmup = 32

// replay runs the untraced pass and then the traced pass over the
// same request sequence, each within its share of budget. writeShare
// is the share of writes the load window measured.
func replay(cfg runConfig, f *fixture, ip *inProcess, tr *tracer, budget time.Duration, writeShare float64) (*traceOut, error) {
	spec := f.spec
	limit := spec.TraceRequests
	if cfg.traceCap > 0 {
		limit = cfg.traceCap
	}
	tc := newConn(cfg.conns, f.srv.base, spec)
	defer tc.close()
	if err := tc.open(spec); err != nil {
		return nil, err
	}
	out := &traceOut{self: map[string][]float64{}, dur: map[string][]float64{}, ops: map[string][]float64{}}

	// Untraced pass: the same client, nothing in between.
	next := spec.TraceStream(cfg.conns, writeShare)
	deadline := time.Now().Add(budget / 4)
	var untracedAll []float64 // 0 for writes, so indexes line up with the traced pass
	for i := 0; i < limit && time.Now().Before(deadline); i++ {
		req := next()
		path, body := tc.encode(req)
		t0 := time.Now()
		status, err := tc.post(path, body)
		d := time.Since(t0)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("untraced replay: %s: status %d, %v", req.Key(), status, err)
		}
		if req.Write {
			d = 0
		}
		untracedAll = append(untracedAll, ms(d))
	}

	// The gcored under test is warm by now; bring the replicas there
	// too (snapshots built, heap grown) before anything is timed.
	next = spec.TraceStream(cfg.conns, writeShare)
	for i := 0; i < replicaWarmup && i < len(untracedAll); i++ {
		req := next()
		path, body := ip.hconn.encode(req)
		if status, err := ip.hconn.post(path, body); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("in-process handler: %s: status %d, %v", req.Key(), status, err)
		}
		if _, err := ip.direct.eval(req); err != nil {
			return nil, fmt.Errorf("in-process eval: %s: %w", req.Key(), err)
		}
	}

	next = spec.TraceStream(cfg.conns, writeShare)
	tr.epoch = time.Now()
	deadline = time.Now().Add(budget - budget/4)
	for id := 0; id < len(untracedAll) && time.Now().Before(deadline); id++ {
		req := next()
		if err := traceOne(id, req, spec, tc, ip, tr, out); err != nil {
			return nil, err
		}
		if !req.Write {
			out.untraced = append(out.untraced, untracedAll[id])
		}
	}
	out.graphs = len(ip.direct.b.GraphNames())
	if out.requests == 0 {
		return nil, fmt.Errorf("traced replay: no request fitted into %s", budget)
	}
	return out, nil
}

func opNS(m gcore.Metrics, names ...string) int64 {
	var ns int64
	for _, n := range names {
		ns += m.Operators[n].ElapsedNS
	}
	return ns
}

// traceOne replays one request at every layer boundary.
func traceOne(id int, req workload.Request, spec *workload.Spec, tc *conn, ip *inProcess, tr *tracer, out *traceOut) error {
	// The real round trip.
	path, body := tc.encode(req)
	var status int
	var err error
	dClient := tr.call(id, "roundtrip", "", "net", func() { status, err = tc.post(path, body) })
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("traced replay: %s: status %d, %v", req.Key(), status, err)
	}

	// What the same bytes cost with no gcored behind them.
	reqBody, replyBytes := tc.reqBuf.Bytes(), tc.respBuf.Len()
	dLoop := tr.call(id, "loopback", "roundtrip", "net", func() { err = ip.probe.roundTrip(reqBody, replyBytes) })
	if err != nil {
		return err
	}

	// The handler, in process.
	hpath, hbody := ip.hconn.encode(req)
	payload, err := json.Marshal(hbody)
	if err != nil {
		return err
	}
	hreq := httptest.NewRequest(http.MethodPost, hpath, bytes.NewReader(payload))
	rec := httptest.NewRecorder()
	dServer := tr.call(id, "handler", "roundtrip", "server", func() { ip.handler.ServeHTTP(rec, hreq) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process handler: %s: status %d: %s", req.Key(), rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}

	// The engine entry point, with the engine's own operator clocks
	// read before and after.
	m0 := ip.direct.b.Metrics()
	var res *gcore.Result
	dEngine := tr.call(id, "eval", "handler", "engine", func() { res, err = ip.direct.eval(req) })
	if err != nil {
		return fmt.Errorf("in-process eval: %s: %w", req.Key(), err)
	}
	m1 := ip.direct.b.Metrics()

	// Result encoding, as the handler does it.
	var dEncode time.Duration
	encLayer := "ppg"
	switch {
	case res.Table != nil:
		encLayer = "table"
		dEncode = tr.call(id, "encode", "handler", "table", func() { _, err = res.Table.MarshalJSON() })
	case res.Graph != nil:
		var data []byte
		dEncode = tr.call(id, "encode", "handler", "ppg", func() { data, err = res.Graph.MarshalJSON() })
		out.graphB += int64(len(data))
		out.graphNS += dEncode.Nanoseconds()
	}
	if err != nil {
		return err
	}

	// Compilation, piece by piece.
	text := req.Query
	if req.Prep >= 0 {
		text = spec.Prepared[req.Prep]
	}
	_, _ = parser.Parse(text) // untimed: parse and prepare below both run warm
	dNorm := tr.call(id, "normalize", "eval", "plancache", func() { _ = plancache.Normalize(text) })
	dParse := tr.call(id, "parse", "eval", "parser", func() { _, err = parser.Parse(text) })
	if err != nil {
		return err
	}
	ip.cold.SetPlanCacheCapacity(0) // drop every entry: the next PrepareExec compiles
	params := bindings(req)
	dPrepare := tr.call(id, "prepare", "eval", "core.compile", func() { _, err = ip.cold.PrepareExec(text, params, core.ExecOpts{}) })
	if err != nil {
		return err
	}
	dCSR := tr.call(id, "csr_of", "statement", "csr", func() { _ = csr.Of(ip.social) })

	// What the statement did, from the engine's operator clocks.
	delta := func(names ...string) time.Duration {
		return time.Duration(opNS(m1, names...) - opNS(m0, names...))
	}
	stmt := delta("statement")
	kernels := delta("shortest", "reach", "all-paths")
	// Pushed-down filters run inside the scan, expand or path step they
	// ride on, so their clock is already in those; only the residual
	// WHERE filter is a step of its own.
	ops := map[string]time.Duration{
		"scan":      delta("scan"),
		"expand":    delta("expand"),
		"residual":  delta("residual"),
		"join":      delta("join", "left-join"),
		"path":      delta("path") - kernels,
		"construct": delta("construct"),
		"select":    delta("select"),
	}
	tr.counter(id, "statement", "eval", "core", stmt)
	var opSum time.Duration
	for _, name := range coreOps {
		if ops[name] < 0 {
			ops[name] = 0
		}
		tr.counter(id, name, "statement", "core", ops[name])
		out.ops[name] = append(out.ops[name], ms(ops[name]))
		opSum += ops[name]
	}
	tr.counter(id, "kernel", "path", "rpq", kernels)

	// The log append a durable write pays: as many records, as many
	// bytes, same fsync policy, into a scratch log.
	var dWAL time.Duration
	if appends := m1.WALAppends - m0.WALAppends; appends > 0 && ip.scratch != nil {
		rec := make([]byte, (m1.WALAppendedBytes-m0.WALAppendedBytes)/appends)
		dWAL = tr.call(id, "wal_append", "statement", "wal", func() {
			for i := int64(0); i < appends && err == nil; i++ {
				_, err = ip.scratch.Append(rec)
			}
		})
		if err != nil {
			return err
		}
	}

	// Self times. eval parses a /query script once before the plan
	// cache is probed, and a cache miss parses again to compile.
	miss := m1.PlanCacheMisses > m0.PlanCacheMisses
	parses := 0
	if req.Prep < 0 {
		parses++
	}
	// The pieces were timed one after another on different replicas, so
	// a difference can come out negative; clipped keeps what the floor
	// cuts off.
	var clipped time.Duration
	floor := func(d time.Duration) time.Duration {
		if d < 0 {
			clipped -= d
			return 0
		}
		return d
	}
	var compile time.Duration
	if miss {
		parses++
		compile = floor(time.Duration(m1.PlanCacheCompileNS-m0.PlanCacheCompileNS) - dParse)
	}
	tr.counter(id, "compile", "eval", "core.compile", compile)
	parseSelf := time.Duration(parses) * dParse
	self := map[string]time.Duration{
		"net":          floor(dClient - dServer),
		"server":       floor(dServer - dEngine - dEncode),
		"engine":       floor(dEngine - stmt - parseSelf - dNorm - compile),
		"plancache":    dNorm,
		"parser":       parseSelf,
		"core.compile": compile,
		"core":         opSum + floor(stmt-opSum-kernels-dWAL-dCSR),
		"rpq":          kernels,
		"csr":          dCSR,
		"wal":          dWAL,
		encLayer:       dEncode,
	}
	for _, layer := range traceLayers {
		out.self[layer] = append(out.self[layer], ms(self[layer]))
	}
	for name, d := range map[string]time.Duration{
		"roundtrip": dClient, "loopback": dLoop, "handler": dServer, "eval": dEngine,
		"normalize": dNorm, "parse": dParse, "prepare": max(0, dPrepare-dParse),
	} {
		out.dur[name] = append(out.dur[name], ms(d))
	}
	out.dur["encode_"+encLayer] = append(out.dur["encode_"+encLayer], ms(dEncode))
	if dWAL > 0 {
		out.dur["wal_append"] = append(out.dur["wal_append"], ms(dWAL))
	}
	out.clipped = append(out.clipped, ms(clipped))
	out.stmtBytes = append(out.stmtBytes, float64(len(text)))
	out.class = append(out.class, req.Class)
	if !req.Write {
		out.traced = append(out.traced, ms(dClient))
	}
	out.requests++
	return nil
}
