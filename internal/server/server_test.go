package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gcore"
	"gcore/internal/ppg"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterGraph(gcore.SampleCompanyGraph()); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestQuerySessionless(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (n) MATCH (n:Person) ON social_graph",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 1 {
		t.Fatalf("results = %d, want 1", len(results))
	}
	graph := results[0].(map[string]any)["graph"].(map[string]any)
	if nodes := graph["nodes"].([]any); len(nodes) == 0 {
		t.Fatal("result graph has no nodes")
	}
}

func TestQueryDefaultGraphOverride(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// company_graph is not the engine default; the request override
	// targets it without ON.
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (c) MATCH (c:Company)",
		"graph": "company_graph",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", resp.StatusCode, out)
	}
	graph := out["results"].([]any)[0].(map[string]any)["graph"].(map[string]any)
	if nodes := graph["nodes"].([]any); len(nodes) != 4 {
		t.Fatalf("company nodes = %d, want 4", len(graph["nodes"].([]any)))
	}
}

func TestQueryUnknownGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (c) MATCH (c)",
		"graph": "no_such_graph",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestQueryEvalError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (n) MATCH (n:Person ON social_graph",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %v", resp.StatusCode, out)
	}
	if out["error"] == "" {
		t.Fatal("missing error message")
	}
}

// TestQueryNonFiniteArithmetic: a projection that overflows to +Inf is
// an evaluation error answered like a division by zero (400), not a
// reply that fails to encode (500).
func TestQueryNonFiniteArithmetic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	divResp, divOut := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "SELECT 1 / 0 AS x MATCH (n) ON social_graph",
	})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "SELECT 1e308 * 10.0 AS x MATCH (n) ON social_graph",
	})
	if divResp.StatusCode != http.StatusBadRequest || resp.StatusCode != divResp.StatusCode || out["kind"] != divOut["kind"] {
		t.Fatalf("status %d %v, want division by zero's %d %v", resp.StatusCode, out, divResp.StatusCode, divOut)
	}
}

// TestBodyTooLarge: a request body past the 1 MiB cap is refused with
// 413 body_too_large on every JSON endpoint, before it is decoded.
func TestBodyTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	body, err := json.Marshal(map[string]any{
		"query":   "CONSTRUCT (n) MATCH (n) ON social_graph" + strings.Repeat(" ", 2<<20),
		"session": "s",
		"handle":  "h",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/query", "/prepare", "/exec"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
		if rec.Code != http.StatusRequestEntityTooLarge || out["kind"] != "body_too_large" {
			t.Errorf("%s: status %d %v, want 413 body_too_large", path, rec.Code, out)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/session", map[string]any{"graph": "company_graph"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create = %d: %v", resp.StatusCode, out)
	}
	sid := out["session"].(string)

	// The session default graph applies to ON-less matches.
	resp, out = postJSON(t, ts.URL+"/query", map[string]any{
		"query":   "CONSTRUCT (c) MATCH (c:Company)",
		"session": sid,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %v", resp.StatusCode, out)
	}
	if got := out["session"]; got != sid {
		t.Fatalf("response session = %v, want %s", got, sid)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+sid, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", dresp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{
		"query":   "CONSTRUCT (c) MATCH (c:Company)",
		"session": sid,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query on closed session = %d, want 404", resp.StatusCode)
	}
}

func TestPrepareExec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, out := postJSON(t, ts.URL+"/session", map[string]any{})
	sid := out["session"].(string)

	resp, out := postJSON(t, ts.URL+"/prepare", map[string]any{
		"session": sid,
		"query":   "SELECT n.firstName MATCH (n:Person) ON social_graph WHERE n.employer = $emp",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare = %d: %v", resp.StatusCode, out)
	}
	handle := out["handle"].(string)
	params := out["params"].([]any)
	if len(params) != 1 || params[0] != "emp" {
		t.Fatalf("params = %v, want [emp]", params)
	}

	resp, out = postJSON(t, ts.URL+"/exec", map[string]any{
		"session": sid,
		"handle":  handle,
		"params":  map[string]any{"emp": "Acme"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec = %d: %v", resp.StatusCode, out)
	}
	table := out["results"].([]any)[0].(map[string]any)["table"].(map[string]any)
	if rows := table["rows"].([]any); len(rows) == 0 {
		t.Fatal("exec returned no rows")
	}

	// Unknown handle and unknown session are 404s.
	resp, _ = postJSON(t, ts.URL+"/exec", map[string]any{"session": sid, "handle": "p999"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown handle = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/exec", map[string]any{"session": "s999", "handle": handle})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", resp.StatusCode)
	}
}

func TestExplainModes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, mode := range []string{"plan", "analyze"} {
		resp, out := postJSON(t, ts.URL+"/query", map[string]any{
			"query":   "CONSTRUCT (n) MATCH (n:Person) ON social_graph",
			"explain": mode,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %s = %d: %v", mode, resp.StatusCode, out)
		}
		plan := out["results"].([]any)[0].(map[string]any)["plan"].(string)
		if !strings.Contains(plan, "MATCH") {
			t.Fatalf("explain %s plan missing MATCH:\n%s", mode, plan)
		}
		if mode == "analyze" && !strings.Contains(plan, "executed:") {
			t.Fatalf("explain analyze missing totals:\n%s", plan)
		}
	}
}

// planOf extracts the single plan string of an explain response.
func planOf(t *testing.T, resp *http.Response, out map[string]any) string {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %v", resp.StatusCode, out)
	}
	return out["results"].([]any)[0].(map[string]any)["plan"].(string)
}

// EXPLAIN ANALYZE over /query executes with the request's bindings,
// like a plain evaluation of the same request.
func TestExplainAnalyzeQueryParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query":   "SELECT n.lastName MATCH (n:Person) ON social_graph WHERE n.firstName = $name",
		"params":  map[string]any{"name": "John"},
		"explain": "analyze",
	})
	plan := planOf(t, resp, out)
	for _, want := range []string{"(n.firstName = $name) [col]", "[seek firstName]", "value index firstName", "executed:"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan misses %q:\n%s", want, plan)
		}
	}
}

// /exec takes the same explain modes as /query. "analyze" shows what
// the given binding did: a string binding seeks the firstName index, an
// integer one cannot (the kinds never compare equal) and scans the
// label partition.
func TestExecExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, out := postJSON(t, ts.URL+"/session", map[string]any{"graph": "social_graph"})
	sid := out["session"].(string)
	_, out = postJSON(t, ts.URL+"/prepare", map[string]any{
		"session": sid,
		"query":   "SELECT n.lastName MATCH (n:Person) WHERE n.firstName = $name",
	})
	handle := out["handle"].(string)
	exec := func(mode string, name any) (*http.Response, map[string]any) {
		return postJSON(t, ts.URL+"/exec", map[string]any{
			"session": sid, "handle": handle, "explain": mode,
			"params": map[string]any{"name": name},
		})
	}

	resp, out := exec("plan", "John")
	if plan := planOf(t, resp, out); !strings.Contains(plan, "[seek firstName]") || strings.Contains(plan, "actual rows") {
		t.Errorf("static plan should mark the seek and carry no measurements:\n%s", plan)
	}
	resp, out = exec("analyze", "John")
	if plan := planOf(t, resp, out); !strings.Contains(plan, "actual rows=1→1") || !strings.Contains(plan, "value index firstName") {
		t.Errorf("string binding should seek one candidate:\n%s", plan)
	}
	resp, out = exec("analyze", 7)
	if plan := planOf(t, resp, out); !strings.Contains(plan, "label index") || strings.Contains(plan, "value index") {
		t.Errorf("integer binding should scan the label partition:\n%s", plan)
	}
	resp, out = exec("verbose", "John")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out["error"].(string), "unknown explain mode") {
		t.Errorf("unknown mode = %d %v, want 400 unknown explain mode", resp.StatusCode, out)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["prop_index_seeks"] != float64(1) || m["prop_index_builds"] != float64(1) {
		t.Errorf("metrics seeks/builds = %v/%v, want 1/1", m["prop_index_seeks"], m["prop_index_builds"])
	}
}

func TestTimeoutMapped(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTimeout: time.Nanosecond})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person) ON social_graph",
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %v", resp.StatusCode, out)
	}
	if kind := out["kind"]; kind != "timeout" {
		t.Fatalf("kind = %v, want timeout", kind)
	}
}

func TestAdmissionLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: gcore.Limits{MaxBindings: 1}})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (n) MATCH (n:Person)-[:knows]->(m:Person) ON social_graph",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %v", resp.StatusCode, out)
	}
	if kind := out["kind"]; kind != "budget" {
		t.Fatalf("kind = %v, want budget", kind)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (n) MATCH (n:Person) ON social_graph",
	}); out["error"] != nil {
		t.Fatalf("query failed: %v", out["error"])
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if q := m["queries"].(float64); q < 1 {
		t.Fatalf("metrics queries = %v, want >= 1", q)
	}
	if rs := m["read_statements"].(float64); rs < 1 {
		t.Fatalf("metrics read_statements = %v, want >= 1", rs)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h["status"] != "ok" {
		t.Fatalf("healthz = %v", h)
	}

	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/vars = %d, want 200", resp.StatusCode)
	}
}

func TestSessionIdleExpiry(t *testing.T) {
	srv, ts := newTestServer(t, Config{SessionIdle: 10 * time.Millisecond})
	_, out := postJSON(t, ts.URL+"/session", map[string]any{})
	sid := out["session"].(string)

	// Expire manually (the janitor's floor tick is 1s — too slow for a
	// unit test).
	time.Sleep(20 * time.Millisecond)
	srv.sessions.expire(time.Now().Add(-10 * time.Millisecond))

	resp, _ := postJSON(t, ts.URL+"/query", map[string]any{
		"query":   "CONSTRUCT (n) MATCH (n:Person) ON social_graph",
		"session": sid,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session = %d, want 404", resp.StatusCode)
	}
}

func TestScriptMutationVisibleAcrossSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"query": "GRAPH VIEW acme_people AS (CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme')",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view = %d: %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/query", map[string]any{
		"query": "CONSTRUCT (n) MATCH (n) ON acme_people",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view query = %d: %v", resp.StatusCode, out)
	}
}

func TestConcurrentQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, out := postJSON(t, ts.URL+"/query", map[string]any{
				"query": "CONSTRUCT (n) MATCH (n:Person) ON social_graph",
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %v", resp.StatusCode, out)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReplyCompact: a query reply is one compact JSON document with
// its Content-Length, and the graph inside is the interchange
// encoding of the evaluated result, byte for byte.
func TestReplyCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const q = "CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) ON social_graph"
	data, _ := json.Marshal(map[string]any{"query": q})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q for a %d-byte body", got, len(body))
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(compact.Bytes(), '\n'), body) {
		t.Fatalf("reply is not compact JSON plus a newline:\n%s", body)
	}
	var doc struct {
		Results []struct {
			Graph json.RawMessage `json:"graph"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Results) != 1 {
		t.Fatalf("reply %s: %v", body, err)
	}
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Graph.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Results[0].Graph, want) {
		t.Fatalf("reply graph:\n%s\nwant:\n%s", doc.Results[0].Graph, want)
	}
}

// TestReplyEncodeError: a result JSON cannot hold — a NaN property put
// there through the Go API, in a graph built by ppg.Assemble, which
// checks nothing (the mutators and CONSTRUCT refuse one) — fails the
// request with a 500 whose body is exactly one JSON error object, not a
// half-written reply.
func TestReplyEncodeError(t *testing.T) {
	eng := gcore.NewEngine()
	odd := ppg.Assemble("odd", []*ppg.Node{{ID: 1, Labels: gcore.NewLabels("N"),
		Props: gcore.NewProperties(map[string]gcore.Value{"x": gcore.Float(math.NaN())})}}, nil, nil)
	if err := eng.RegisterGraph(odd); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"query": "CONSTRUCT (n) MATCH (n:N) ON odd"}`)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	var e errorResponse
	if err := dec.Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("body %q is not an error object: %v", rec.Body.Bytes(), err)
	}
	if dec.More() {
		t.Fatalf("body %q holds more than one JSON value", rec.Body.Bytes())
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Fatalf("body %q has trailing bytes", rec.Body.Bytes())
	}
}

// TestReplyBufferRecycled: the reply after a 1.2 MB one is encoded into
// the recycled buffer and must be byte-identical to the same results
// encoded into a fresh one — nothing of the larger reply survives.
func TestReplyBufferRecycled(t *testing.T) {
	srv := New(gcore.NewEngine(), Config{})
	defer srv.Close()
	const elapsed = 1500 * time.Microsecond
	big := []*gcore.Result{{Plan: strings.Repeat("x", 1_200_000)}}
	small := []*gcore.Result{{Plan: "small"}, nil}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		srv.writeResults(rec, big, elapsed, "")
		if rec.Body.Len() < 1_200_000 {
			t.Fatalf("big reply is %d bytes", rec.Body.Len())
		}
		rec = httptest.NewRecorder()
		srv.writeResults(rec, small, elapsed, "s1")
		want, err := appendResults(nil, small, elapsed)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, `,"session":"s1"}`+"\n"...)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("small reply after a big one:\n%q\nwant:\n%q", rec.Body.Bytes(), want)
		}
	}
}

// countingBackend counts the sessions the server asks its engine for.
type countingBackend struct {
	*gcore.Engine
	sessions int
}

func (b *countingBackend) NewSession() *gcore.Session {
	b.sessions++
	return b.Engine.NewSession()
}

// TestSessionlessRequestsShareSession checks that sessionless requests
// without a graph override run on one session the server built at
// start, with the server's limits installed, while a request naming a
// graph gets a session of its own.
func TestSessionlessRequestsShareSession(t *testing.T) {
	eng := gcore.NewEngine()
	if err := eng.RegisterGraph(gcore.SampleSocialGraph()); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterGraph(gcore.SampleCompanyGraph()); err != nil {
		t.Fatal(err)
	}
	backend := &countingBackend{Engine: eng}
	srv := New(backend, Config{Limits: gcore.Limits{MaxBindings: 1}})
	defer srv.Close()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		return rec
	}
	for i := 0; i < 50; i++ {
		if rec := post(`{"query": "CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'Celine'"}`); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if backend.sessions != 1 {
		t.Fatalf("50 sessionless requests created %d sessions, want 1", backend.sessions)
	}
	if rec := post(`{"query": "CONSTRUCT (n) MATCH (n:Person)"}`); rec.Code == http.StatusOK {
		t.Fatalf("shared session ran without the server's binding budget: %s", rec.Body.Bytes())
	}
	for i := 0; i < 3; i++ {
		if rec := post(`{"query": "CONSTRUCT (c) MATCH (c:Company) WHERE c.name = 'MIT'", "graph": "company_graph"}`); rec.Code != http.StatusOK {
			t.Fatalf("graph request %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
	if backend.sessions != 4 {
		t.Fatalf("3 graph requests after the shared session made %d sessions in all, want 4", backend.sessions)
	}
	if rec := post(`{"query": "CONSTRUCT (n) MATCH (n:Person) WHERE n.firstName = 'Celine'"}`); rec.Code != http.StatusOK {
		t.Fatalf("sessionless request after graph requests: status %d: %s", rec.Code, rec.Body.Bytes())
	}
}
