package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"gcore/bench/workload"
)

// conn is one closed-loop connection: its own TCP connection, its own
// session and prepared handles, its own request stream. It sends its
// next request only when the previous reply has been read to the end.
type conn struct {
	base    string
	client  *http.Client
	stream  *workload.Stream
	session string
	handles []string
	// handler, when set, takes the place of the network: requests are
	// served in process (the traced replay's server layer).
	handler http.Handler

	reqBuf  bytes.Buffer
	respBuf bytes.Buffer
}

func newConn(idx int, base string, spec *workload.Spec) *conn {
	return &conn{base: base, client: newClient(), stream: spec.Stream(idx)}
}

// newClient returns an HTTP client that keeps one TCP connection of
// its own.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// wire is the JSON body of /query, /prepare and /exec requests.
type wire struct {
	Query   string         `json:"query,omitempty"`
	Session string         `json:"session,omitempty"`
	Handle  string         `json:"handle,omitempty"`
	Params  map[string]any `json:"params,omitempty"`
}

// encode resolves a symbolic request to its endpoint and body.
func (c *conn) encode(r workload.Request) (path string, body wire) {
	if r.Prep >= 0 {
		body = wire{Session: c.session, Handle: c.handles[r.Prep], Params: make(map[string]any, len(r.Params))}
		for _, p := range r.Params {
			if p.IsInt {
				body.Params[p.Name] = p.Int
			} else {
				body.Params[p.Name] = p.Str
			}
		}
		return "/exec", body
	}
	body = wire{Query: r.Query}
	if r.InSession {
		body.Session = c.session
	}
	return "/query", body
}

// post sends one request and reads the whole reply into c.respBuf,
// which the next post overwrites.
func (c *conn) post(path string, body any) (status int, err error) {
	c.reqBuf.Reset()
	if err := json.NewEncoder(&c.reqBuf).Encode(body); err != nil {
		return 0, err
	}
	if c.handler != nil {
		rec := httptest.NewRecorder()
		c.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(c.reqBuf.Bytes())))
		c.respBuf = *rec.Body
		return rec.Code, nil
	}
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewReader(c.reqBuf.Bytes()))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.respBuf.Reset()
	if _, err := io.Copy(&c.respBuf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// open creates the connection's session and prepares the workload's
// statements in it (sessionless workloads prepare nothing and need no
// session).
func (c *conn) open(spec *workload.Spec) error {
	if len(spec.Prepared) == 0 && len(spec.Setup) == 0 {
		return nil
	}
	var sess struct {
		Session string `json:"session"`
	}
	if err := c.call("/session", struct{}{}, &sess); err != nil {
		return err
	}
	c.session = sess.Session
	for _, stmt := range spec.Prepared {
		var prep struct {
			Handle string `json:"handle"`
		}
		if err := c.call("/prepare", wire{Session: c.session, Query: stmt}, &prep); err != nil {
			return err
		}
		c.handles = append(c.handles, prep.Handle)
	}
	return nil
}

// call is post for set-up requests: non-200 is an error and the reply
// is decoded into out.
func (c *conn) call(path string, body, out any) error {
	status, err := c.post(path, body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(c.respBuf.Bytes()))
	}
	return json.Unmarshal(c.respBuf.Bytes(), out)
}

// cardinality sizes a reply straight off its bytes, so checking every
// timed reply costs the driver a memchr, not a JSON parse. A graph's
// size is its element count, the "id" keys of nodes, edges and paths.
// A table's is its count of '[': one per row plus one per cell (cells
// are value sets), which no two tables of different row counts and
// the same columns share.
func cardinality(reply []byte) int {
	if bytes.Contains(reply, []byte(`"table":`)) {
		return bytes.Count(reply, []byte("["))
	}
	return bytes.Count(reply, []byte(`"id":`))
}

// sample is one request as the driver saw it.
type sample struct {
	latency time.Duration
	key     string // workload.Request.Key; loadResult.reqs has the request
	card    int32
	req     int32 // request body bytes
	resp    int32 // reply body bytes
	write   bool
	ok      bool // 2xx and fully read
}

// loadResult is what one load window produced.
type loadResult struct {
	window  time.Duration
	samples []sample
	reqs    map[string]workload.Request // distinct requests by sample.key
	// sessionless counts requests that made gcored build a throwaway
	// session (every /query sent without a session id).
	sessionless int
}

// runLoad drives every connection in a closed loop and returns the
// samples. With window > 0 it runs for that long and keeps the
// requests that completed inside it; with window == 0 it is the
// warm-up pass and connection i sends exactly counts[i] requests.
// first, when non-nil, receives a copy of the first reply to each
// distinct request.
func runLoad(conns []*conn, window time.Duration, counts []int, first map[string][]byte) loadResult {
	type connOut struct {
		samples     []sample
		reqs        map[string]workload.Request
		sessionless int
	}
	outs := make([]connOut, len(conns))
	var firstMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			out := &outs[i]
			out.reqs = map[string]workload.Request{}
			for n := 0; window > 0 || n < counts[i]; n++ {
				r := c.stream.Next()
				path, body := c.encode(r)
				t0 := time.Now()
				status, err := c.post(path, body)
				t1 := time.Now()
				if window > 0 && t1.Sub(start) >= window {
					return // completed after the window closed: not counted
				}
				k := r.Key()
				out.reqs[k] = r
				reply := c.respBuf.Bytes()
				s := sample{
					latency: t1.Sub(t0),
					key:     k,
					req:     int32(c.reqBuf.Len()),
					resp:    int32(len(reply)),
					write:   r.Write,
					ok:      err == nil && status >= 200 && status < 300,
				}
				if s.ok {
					s.card = int32(cardinality(reply))
					if first != nil {
						firstMu.Lock()
						if _, have := first[k]; !have {
							first[k] = append([]byte(nil), reply...)
						}
						firstMu.Unlock()
					}
				}
				if r.Prep < 0 && !r.InSession {
					out.sessionless++
				}
				out.samples = append(out.samples, s)
			}
		}(i, c)
	}
	wg.Wait()

	res := loadResult{window: window, reqs: map[string]workload.Request{}}
	for _, out := range outs {
		res.samples = append(res.samples, out.samples...)
		for k, r := range out.reqs {
			res.reqs[k] = r
		}
		res.sessionless += out.sessionless
	}
	return res
}

// percentile returns the p-quantile (0..1) of sorted ds by the
// nearest-rank rule, 0 when empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowStats are the figures of one load window.
type windowStats struct {
	qps      float64 // ok requests per second
	readP50  float64 // ms
	readP95  float64 // ms
	writeP50 float64 // ms, 0 without writes
	reads    int     // ok reads in the window
	writes   int     // ok writes in the window
}

// ok is the number of 2xx requests in the window.
func (st windowStats) ok() int { return st.reads + st.writes }

func (lr loadResult) stats() windowStats {
	var reads, writes []time.Duration
	for _, s := range lr.samples {
		switch {
		case !s.ok:
		case s.write:
			writes = append(writes, s.latency)
		default:
			reads = append(reads, s.latency)
		}
	}
	sortDurations(reads)
	sortDurations(writes)
	return windowStats{
		qps:      float64(len(reads)+len(writes)) / lr.window.Seconds(),
		readP50:  ms(percentile(reads, 0.50)),
		readP95:  ms(percentile(reads, 0.95)),
		writeP50: ms(percentile(writes, 0.50)),
		reads:    len(reads),
		writes:   len(writes),
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
