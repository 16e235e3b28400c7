package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gcore/bench/workload"
)

// runConfig fixes one run. The zero values of persons, conns and
// setups are filled by withDefaults with the settings every reported
// number uses; only the self-test shrinks them.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	persons  int // dataset scale: snb_<persons>
	conns    int // closed-loop connections
	setups   int // set-up repetitions behind setup_s
	traceCap int // traced-replay request bound; 0 = the workload's own

	root   string // the repository root, where BENCHMARK.json is
	outDir string // run artefacts: datasets, data dirs, traces, results
	bin    string // the gcored binary under test
}

// maxConns caps the connection count: the reference box has two cores
// and the driver shares them with gcored, so more connections would
// measure scheduler queueing, not the server.
const maxConns = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (requests or
	// repetitions, as the glossary in README.md says per metric).
	N int `json:"n,omitempty"`
}

// result is one run of one workload, timed or traced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"` // first few failures, for the operator
	Metrics   map[string]metric `json:"metrics"`
	// Breakdown is a traced run's mean self time per layer (and per
	// core operator) as a share of the mean round trip.
	Breakdown map[string]float64 `json:"breakdown,omitempty"`
}

func (r *result) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fixture is a gcored process set up for one workload: dataset loaded,
// connections opened and prepared, set-up statements run, caches warm.
type fixture struct {
	cfg       runConfig
	spec      *workload.Spec
	srv       *gcored
	conns     []*conn
	dir       string // everything this fixture wrote
	dataDir   string // gcored -data, "" when the workload is not durable
	userBytes int64  // dataset JSON bytes
	setupS    float64

	warm  loadResult
	first map[string][]byte // first warm-up reply per distinct request
}

// setUp performs everything setup_s covers: dataset generation, JSON
// write, gcored start until /healthz is ok, sessions and prepares, the
// workload's set-up statements and the warm-up pass.
func setUp(cfg runConfig) (*fixture, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	f := &fixture{cfg: cfg, dir: dir, first: map[string][]byte{}}
	ok := false
	defer func() {
		if !ok {
			f.tearDown()
		}
	}()

	start := time.Now()
	ds, err := workload.NewDataset(cfg.persons, cfg.seed)
	if err != nil {
		return nil, err
	}
	if f.spec, err = workload.New(cfg.workload, ds, cfg.seed); err != nil {
		return nil, err
	}
	files, err := ds.WriteJSON(dir)
	if err != nil {
		return nil, err
	}
	var args []string
	if f.spec.Durable {
		f.dataDir = filepath.Join(dir, "data")
		args = append(args, "-data", f.dataDir, "-checkpoint-every", "256")
	}
	for _, file := range files {
		args = append(args, "-graph", file)
	}
	if f.srv, err = startGcored(cfg.bin, args...); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.conns; i++ {
		c := newConn(i, f.srv.base, f.spec)
		f.conns = append(f.conns, c)
		if err := c.open(f.spec); err != nil {
			return nil, fmt.Errorf("connection %d: %w", i, err)
		}
	}
	for _, req := range f.spec.Setup {
		path, body := f.conns[0].encode(req)
		if status, err := f.conns[0].post(path, body); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("set-up statement %q: status %d, %v", req.Query, status, err)
		}
	}
	counts := make([]int, cfg.conns)
	for i := range counts {
		counts[i] = f.spec.WarmupRequests(i)
	}
	f.warm = runLoad(f.conns, 0, counts, f.first)
	f.setupS = time.Since(start).Seconds()

	for _, file := range files {
		if info, err := os.Stat(file); err == nil {
			f.userBytes += info.Size()
		}
	}
	ok = true
	return f, nil
}

// tearDown kills gcored and removes everything the fixture wrote.
func (f *fixture) tearDown() {
	for _, c := range f.conns {
		c.close()
	}
	if f.srv != nil {
		f.srv.kill()
	}
	_ = os.RemoveAll(f.dir)
}

// verifyWarmup compares the first warm-up reply to every distinct
// request with the oracle's answer, in full, and counts the warm-up
// requests into res.
func (f *fixture) verifyWarmup(o *oracle, res *result) {
	res.Attempted += len(f.warm.samples)
	for _, s := range f.warm.samples {
		if !s.ok {
			res.fail(1, "warm-up request failed: %s", s.key)
		}
	}
	for key, reply := range f.first {
		if diff := o.checkFull(f.warm.reqs[key], reply); diff != "" {
			res.fail(1, "%s: %s", key, diff)
		}
	}
}

// verifyLoad checks every reply of a load window for status and
// result cardinality and counts the requests into res.
func verifyLoad(o *oracle, lr loadResult, res *result) {
	res.Attempted += len(lr.samples)
	for _, s := range lr.samples {
		if !s.ok {
			res.fail(1, "request failed: %s", s.key)
			continue
		}
		want, err := o.card(lr.reqs[s.key])
		if err != nil {
			res.fail(1, "%v", err)
		} else if int(s.card) != want {
			res.fail(1, "%s: %d result elements, oracle has %d", s.key, s.card, want)
		}
	}
}

// checkDurability kills gcored without warning, restarts it on the
// same data directory and requires every view whose definition was
// acknowledged to be there with the acknowledged element count. It
// returns the restart-to-healthy time. SIGKILL leaves the operating
// system's page cache intact, so this tests the recovery logic
// (checkpoint + log replay), not the device's honesty about fsync.
func (f *fixture) checkDurability(acked map[string]int, res *result) (recoveryS float64, err error) {
	f.srv.kill()
	start := time.Now()
	srv, err := startGcored(f.cfg.bin, "-data", f.dataDir, "-checkpoint-every", "256")
	if err != nil {
		res.Attempted += len(acked)
		res.fail(len(acked), "gcored did not come back on %s: %v", f.dataDir, err)
		return 0, err
	}
	recoveryS = time.Since(start).Seconds()
	f.srv = srv
	c := newConn(0, srv.base, f.spec)
	defer c.close()
	res.Attempted += len(acked)
	for view, want := range acked {
		status, err := c.post("/query", wire{Query: "CONSTRUCT " + view})
		if err != nil || status != http.StatusOK {
			res.fail(1, "acknowledged view %s lost after kill -9: status %d, %v", view, status, err)
			continue
		}
		if got := cardinality(c.respBuf.Bytes()); got != want {
			res.fail(1, "view %s has %d elements after recovery, %d were acknowledged", view, got, want)
		}
	}
	return recoveryS, nil
}

// ackedViews maps each view name to the element count of its last
// acknowledged definition, over the set-up statements (which setUp
// required to succeed), the warm-up and the load window.
func (f *fixture) ackedViews(o *oracle, loads ...loadResult) map[string]int {
	acked := map[string]int{}
	note := func(req workload.Request, card int) {
		if !req.Write {
			return
		}
		// GRAPH VIEW <name> AS (…
		if fields := strings.Fields(req.Query); len(fields) > 2 {
			acked[fields[2]] = card
		}
	}
	for _, req := range f.spec.Setup {
		if c, err := o.card(req); err == nil {
			note(req, c)
		}
	}
	for _, lr := range loads {
		for _, s := range lr.samples {
			if s.ok {
				note(lr.reqs[s.key], int(s.card))
			}
		}
	}
	return acked
}

// runTimed is the --trace 0 run: the end-to-end metrics, measured with
// no tracing anywhere. Set-up is repeated cfg.setups times, each on a
// fresh gcored process, and every repetition is measured for its share
// of the run; each metric is the median over the repetitions, so what
// one process happened to get (heap layout, a slow start) moves one
// repetition, not the figure.
func runTimed(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Metrics: map[string]metric{}}
	window := time.Duration(cfg.seconds / float64(cfg.setups) * float64(time.Second))
	per := map[string][]float64{}
	var reads, ok int
	var o *oracle
	for i := 0; i < cfg.setups; i++ {
		f, err := setUp(cfg)
		if err != nil {
			return nil, err
		}
		if o == nil { // the answers depend on the dataset and workload only
			if o, err = newOracle(cfg, f.spec); err != nil {
				f.tearDown()
				return nil, err
			}
		}
		st, cpu, rss, err := f.measure(o, window, res)
		f.tearDown()
		if err != nil {
			return nil, err
		}
		if st.ok() == 0 {
			return nil, fmt.Errorf("%s: no request succeeded in the measured window", cfg.workload)
		}
		per["qps"] = append(per["qps"], st.qps)
		per["read_p50_ms"] = append(per["read_p50_ms"], st.readP50)
		per["read_p95_ms"] = append(per["read_p95_ms"], st.readP95)
		per["cpu_ms_per_req"] = append(per["cpu_ms_per_req"], cpu*1000/float64(st.ok()))
		per["rss_peak_mb"] = append(per["rss_peak_mb"], rss)
		per["setup_s"] = append(per["setup_s"], f.setupS)
		reads += st.reads
		ok += st.ok()
	}
	res.Metrics["qps"] = metric{median(per["qps"]), "1/s", ok}
	res.Metrics["read_p50_ms"] = metric{median(per["read_p50_ms"]), "ms", reads}
	res.Metrics["read_p95_ms"] = metric{median(per["read_p95_ms"]), "ms", reads}
	res.Metrics["cpu_ms_per_req"] = metric{median(per["cpu_ms_per_req"]), "ms", ok}
	res.Metrics["rss_peak_mb"] = metric{median(per["rss_peak_mb"]), "MB", cfg.setups}
	res.Metrics["setup_s"] = metric{median(per["setup_s"]), "s", cfg.setups}
	return res, nil
}

// measure verifies the fixture's warm-up, runs one measured window on
// it, verifies every reply and, on a durable workload, the durability
// of every acknowledged write. It returns the window's figures,
// gcored's CPU seconds over the window and its peak RSS.
func (f *fixture) measure(o *oracle, window time.Duration, res *result) (st windowStats, cpu, rss float64, err error) {
	f.verifyWarmup(o, res)
	cpu0, err := f.srv.cpuSeconds()
	if err != nil {
		return st, 0, 0, err
	}
	lr := runLoad(f.conns, window, nil, nil)
	cpu1, err := f.srv.cpuSeconds()
	if err != nil {
		return st, 0, 0, err
	}
	if rss, err = f.srv.rssPeakMB(); err != nil {
		return st, 0, 0, err
	}
	verifyLoad(o, lr, res)
	if f.spec.Durable {
		// A gcored that does not come back is counted as lost writes;
		// the run itself completed.
		_, _ = f.checkDurability(f.ackedViews(o, f.warm, lr), res)
	}
	return lr.stats(), cpu1 - cpu0, rss, nil
}
