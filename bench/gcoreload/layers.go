package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"gcore"
	"gcore/bench/workload"
	"gcore/internal/csr"
)

// runTraced is the --trace 1 run: the per-layer metrics. It has three
// sources, none of which touches a timed run: a load window on the
// real gcored bracketed by scrapes of the counters it serves, the
// traced replay, and a few direct measurements of single layers.
func runTraced(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: true, Metrics: map[string]metric{}}
	f, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer func() { f.tearDown() }()
	o, err := newOracle(cfg, f.spec)
	if err != nil {
		return nil, err
	}
	f.verifyWarmup(o, res)

	// Load window, two fifths of the run; the replay gets the rest.
	window := time.Duration(cfg.seconds * 0.4 * float64(time.Second))
	c0, err := f.srv.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := f.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	lr := runLoad(f.conns, window, nil, nil)
	self1 := selfCPUSeconds()
	cpu1, err := f.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	c1, err := f.srv.scrape()
	if err != nil {
		return nil, err
	}
	verifyLoad(o, lr, res)
	st := lr.stats()
	if st.ok() == 0 {
		return nil, fmt.Errorf("%s: no request succeeded in the load window", cfg.workload)
	}
	counterMetrics(res.Metrics, c0, c1, lr, st, cpu1-cpu0, self1-self0)

	// Traced replay.
	ip, err := newInProcess(cfg, f.spec, f.dir)
	if err != nil {
		return nil, err
	}
	defer ip.closeAll()
	tr := &tracer{}
	budget := time.Duration(cfg.seconds * 0.6 * float64(time.Second))
	out, err := replay(cfg, f, ip, tr, budget, float64(st.writes)/float64(st.ok()))
	if err != nil {
		return nil, err
	}
	res.Attempted += out.requests
	traceMetrics(res.Metrics, out)
	res.Breakdown = breakdown(out)
	if err := tr.write(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".jsonl")); err != nil {
		return nil, err
	}

	// Direct measurements.
	ds, err := workload.NewDataset(cfg.persons, cfg.seed)
	if err != nil {
		return nil, err
	}
	var builds []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		_ = csr.Build(ds.Social)
		builds = append(builds, ms(time.Since(t0)))
	}
	res.Metrics["csr.build_ms"] = metric{median(builds), "ms", len(builds)}

	wal := map[string]metric{
		"wal.disk_bytes_per_user_byte": {0, "ratio", 0},
		"wal.recovery_s":               {0, "s", 0},
	}
	if f.spec.Durable {
		// User data is what a client could read back: the dataset plus
		// the live views, in interchange JSON.
		user := f.userBytes
		for _, name := range ip.direct.b.GraphNames() {
			if g, ok := ip.direct.b.Graph(name); ok && name != ds.Social.Name() && name != ds.Companies.Name() {
				if data, err := g.MarshalJSON(); err == nil {
					user += int64(len(data))
				}
			}
		}
		disk, err := dirBytes(f.dataDir)
		if err != nil {
			return nil, err
		}
		wal["wal.disk_bytes_per_user_byte"] = metric{float64(disk) / float64(user), "ratio", 1}
		recovery, err := f.checkDurability(f.ackedViews(o, f.warm, lr), res)
		if err == nil {
			wal["wal.recovery_s"] = metric{recovery, "s", 1}
		}
	}
	for k, v := range wal {
		res.Metrics[k] = v
	}
	return res, nil
}

// counterMetrics derives the metrics that are deltas of what gcored
// serves at /metrics and /debug/vars over the load window, plus the
// driver's own view of that window.
func counterMetrics(m map[string]metric, c0, c1 counters, lr loadResult, st windowStats, gcoredCPU, clientCPU float64) {
	n := len(lr.samples)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	per := func(v float64) float64 { return ratio(v, float64(n)) }
	d := func(name string) float64 { return c1.flat[name] - c0.flat[name] }
	op := func(names ...string) gcore.OpMetrics {
		var o gcore.OpMetrics
		for _, name := range names {
			a, b := c0.ops[name], c1.ops[name]
			o.ElapsedNS += b.ElapsedNS - a.ElapsedNS
			o.RowsOut += b.RowsOut - a.RowsOut
			o.Pops += b.Pops - a.Pops
		}
		return o
	}
	opMS := func(names ...string) float64 { return per(float64(op(names...).ElapsedNS) / 1e6) }

	// client: the driver itself.
	var reqB, respB []float64
	for _, s := range lr.samples {
		reqB = append(reqB, float64(s.req))
		respB = append(respB, float64(s.resp))
	}
	m["client.cpu_s"] = metric{clientCPU, "s", 1}
	m["client.cpu_share"] = metric{ratio(clientCPU, clientCPU+gcoredCPU), "ratio", 1}
	m["client.read_p95_ms"] = metric{st.readP95, "ms", st.reads}
	m["client.write_p50_ms"] = metric{st.writeP50, "ms", st.writes}
	m["client.req_bytes_p50"] = metric{median(reqB), "bytes", n}
	m["client.resp_bytes_p50"] = metric{median(respB), "bytes", n}

	// server: every sessionless /query makes gcored build a session
	// for that one request.
	m["server.sessions_created_per_req"] = metric{per(float64(lr.sessionless)), "count", n}

	// engine: statements dispatched down the read and the write path.
	writes := d("write_statements")
	m["engine.read_stmts"] = metric{d("read_statements"), "count", 1}
	m["engine.write_stmts"] = metric{writes, "count", 1}

	// plancache.
	hits := d("plan_cache_hits")
	misses := d("plan_cache_misses")
	m["plancache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio", int(hits + misses)}
	m["plancache.evictions_per_write"] = metric{ratio(d("plan_cache_evictions"), writes), "count", int(writes)}
	m["plancache.compile_ms_per_req"] = metric{per(d("plan_cache_compile_ns") / 1e6), "ms", n}

	// core operators. path excludes the kernels below it, which are rpq's.
	kernels := op("shortest", "reach", "all-paths")
	m["core.scan_ms_per_req"] = metric{opMS("scan"), "ms", n}
	m["core.expand_ms_per_req"] = metric{opMS("expand"), "ms", n}
	m["core.filter_ms_per_req"] = metric{opMS("filter", "residual"), "ms", n}
	m["core.join_ms_per_req"] = metric{opMS("join", "left-join"), "ms", n}
	m["core.path_ms_per_req"] = metric{per(float64(op("path").ElapsedNS-kernels.ElapsedNS) / 1e6), "ms", n}
	m["core.construct_ms_per_req"] = metric{opMS("construct"), "ms", n}
	m["core.select_ms_per_req"] = metric{opMS("select"), "ms", n}
	examined := op("scan", "expand", "path").RowsOut
	returned := op("construct", "select").RowsOut
	m["core.rows_examined_per_result"] = metric{ratio(float64(examined), float64(returned)), "count", int(returned)}

	// rpq kernels.
	nfaHits := d("nfa_cache_hits")
	nfaMisses := d("nfa_cache_misses")
	m["rpq.reach_ms_per_req"] = metric{opMS("reach"), "ms", n}
	m["rpq.shortest_ms_per_req"] = metric{opMS("shortest"), "ms", n}
	m["rpq.pops_per_req"] = metric{per(float64(kernels.Pops)), "count", n}
	m["rpq.nfa_hit_ratio"] = metric{ratio(nfaHits, nfaHits+nfaMisses), "ratio", int(nfaHits + nfaMisses)}

	// csr snapshots.
	builds := d("csr_builds")
	reuses := d("csr_reuses")
	m["csr.builds"] = metric{builds, "count", 1}
	m["csr.reuse_ratio"] = metric{ratio(reuses, reuses+builds), "ratio", int(reuses + builds)}
	m["csr.full_builds"] = metric{d("snapshot_full_builds"), "count", 1}
	m["csr.delta_applies"] = metric{d("snapshot_delta_applies"), "count", 1}

	// catalog: every write statement of these workloads registers one
	// view, which bumps the catalog version once.
	m["catalog.version_bumps"] = metric{writes, "count", 1}

	// wal.
	appends := d("wal_appends")
	m["wal.appends_per_write"] = metric{ratio(appends, writes), "count", int(writes)}
	m["wal.bytes_per_write"] = metric{ratio(d("wal_appended_bytes"), writes), "bytes", int(writes)}
	m["wal.syncs_per_write"] = metric{ratio(d("wal_syncs"), writes), "count", int(writes)}
	m["wal.checkpoints"] = metric{d("wal_checkpoints"), "count", 1}

	// proc: the Go runtime inside gcored.
	m["proc.alloc_kb_per_req"] = metric{per(float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc) / 1024), "KB", n}
	m["proc.mallocs_per_req"] = metric{per(float64(c1.mem.Mallocs - c0.mem.Mallocs)), "count", n}
	m["proc.gc_pause_ms_total"] = metric{float64(c1.mem.PauseTotalNs-c0.mem.PauseTotalNs) / 1e6, "ms", 1}
	m["proc.gcored_cpu_s"] = metric{gcoredCPU, "s", 1}
}

// traceMetrics derives the metrics that come from the traced replay.
func traceMetrics(m map[string]metric, out *traceOut) {
	n := out.requests
	m["net.self_ms_p50"] = metric{median(out.self["net"]), "ms", n}
	m["net.loopback_ms_p50"] = metric{median(out.dur["loopback"]), "ms", n}
	m["server.handler_ms_p50"] = metric{median(out.dur["handler"]), "ms", n}
	m["server.self_ms_p50"] = metric{median(out.self["server"]), "ms", n}
	m["engine.eval_ms_p50"] = metric{median(out.dur["eval"]), "ms", n}
	m["engine.self_ms_p50"] = metric{median(out.self["engine"]), "ms", n}
	m["plancache.normalize_us_p50"] = metric{median(out.dur["normalize"]) * 1000, "us", n}
	m["parser.parse_us_p50"] = metric{median(out.dur["parse"]) * 1000, "us", n}
	m["parser.bytes_per_stmt"] = metric{mean(out.stmtBytes), "bytes", n}
	m["core.prepare_us_p50"] = metric{median(out.dur["prepare"]) * 1000, "us", n}
	m["ppg.marshal_ms_p50"] = metric{median(out.dur["encode_ppg"]), "ms", len(out.dur["encode_ppg"])}
	mbs := 0.0
	if out.graphNS > 0 {
		mbs = float64(out.graphB) / 1e6 / (float64(out.graphNS) / 1e9)
	}
	m["ppg.marshal_mb_s"] = metric{mbs, "MB/s", len(out.dur["encode_ppg"])}
	m["table.marshal_ms_p50"] = metric{median(out.dur["encode_table"]), "ms", len(out.dur["encode_table"])}
	m["wal.append_sync_ms_p50"] = metric{median(out.dur["wal_append"]), "ms", len(out.dur["wal_append"])}
	m["catalog.graphs_live"] = metric{float64(out.graphs), "count", 1}

	// Does what was timed in this process explain the real round trip?
	// The handler and the loopback probe are timed independently of it
	// and of each other, so round trip − handler − loopback is a
	// residual that can fail. Medians add up only over like requests, so
	// it is taken per statement class and weighted by how often the
	// class occurs.
	byClass := map[string][]int{}
	for i, c := range out.class {
		byClass[c] = append(byClass[c], i)
	}
	var gap, total float64
	for _, idx := range byClass {
		med := func(name string) float64 {
			sub := make([]float64, len(idx))
			for j, i := range idx {
				sub[j] = out.dur[name][i]
			}
			return median(sub)
		}
		w := float64(len(idx))
		gap += math.Abs(med("roundtrip")-med("handler")-med("loopback")) * w
		total += med("roundtrip") * w
	}
	m["trace.unattributed_ratio"] = metric{gap / total, "ratio", n}
	m["trace.clipped_ratio"] = metric{mean(out.clipped) / mean(out.dur["roundtrip"]), "ratio", n}
	over := 0.0
	if u := median(out.untraced); u > 0 {
		over = median(out.traced)/u - 1
	}
	m["trace.overhead_ratio"] = metric{over, "ratio", len(out.traced)}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// breakdown renders the mean self time per layer of a traced replay
// as shares of the mean round trip, for the baseline table.
func breakdown(out *traceOut) map[string]float64 {
	total := mean(out.dur["roundtrip"])
	shares := map[string]float64{}
	if total == 0 {
		return shares
	}
	for _, layer := range traceLayers {
		shares[layer] = mean(out.self[layer]) / total
	}
	for op, vs := range out.ops {
		shares["core."+op] = mean(vs) / total
	}
	shares["net.loopback"] = mean(out.dur["loopback"]) / total
	shares["unattributed"] = 1 - (mean(out.dur["handler"])+mean(out.dur["loopback"]))/total
	shares["clipped"] = mean(out.clipped) / total
	return shares
}
