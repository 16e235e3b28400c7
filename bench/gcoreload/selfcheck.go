package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gcore/bench/workload"
)

// resultSet is one full set: every workload, timed and traced.
type resultSet struct {
	Seed        int64     `json:"seed"`
	RunSeconds  float64   `json:"run_seconds"`
	Persons     int       `json:"persons"`
	Connections int       `json:"connections"`
	WallSeconds float64   `json:"wall_seconds"`
	Runs        []*result `json:"runs"`
}

func (s *resultSet) failure() error {
	var bad []string
	for _, r := range s.Runs {
		if r.Failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d of %d failed (%s)", r.Workload, r.Failed, r.Attempted, strings.Join(r.Problems, "; ")))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("incorrect results:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func (s *resultSet) find(name string, trace bool) *result {
	for _, r := range s.Runs {
		if r.Workload == name && r.Trace == trace {
			return r
		}
	}
	return nil
}

// runSet runs every workload timed, then traced, printing each metric
// by name and unit as it goes.
func runSet(cfg runConfig, decl *declaration, w io.Writer) (*resultSet, error) {
	set := &resultSet{Seed: cfg.seed, RunSeconds: cfg.seconds, Persons: cfg.persons, Connections: cfg.conns}
	start := time.Now()
	for _, name := range workload.Names {
		cfg.workload = name
		for _, run := range []func(runConfig) (*result, error){runTimed, runTraced} {
			res, err := run(cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if err := decl.conforms(res); err != nil {
				return nil, err
			}
			set.Runs = append(set.Runs, res)
			printResult(w, decl, res)
		}
	}
	set.WallSeconds = time.Since(start).Seconds()
	fmt.Fprintf(w, "\nfull set: %.0f s wall\n", set.WallSeconds)
	return set, nil
}

func printResult(w io.Writer, decl *declaration, res *result) {
	kind, names := "end to end (timed, untraced)", decl.EndToEnd
	if res.Trace {
		kind, names = "per layer (traced run)", decl.PerLayer
	}
	fmt.Fprintf(w, "\n== %s — %s: %d attempted, %d failed\n", res.Workload, kind, res.Attempted, res.Failed)
	for _, d := range names {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.N)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  failed: %s\n", p)
	}
}

// runSelfcheck runs the full set twice back to back on the same seed,
// prints each end-to-end metric's relative spread against its declared
// bound, and writes both result files and the baseline table.
func runSelfcheck(cfg runConfig, decl *declaration) error {
	var sets [2]*resultSet
	for i := range sets {
		fmt.Printf("\n#### set %d of 2\n", i+1)
		set, err := runSet(cfg, decl, os.Stdout)
		if err != nil {
			return err
		}
		sets[i] = set
	}
	dir := filepath.Join(cfg.root, "bench", "baseline")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, set := range sets {
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("set%d.json", i+1)), set); err != nil {
			return err
		}
	}
	table, outside := baselineTable(decl, sets)
	if err := os.WriteFile(filepath.Join(dir, "BASELINE.md"), []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(table)
	for _, set := range sets {
		if err := set.failure(); err != nil {
			return err
		}
	}
	if len(outside) > 0 {
		return fmt.Errorf("two sets of the same code disagree beyond the declared bound: %s", strings.Join(outside, ", "))
	}
	return nil
}

// writeP50 is the one per-layer metric -selfcheck holds to a bound all
// the same. BENCHMARK.json can bound only end-to-end metrics, and those
// must be non-zero on every workload, which write latency is not: three
// of the four workloads issue no writes. Without this a change could
// double write latency and show only as a diluted qps move.
const (
	writeP50      = "client.write_p50_ms"
	writeP50Bound = 0.10
)

// spread is the relative distance between two runs of one metric.
func spread(a, b float64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return 0
	}
	return hi/lo - 1
}

// baselineTable renders the two sets as markdown and lists the
// end-to-end metrics whose spread exceeds their bound.
func baselineTable(decl *declaration, sets [2]*resultSet) (string, []string) {
	var sb strings.Builder
	var outside []string
	a, b := sets[0], sets[1]
	fmt.Fprintf(&sb, "# gcoreload baseline\n\n")
	fmt.Fprintf(&sb, "Generated by `gcoreload -selfcheck`: two full sets of the same code, back to back, seed %d, snb_%d, %d connections, %.0f s measured per run. Set wall times %.0f s and %.0f s. No gain is claimed; this is the first row of the trajectory.\n\n",
		a.Seed, a.Persons, a.Connections, a.RunSeconds, a.WallSeconds, b.WallSeconds)

	fmt.Fprintf(&sb, "## End to end\n\n| workload | metric | unit | set 1 | set 2 | spread | bound | n |\n|---|---|---|---:|---:|---:|---:|---:|\n")
	for _, name := range workload.Names {
		ra, rb := a.find(name, false), b.find(name, false)
		for _, d := range decl.EndToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			sp := spread(ma.Value, mb.Value)
			mark := ""
			if sp > d.Bound {
				mark = " ⚠"
				outside = append(outside, name+"/"+d.Name)
			}
			fmt.Fprintf(&sb, "| %s | %s | %s | %.4g | %.4g | %.1f%%%s | %.0f%% | %d |\n", name, d.Name, d.Unit, ma.Value, mb.Value, sp*100, mark, d.Bound*100, ma.N)
		}
		fmt.Fprintf(&sb, "| %s | failed/attempted | count | %d/%d | %d/%d | | any | |\n", name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
	}

	fmt.Fprintf(&sb, "\n## Per layer (set 1 / set 2)\n\nPer-layer metrics have no bound, except that `-selfcheck` holds `%s` to %.0f %% between the two sets, where it is not zero.\n\n| metric | unit |", writeP50, writeP50Bound*100)
	for _, name := range workload.Names {
		fmt.Fprintf(&sb, " %s |", name)
	}
	fmt.Fprintf(&sb, "\n|---|---|")
	for range workload.Names {
		fmt.Fprintf(&sb, "---:|")
	}
	fmt.Fprintln(&sb)
	for _, d := range decl.PerLayer {
		fmt.Fprintf(&sb, "| %s | %s |", d.Name, d.Unit)
		for _, name := range workload.Names {
			va, vb := a.find(name, true).Metrics[d.Name].Value, b.find(name, true).Metrics[d.Name].Value
			mark := ""
			if d.Name == writeP50 && spread(va, vb) > writeP50Bound {
				mark = " ⚠"
				outside = append(outside, name+"/"+d.Name)
			}
			fmt.Fprintf(&sb, " %.4g / %.4g%s |", va, vb, mark)
		}
		fmt.Fprintln(&sb)
	}

	fmt.Fprintf(&sb, "\n## Where a request's time goes\n\nMean self time per layer as a share of the mean sequential round trip in the traced replay (set 1). `core.<op>` rows split the `core` row by operator; the remainder of `core` is statement time outside any operator span. The calls are made one after another, so a child can outlast its parent; self times are floored at zero and a column can sum past 100 %%.\n\n| layer |")
	for _, name := range workload.Names {
		fmt.Fprintf(&sb, " %s |", name)
	}
	fmt.Fprintf(&sb, "\n|---|")
	for range workload.Names {
		fmt.Fprintf(&sb, "---:|")
	}
	fmt.Fprintln(&sb)
	row := func(layer string) {
		fmt.Fprintf(&sb, "| %s |", layer)
		for _, name := range workload.Names {
			fmt.Fprintf(&sb, " %.1f%% |", a.find(name, true).Breakdown[layer]*100)
		}
		fmt.Fprintln(&sb)
	}
	for _, layer := range traceLayers {
		row(layer)
		if layer == "core" {
			for _, op := range coreOps {
				row("core." + op)
			}
		}
	}
	fmt.Fprintf(&sb, "\nThe rows above add up by construction: each self time is a span minus its children, and `net` is the round trip minus the handler. The check that can fail is below. `net.loopback` is the independently timed round trip of the same bytes to a do-nothing server; `unattributed` is the mean round trip that the in-process handler plus that probe do not account for (negative: they cost more than the real thing); `clipped` is what flooring self times at zero cut off.\n\n| check |")
	for _, name := range workload.Names {
		fmt.Fprintf(&sb, " %s |", name)
	}
	fmt.Fprintf(&sb, "\n|---|")
	for range workload.Names {
		fmt.Fprintf(&sb, "---:|")
	}
	fmt.Fprintln(&sb)
	for _, check := range []string{"net.loopback", "unattributed", "clipped"} {
		row(check)
	}
	return sb.String(), outside
}

// spreadRuns is what -spread measured: per round, per workload, one
// timed run per seed.
type spreadRuns struct {
	RunSeconds float64                 `json:"run_seconds"`
	Rounds     [2]map[string][]*result `json:"rounds"`
}

// runSpread makes the measurement the declared bounds rest on, the one
// the benchmark contract prescribes: a timed run of every workload on
// each of n seeds, twice over (the second round on the next n seeds).
// Per end-to-end metric it reports the distance between the quartiles
// of a round's values as a share of their median, and how far the
// second round's median is worse than the first's. A bound is sound
// when the spreads stay under a third of it and the drift under it.
func runSpread(cfg runConfig, decl *declaration, n int) error {
	runs := spreadRuns{RunSeconds: cfg.seconds}
	for round := range runs.Rounds {
		runs.Rounds[round] = map[string][]*result{}
		for i := 0; i < n; i++ {
			cfg.seed = int64(round*n + i + 1)
			for _, name := range workload.Names {
				cfg.workload = name
				res, err := runTimed(cfg)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, cfg.seed, err)
				}
				fmt.Printf("round %d seed %d %s: %d attempted, %d failed\n", round+1, cfg.seed, name, res.Attempted, res.Failed)
				runs.Rounds[round][name] = append(runs.Rounds[round][name], res)
			}
		}
	}
	dir := filepath.Join(cfg.root, "bench", "baseline")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "spread.json"), runs); err != nil {
		return err
	}
	table, outside := spreadTable(decl, runs, n)
	if err := os.WriteFile(filepath.Join(dir, "SPREAD.md"), []byte(table), 0o644); err != nil {
		return err
	}
	fmt.Print("\n", table)
	if len(outside) > 0 {
		return fmt.Errorf("spread above a third of the bound, or drift above the bound: %s", strings.Join(outside, ", "))
	}
	return nil
}

// quartiles returns the first quartile, the median and the third
// quartile of vs the way Python's statistics.quantiles(vs, n=4) does
// (the benchmark driver's rule).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(2), at(3)
}

func spreadTable(decl *declaration, runs spreadRuns, n int) (string, []string) {
	var sb strings.Builder
	var outside []string
	fmt.Fprintf(&sb, "# gcoreload: run-to-run spread behind the bounds\n\n")
	fmt.Fprintf(&sb, "Generated by `gcoreload -spread %d`: every workload timed (`--trace 0`, %.0f s) on seeds 1–%d, then again on seeds %d–%d. `spread` is the distance between the first and third quartile of a round's values as a share of their median; `drift` is how much worse the second round's median is than the first's. A bound is sound when both spreads are under a third of it and the drift is under it.\n\n", n, runs.RunSeconds, n, n+1, 2*n)
	fmt.Fprintf(&sb, "| workload | metric | unit | median 1 | spread 1 | median 2 | spread 2 | drift | bound | |\n|---|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, name := range workload.Names {
		failed := 0
		for _, round := range runs.Rounds {
			for _, r := range round[name] {
				failed += r.Failed
			}
		}
		for _, d := range decl.EndToEnd {
			var med, spr [2]float64
			for round := range runs.Rounds {
				var vs []float64
				for _, r := range runs.Rounds[round][name] {
					vs = append(vs, r.Metrics[d.Name].Value)
				}
				q1, q2, q3 := quartiles(vs)
				med[round], spr[round] = q2, (q3-q1)/q2
			}
			drift := med[1]/med[0] - 1
			if d.Better == "higher" {
				drift = -drift
			}
			mark := ""
			// setup_s is held to its bound by drift alone, as the driver does.
			wide := d.Name != "setup_s" && (spr[0] > d.Bound/3 || spr[1] > d.Bound/3)
			if wide || drift > d.Bound {
				mark = "⚠"
				outside = append(outside, name+"/"+d.Name)
			}
			fmt.Fprintf(&sb, "| %s | %s | %s | %.4g | %.1f%% | %.4g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				name, d.Name, d.Unit, med[0], spr[0]*100, med[1], spr[1]*100, drift*100, d.Bound*100, mark)
		}
		fmt.Fprintf(&sb, "| %s | failed | count | %d | | | | | any | |\n", name, failed)
	}
	return sb.String(), outside
}
