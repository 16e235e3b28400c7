package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"gcore/bench/workload"
)

// TestMain lets the test binary serve as the net probe's process, the
// way the gcoreload binary does.
func TestMain(m *testing.M) {
	if os.Getenv(netProbeEnv) != "" {
		if err := serveNetProbe(); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload, timed and traced, at toy scale (a
// 200-person graph, one second, a 50-request trace) against a real
// gcored and checks the benchmark's own contract: every workload and
// metric BENCHMARK.json declares is emitted exactly once with its
// declared unit, nothing undeclared appears, and no operation fails.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workload.Names) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the driver has %d", len(decl.Workloads), len(workload.Names))
	}
	for i, w := range decl.Workloads {
		if w.Name != workload.Names[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the driver has %q", i, w.Name, workload.Names[i])
		}
	}
	bin, err := buildGcored(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := runConfig{
		seed: 1, seconds: 1, persons: 200, setups: 1, traceCap: 50,
		root: root, outDir: t.TempDir(), bin: bin,
	}.withDefaults()

	for _, name := range workload.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := base
			cfg.workload = name
			for _, run := range []func(runConfig) (*result, error){runTimed, runTraced} {
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// result.Metrics is a map, so "exactly once" is "present";
				// conforms also rejects missing, undeclared and mis-united names.
				if err := decl.conforms(res); err != nil {
					t.Error(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: %d of %d operations failed: %v", res.Trace, res.Failed, res.Attempted, res.Problems)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+name+".jsonl")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// the rule the benchmark driver measures spreads by.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1.5, 9, 2.6, 5.3, 5.8, 9.7, 9.3})
	if math.Abs(q1-2.325) > 1e-9 || math.Abs(q2-4.65) > 1e-9 || math.Abs(q3-9.075) > 1e-9 {
		t.Errorf("quartiles = %v %v %v, want 2.325 4.65 9.075", q1, q2, q3)
	}
}
