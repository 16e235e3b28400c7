// Command gcoreload is the end-to-end benchmark of gcored: it
// generates an SNB-schema dataset from a seed, starts a real gcored
// process per workload, drives it over HTTP in a closed loop, checks
// the answers against an in-process oracle and reports the metrics
// BENCHMARK.json declares. See ../README.md.
//
//	gcoreload -all                       every workload, timed and traced, human-readable
//	gcoreload -selfcheck                 the full set twice, spreads against the bounds, bench/baseline/
//	gcoreload -spread 10                 every workload timed on 10 seeds, twice: the evidence for the bounds
//	gcoreload -print-requests 20         the first requests of every workload's streams
//	gcoreload -workload W -seed N -seconds S -trace 0|1
//	                                     one run; last stdout line is the result as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"gcore/bench/workload"
)

func main() {
	if os.Getenv(netProbeEnv) != "" {
		if err := serveNetProbe(); err != nil {
			fmt.Fprintln(os.Stderr, "gcoreload net probe:", err)
			os.Exit(1)
		}
		return
	}
	killChildrenOnSignal()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gcoreload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gcoreload", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and print its result as JSON ("+strings.Join(workload.Names, ", ")+")")
	seed := fs.Int64("seed", 1, "seed of the dataset and of every parameter draw")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	all := fs.Bool("all", false, "run every workload, timed then traced, and print every metric")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice, compare against the bounds, write bench/baseline/")
	spreadN := fs.Int("spread", 0, "time every workload on N seeds, twice, and write the spreads behind the bounds to bench/baseline/")
	printN := fs.Int("print-requests", 0, "print the first N requests of each connection of each workload and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	root, err := findRoot()
	if err != nil {
		return err
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, root: root}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(decl.RunSeconds)
	}
	cfg = cfg.withDefaults()

	if *printN > 0 {
		return printRequests(cfg, *printN)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	// The checkout's .bench_build, which .gitignore names.
	if cfg.bin, err = buildGcored(root, filepath.Join(root, ".bench_build", "bin")); err != nil {
		return err
	}

	switch {
	case *selfcheck:
		return runSelfcheck(cfg, decl)
	case *spreadN > 0:
		return runSpread(cfg, decl, *spreadN)
	case *all:
		set, err := runSet(cfg, decl, os.Stdout)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), set); err != nil {
			return err
		}
		return set.failure()
	case *name != "":
		cfg.workload = *name
		var res *result
		if *trace != 0 {
			res, err = runTraced(cfg)
		} else {
			res, err = runTimed(cfg)
		}
		if err != nil {
			return err
		}
		if err := decl.conforms(res); err != nil {
			return err
		}
		for _, p := range res.Problems {
			fmt.Fprintln(os.Stderr, "gcoreload: failed:", p)
		}
		return printContract(res)
	}
	fs.Usage()
	return fmt.Errorf("nothing to do: give -all, -selfcheck, -spread, -print-requests or -workload")
}

// withDefaults fills the settings every reported number uses.
func (c runConfig) withDefaults() runConfig {
	if c.persons == 0 {
		c.persons = 2000
	}
	if c.conns == 0 {
		c.conns = runtime.NumCPU()
		if c.conns > maxConns {
			c.conns = maxConns
		}
		if c.conns < 2 {
			c.conns = 2 // mixed_rw_durable needs a writer and a reader
		}
	}
	if c.setups == 0 {
		c.setups = 3
	}
	if c.outDir == "" {
		c.outDir = filepath.Join(c.root, "bench", "out")
	}
	return c
}

// findRoot walks up from the working directory to the repository
// root, the directory that holds BENCHMARK.json: the driver and `go
// run` start there, `go test` in the package directory.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			return "", fmt.Errorf("no BENCHMARK.json in %s or above it", wd)
		}
	}
}

// declaration is BENCHMARK.json.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// conforms checks that res carries exactly the metrics BENCHMARK.json
// declares for its kind of run, each with its declared unit.
func (d *declaration) conforms(res *result) error {
	want := d.EndToEnd
	if res.Trace {
		want = d.PerLayer
	}
	var problems []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.Name] = true
		got, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.Name)
		case got.Unit != w.Unit:
			problems = append(problems, fmt.Sprintf("%s is in %s, declared %s", w.Name, got.Unit, w.Unit))
		}
	}
	for name := range res.Metrics {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s: metrics do not match BENCHMARK.json: %s", res.Workload, strings.Join(problems, "; "))
	}
	return nil
}

// printContract prints the one-line result the benchmark driver reads.
// Failed operations are in the line (correct, failed), not in the exit
// code: a run that produced a result exits 0.
func printContract(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printRequests dumps the traffic so a reviewer can read it.
func printRequests(cfg runConfig, n int) error {
	ds, err := workload.NewDataset(cfg.persons, cfg.seed)
	if err != nil {
		return err
	}
	for _, name := range workload.Names {
		spec, err := workload.New(name, ds, cfg.seed)
		if err != nil {
			return err
		}
		fmt.Printf("== %s (seed %d, %d connections)\n", name, cfg.seed, cfg.conns)
		for i, stmt := range spec.Prepared {
			fmt.Printf("prepared[%d]: %s\n", i, stmt)
		}
		for i, req := range spec.Setup {
			if i == n {
				fmt.Printf("set-up: … %d more\n", len(spec.Setup)-n)
				break
			}
			fmt.Printf("set-up: %s\n", req.Query)
		}
		for c := 0; c < cfg.conns; c++ {
			st := spec.Stream(c)
			for i := 0; i < n; i++ {
				req := st.Next()
				if req.Prep >= 0 {
					fmt.Printf("conn %d #%d %-11s /exec prepared[%d] %s\n", c, i, req.Class, req.Prep, req.Key())
				} else {
					fmt.Printf("conn %d #%d %-11s /query %s\n", c, i, req.Class, req.Query)
				}
			}
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
