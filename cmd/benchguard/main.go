// Command benchguard compares two `go test -bench` output files and
// guards the hot-path benchmarks against regressions. Allocation
// counts and allocated bytes are nearly deterministic across machines,
// so an allocs/op or a B/op increase beyond the threshold on a guarded
// benchmark fails the run (exit 1): a change that keeps the number of
// allocations but makes each larger — a wider value, a scratch buffer
// no longer recycled — shows only in B/op. Where a benchmark's B/op
// spreads wider than the threshold across its own baseline runs (a
// background writer's bytes charged to the reads it overlaps), a B/op
// increase only warns. ns/op is timing- and machine-dependent, so a
// time regression only warns. Benchmarks present in the baseline but missing from the head
// run also warn, so silently dropping a guarded benchmark is visible.
//
// Usage:
//
//	go test -bench 'BenchmarkJoin|BenchmarkParallelMatch|BenchmarkFilteredScan|BenchmarkRepeatedEval|BenchmarkPreparedEval' \
//	    -benchmem -run '^$' . ./internal/bindings | tee bench.head.txt
//	go run ./cmd/benchguard -base bench.base.txt -head bench.head.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	base := flag.String("base", "bench.base.txt", "baseline `go test -bench` output")
	head := flag.String("head", "bench.head.txt", "head `go test -bench` output")
	// BenchmarkParallelMatch runs with the observability span
	// instrumentation live (spans open at every operator boundary),
	// so the guard doubles as the proof that instrumentation stays
	// within the allocation budget.
	// BenchmarkRepeatedEval covers both plan-cache outcomes (the /cache
	// sub-benchmark is the hit path, /miss a compile on every Eval),
	// each also through EvalScript (/script_cache, /script_miss: a
	// script that lexes or parses a cached statement, or parses a new
	// one twice, shows up as an allocation jump), and
	// BenchmarkPreparedEval the parameterised prepared-statement path,
	// so a plan-cache regression shows up as an allocation jump.
	// BenchmarkPreparedPoint guards parameters-as-constants: a bound
	// $parameter that stops compiling into a column predicate (or stops
	// seeking the value index) materialises the whole label partition
	// again, a 10× allocation jump on its /param cases; a GRAPH VIEW
	// write that retires the cached plan of a read beside it recompiles
	// that read, a 2.5× allocation jump on pid/after_write.
	// BenchmarkPathPattern and BenchmarkKShortest guard implicit walks:
	// a k-shortest search that reconstructs every walk it keeps, or a
	// path step that builds rows or walks for destinations its filter
	// drops, multiplies their allocations.
	// BenchmarkMatchStart guards the chain-start planner: a chain
	// pinned on an interior node that scans a whole label partition
	// again multiplies its allocations.
	// BenchmarkGrouping guards the one grouping primitive: a string key
	// built per binding row or per value again shows up as an
	// allocation jump on its aggregate, DISTINCT and CONSTRUCT GROUP
	// cases.
	// BenchmarkWALAppend guards the per-record durability overhead:
	// every graph mutation pays one append, so an allocation creep
	// here taxes every write; BenchmarkWALConcurrentAppend guards
	// the contended SyncAlways path, one fsync per append.
	// BenchmarkSnapshotDelta and BenchmarkMutateThenRead guard the
	// snapshot build that follows every mutation of a graph: an
	// allocation jump there taxes the first read after each write.
	// BenchmarkConcurrentRead guards the reader path under the
	// engine's read/write lock split, beside a GRAPH VIEW writer: an
	// allocation jump there means concurrent readers stopped sharing
	// snapshots.
	// BenchmarkReply guards whole requests through the HTTP handler:
	// a reply encoded more than once, or through reflection, shows up
	// as an allocation jump on its path and point cases, and search or
	// builder scratch that stops being recycled as a B/op jump on its
	// three path_analytics shapes (path, reach, shortest3).
	// BenchmarkCorrelated guards set-at-a-time subqueries: an EXISTS or
	// pattern predicate evaluated once per outer row again multiplies
	// its allocations by the outer table's size.
	guard := flag.String("guard", "BenchmarkJoin,BenchmarkParallelMatch,BenchmarkFilteredScan,BenchmarkRepeatedEval,BenchmarkPreparedEval,BenchmarkPreparedPoint,BenchmarkPathPattern,BenchmarkMatchStart,BenchmarkGrouping,BenchmarkKShortest,BenchmarkMutateThenRead,BenchmarkConcurrentRead,BenchmarkSnapshotDelta,BenchmarkWALAppend,BenchmarkWALConcurrentAppend,BenchmarkReply,BenchmarkCorrelated", "comma-separated benchmark name prefixes to guard")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression (0.20 = 20%)")
	flag.Parse()

	baseRecs, err := loadBench(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	headRecs, err := loadBench(*head)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	report := compare(baseRecs, headRecs, strings.Split(*guard, ","), *threshold)
	for _, line := range report.lines {
		fmt.Println(line)
	}
	if len(report.failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d allocation (allocs/op or B/op) regression(s) beyond %.0f%%\n",
			len(report.failures), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d guarded benchmark(s) within the %.0f%% budget\n",
		report.checked, *threshold*100)
}
