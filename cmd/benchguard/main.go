// Command benchguard compares two `go test -bench` output files and
// guards the hot-path benchmarks against regressions. Allocation
// counts are deterministic across machines, so an allocs/op increase
// beyond the threshold on a guarded benchmark fails the run (exit 1);
// ns/op is timing- and machine-dependent, so a time regression only
// warns. Benchmarks present in the baseline but missing from the head
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
	// BenchmarkRepeatedEval covers both plan-cache modes (the /cache
	// sub-benchmark is the hit path, /nocache the ablated fallback),
	// and BenchmarkPreparedEval the parameterised prepared-statement
	// path, so a plan-cache regression shows up as an allocation jump.
	// BenchmarkPreparedPoint guards parameters-as-constants: a bound
	// $parameter that stops compiling into a column predicate (or stops
	// seeking the value index) materialises the whole label partition
	// again, a 10× allocation jump on its /param cases.
	// BenchmarkPathPattern and BenchmarkKShortest guard implicit walks:
	// a k-shortest search that reconstructs every walk it keeps, or a
	// path step that builds rows or walks for destinations its filter
	// drops, multiplies their allocations.
	// BenchmarkWALAppend guards the per-record durability overhead:
	// every graph mutation pays one append, so an allocation creep
	// here taxes every write; BenchmarkWALGroupCommit the contended
	// SyncAlways path with shared fsyncs.
	// BenchmarkSnapshotDelta and BenchmarkMutateThenRead guard
	// incremental snapshot maintenance: the delta apply must stay
	// O(delta)-allocating, not O(graph), or mixed read/write
	// workloads silently fall back to rebuild-per-read costs.
	// BenchmarkConcurrentRead guards the reader path under the
	// engine's read/write lock split: an allocation jump there means
	// concurrent readers stopped sharing snapshots.
	// BenchmarkReply guards whole requests through the HTTP handler:
	// a reply encoded more than once, or through reflection, shows up
	// as an allocation jump on its path and point cases.
	guard := flag.String("guard", "BenchmarkJoin,BenchmarkParallelMatch,BenchmarkFilteredScan,BenchmarkRepeatedEval,BenchmarkPreparedEval,BenchmarkPreparedPoint,BenchmarkPathPattern,BenchmarkKShortest,BenchmarkMutateThenRead,BenchmarkConcurrentRead,BenchmarkSnapshotDelta,BenchmarkWALAppend,BenchmarkWALGroupCommit,BenchmarkReply", "comma-separated benchmark name prefixes to guard")
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
		fmt.Fprintf(os.Stderr, "benchguard: %d allocation regression(s) beyond %.0f%%\n",
			len(report.failures), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d guarded benchmark(s) within the %.0f%% budget\n",
		report.checked, *threshold*100)
}
