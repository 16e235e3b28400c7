package main

import (
	"strings"
	"testing"
)

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkJoin/rows=100-8": "BenchmarkJoin/rows=100",
		"BenchmarkJoin/rows=100":   "BenchmarkJoin/rows=100",
		"BenchmarkX-foo":           "BenchmarkX-foo",
		"BenchmarkParse-16":        "BenchmarkParse",
		// The reader count is part of the name, not a GOMAXPROCS suffix.
		"BenchmarkConcurrentRead/readers=4-2": "BenchmarkConcurrentRead/readers=4",
		"BenchmarkConcurrentRead/readers=4":   "BenchmarkConcurrentRead/readers=4",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchAverages(t *testing.T) {
	recs := parseBench([]string{
		"goos: linux",
		"BenchmarkJoin/rows=100-8   100   1000 ns/op   512 B/op   10 allocs/op",
		"BenchmarkJoin/rows=100-8   100   3000 ns/op   512 B/op   20 allocs/op",
		"PASS",
	})
	m, ok := recs["BenchmarkJoin/rows=100"]
	if !ok || m.n != 2 {
		t.Fatalf("records = %v", recs)
	}
	if m.ns != 2000 || m.bytes != 512 || m.allocs != 15 || !m.hasMem {
		t.Errorf("averaged metric = %+v", m)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := parseBench([]string{
		"BenchmarkJoin/rows=100-8      100  1000 ns/op  512 B/op  100 allocs/op",
		"BenchmarkParallelMatch-8      100  1000 ns/op  512 B/op  100 allocs/op",
		"BenchmarkGroupBy-8            100  1000 ns/op  512 B/op  100 allocs/op",
		"BenchmarkDropped-8            100  1000 ns/op  512 B/op  100 allocs/op",
	})
	head := parseBench([]string{
		// 50% more allocations: fails.
		"BenchmarkJoin/rows=100-4      100  1000 ns/op  512 B/op  150 allocs/op",
		// Allocs fine, 2x slower: warns only.
		"BenchmarkParallelMatch-4      100  2000 ns/op  512 B/op  105 allocs/op",
		// Unguarded: ignored even though it regressed.
		"BenchmarkGroupBy-4            100  9000 ns/op  512 B/op  900 allocs/op",
	})
	guard := []string{"BenchmarkJoin", "BenchmarkParallelMatch", "BenchmarkDropped"}
	res := compare(base, head, guard, 0.20)
	if len(res.failures) != 1 || res.failures[0] != "BenchmarkJoin/rows=100" {
		t.Fatalf("failures = %v", res.failures)
	}
	if res.checked != 2 {
		t.Errorf("checked = %d, want 2", res.checked)
	}
	report := strings.Join(res.lines, "\n")
	if !strings.Contains(report, "FAIL  BenchmarkJoin/rows=100") {
		t.Errorf("missing FAIL line:\n%s", report)
	}
	if !strings.Contains(report, "WARN  BenchmarkParallelMatch: ns/op") {
		t.Errorf("missing timing warning:\n%s", report)
	}
	if !strings.Contains(report, "WARN  BenchmarkDropped: guarded baseline benchmark missing") {
		t.Errorf("missing lost-coverage warning:\n%s", report)
	}
	if strings.Contains(report, "BenchmarkGroupBy") {
		t.Errorf("unguarded benchmark leaked into report:\n%s", report)
	}
	// Within budget: no failures.
	res = compare(base, head, []string{"BenchmarkParallelMatch"}, 0.20)
	if len(res.failures) != 0 || res.checked != 1 {
		t.Fatalf("clean guard: failures=%v checked=%d", res.failures, res.checked)
	}
}

// TestCompareBytesGate: B/op is gated like allocs/op — a benchmark
// whose allocation count holds but whose bytes grow past the threshold
// fails, and one whose bytes stay within it passes — except where the
// baseline's own runs spread wider than the threshold: that B/op
// increase warns.
func TestCompareBytesGate(t *testing.T) {
	base := parseBench([]string{
		"BenchmarkPathPattern/reach-2    100  1000 ns/op  1000000 B/op  100 allocs/op",
		"BenchmarkPathPattern/reach-2    100  1000 ns/op  1100000 B/op  100 allocs/op",
		"BenchmarkKShortest/k=4-2        100  1000 ns/op  1000000 B/op  100 allocs/op",
		"BenchmarkConcurrentRead/readers=2-2  100  1000 ns/op  50000 B/op  100 allocs/op",
		"BenchmarkConcurrentRead/readers=2-2  100  1000 ns/op  70000 B/op  100 allocs/op",
	})
	head := parseBench([]string{
		// Same allocations, 2.1x the bytes: fails.
		"BenchmarkPathPattern/reach-2    100  1000 ns/op  2200000 B/op  100 allocs/op",
		// 15% more bytes: within the budget.
		"BenchmarkKShortest/k=4-2        100  1000 ns/op  1150000 B/op  100 allocs/op",
		// 1.5x the bytes, but the baseline runs spread 33%: warns.
		"BenchmarkConcurrentRead/readers=2-2  100  1000 ns/op  90000 B/op  100 allocs/op",
	})
	res := compare(base, head, []string{"BenchmarkPathPattern", "BenchmarkKShortest", "BenchmarkConcurrentRead"}, 0.20)
	if len(res.failures) != 1 || res.failures[0] != "BenchmarkPathPattern/reach" {
		t.Fatalf("failures = %v", res.failures)
	}
	report := strings.Join(res.lines, "\n")
	if !strings.Contains(report, "FAIL  BenchmarkPathPattern/reach: B/op 1050000.0 → 2200000.0") {
		t.Errorf("missing B/op FAIL line:\n%s", report)
	}
	if !strings.Contains(report, "ok    BenchmarkPathPattern/reach: allocs/op") {
		t.Errorf("allocs/op line of the B/op failure missing or failed:\n%s", report)
	}
	if !strings.Contains(report, "ok    BenchmarkKShortest/k=4: B/op") {
		t.Errorf("B/op within budget not reported ok:\n%s", report)
	}
	if !strings.Contains(report, "WARN  BenchmarkConcurrentRead/readers=2: B/op 60000.0 → 90000.0 (+50.0%) — baseline runs spread 33%, not gated") {
		t.Errorf("B/op of a spread baseline not reported as an ungated warning:\n%s", report)
	}
}
