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
	if m.ns != 2000 || m.allocs != 15 || !m.hasMem {
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
