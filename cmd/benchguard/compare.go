package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is the averaged measurements of one benchmark across the
// repeated -count runs of a file.
type metric struct {
	ns     float64
	bytes  float64
	allocs float64
	hasMem bool
	n      int

	// bytesLo and bytesHi are the smallest and largest B/op of the
	// runs. A benchmark whose B/op depends on timing — a background
	// writer's allocations charged to the reads it overlaps — spreads
	// wider than the budget across its own baseline runs, and then B/op
	// cannot tell a regression from noise.
	bytesLo, bytesHi float64
}

// stripProcSuffix removes the trailing "-<GOMAXPROCS>" go test
// appends to benchmark names, so files from machines with different
// core counts compare by the logical benchmark name.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBenchLine decodes one `BenchmarkX-8 N 12.3 ns/op 4 B/op
// 2 allocs/op` line; ok is false for headers, PASS, ok … lines.
func parseBenchLine(line string) (name string, m metric, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metric{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", metric{}, false
	}
	m.n = 1
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", metric{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.ns = v
			seen = true
		case "B/op":
			m.bytes = v
		case "allocs/op":
			m.allocs = v
			m.hasMem = true
		}
	}
	return stripProcSuffix(fields[0]), m, seen
}

// parseBench averages the repeated runs of each benchmark in one
// `go test -bench` output stream.
func parseBench(lines []string) map[string]metric {
	out := map[string]metric{}
	for _, line := range lines {
		name, m, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		acc, seen := out[name]
		if !seen || m.bytes < acc.bytesLo {
			acc.bytesLo = m.bytes
		}
		acc.bytesHi = max(acc.bytesHi, m.bytes)
		acc.ns += m.ns
		acc.bytes += m.bytes
		acc.allocs += m.allocs
		acc.hasMem = acc.hasMem || m.hasMem
		acc.n += m.n
		out[name] = acc
	}
	for name, acc := range out {
		acc.ns /= float64(acc.n)
		acc.bytes /= float64(acc.n)
		acc.allocs /= float64(acc.n)
		out[name] = acc
	}
	return out
}

func loadBench(path string) (map[string]metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	recs := parseBench(lines)
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	return recs, nil
}

// result is the outcome of one guard comparison.
type result struct {
	lines    []string
	failures []string
	checked  int
}

func guarded(name string, prefixes []string) bool {
	for _, p := range prefixes {
		p = strings.TrimSpace(p)
		if p != "" && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// compare checks every guarded head benchmark against the baseline:
// allocs/op or B/op beyond the threshold is a failure, ns/op beyond it
// a warning, and guarded baseline benchmarks missing from the head run
// warn as lost coverage. B/op is not gated, only warned on, where the
// baseline's own runs spread wider than the threshold.
func compare(base, head map[string]metric, prefixes []string, threshold float64) result {
	var res result
	names := make([]string, 0, len(head))
	for name := range head {
		if guarded(name, prefixes) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := head[name]
		b, ok := base[name]
		if !ok {
			res.lines = append(res.lines, fmt.Sprintf("WARN  %s: no baseline entry", name))
			continue
		}
		res.checked++
		if b.hasMem && h.hasMem {
			failed := false
			for _, m := range []struct {
				unit               string
				base, head, spread float64
			}{
				{"allocs/op", b.allocs, h.allocs, 0},
				{"B/op", b.bytes, h.bytes, (b.bytesHi - b.bytesLo) / b.bytes},
			} {
				if m.base <= 0 {
					continue
				}
				ratio := m.head / m.base
				verdict, note := "ok  ", ""
				if m.spread > threshold {
					note = fmt.Sprintf(" — baseline runs spread %.0f%%, not gated", m.spread*100)
				}
				if ratio > 1+threshold {
					verdict = "FAIL"
					if note != "" {
						verdict = "WARN"
					}
				}
				failed = failed || verdict == "FAIL"
				res.lines = append(res.lines, fmt.Sprintf("%s  %s: %s %.1f → %.1f (%+.1f%%)%s",
					verdict, name, m.unit, m.base, m.head, (ratio-1)*100, note))
			}
			if failed {
				res.failures = append(res.failures, name)
			}
		}
		if b.ns > 0 {
			ratio := h.ns / b.ns
			if ratio > 1+threshold {
				res.lines = append(res.lines, fmt.Sprintf("WARN  %s: ns/op %.0f → %.0f (%+.1f%%) — timing only, not fatal",
					name, b.ns, h.ns, (ratio-1)*100))
			}
		}
	}
	for name := range base {
		if guarded(name, prefixes) {
			if _, ok := head[name]; !ok {
				res.lines = append(res.lines, fmt.Sprintf("WARN  %s: guarded baseline benchmark missing from head run", name))
			}
		}
	}
	sort.Strings(res.lines)
	return res
}
