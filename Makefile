# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race bench benchjson benchbase benchcmp benchguard repro fuzz cover fmt vet

# Packages with guarded hot-path benchmarks: the root suite (MATCH,
# paths, construction), the binding-table operators, the CSR snapshot
# build, the path-search kernels, the write-ahead log
# append path, and whole requests through the HTTP handler.
BENCH_PKGS := . ./internal/bindings ./internal/csr ./internal/obs ./internal/rpq ./internal/wal ./internal/server

all: build test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: runs the root-package and
# binding-table suites and writes BENCH_<date>.json (name, ns/op,
# B/op, allocs/op per line).
benchjson:
	go test -bench . -benchmem -run '^$$' $(BENCH_PKGS) | go run ./cmd/benchjson

# Benchmark comparison workflow: `make benchbase` on the baseline
# commit writes bench.base.txt, then `make benchcmp` on the changed
# tree benchmarks again and compares (via benchstat when installed,
# plain side-by-side otherwise). BENCH narrows the benchmark regexp,
# e.g. BENCH=BenchmarkParallelMatch.
BENCH ?= .

benchbase:
	go test -bench='$(BENCH)' -benchmem -count=5 -run '^$$' $(BENCH_PKGS) | tee bench.base.txt

benchcmp:
	go test -bench='$(BENCH)' -benchmem -count=5 -run '^$$' $(BENCH_PKGS) | tee bench.head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench.base.txt bench.head.txt; \
	else \
		echo '--- benchstat not installed; raw baseline vs head ---'; \
		grep '^Benchmark' bench.base.txt; echo '---'; grep '^Benchmark' bench.head.txt; \
	fi

# Regression guard over the committed baseline: allocation regressions
# (allocs/op or B/op) beyond 20% on the guarded hot-path benchmarks (joins, parallel
# match, columnar scans, plan-cache and prepared-eval paths, prepared
# point lookups, path patterns and the k-shortest kernel, chains
# started mid-way, grouping
# (aggregating SELECT, SELECT DISTINCT, CONSTRUCT GROUP), the snapshot
# build after a mutation, WAL append alone and under concurrent writers,
# whole HTTP requests, the paper's correlated subqueries) fail,
# timing regressions warn (allocs/op and B/op are nearly
# machine-independent, ns/op is not). CI calls this target, so the list
# lives here only.
benchguard:
	go test -bench='BenchmarkJoin|BenchmarkParallelMatch|BenchmarkFilteredScan|BenchmarkRepeatedEval|BenchmarkPreparedEval|BenchmarkPreparedPoint|BenchmarkPathPattern|BenchmarkMatchStart|BenchmarkGrouping|BenchmarkKShortest|BenchmarkMutateThenRead|BenchmarkConcurrentRead|BenchmarkSnapshotDelta|BenchmarkWALAppend|BenchmarkWALConcurrentAppend|BenchmarkReply|BenchmarkCorrelated' -benchmem -count=3 -run '^$$' $(BENCH_PKGS) | tee bench.head.txt
	go run ./cmd/benchguard -base bench.base.txt -head bench.head.txt

repro:
	go run ./cmd/gcore-repro
	go run ./cmd/gcore-repro -complexity

# Every fuzz target of the module, one minute each (go test -fuzz takes
# one target and one package per run).
fuzz:
	go test -fuzz=FuzzParse -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzSnapshot -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzEval -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzParamInline -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzIncrementalSnapshot -fuzztime=60s -run '^$$' .
	go test -fuzz=FuzzPropColumns -fuzztime=60s -run '^$$' ./internal/csr
	go test -fuzz=FuzzGroupsInjective -fuzztime=60s -run '^$$' ./internal/bindings
	go test -fuzz=FuzzValueJSON -fuzztime=60s -run '^$$' ./internal/value

cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

fmt:
	gofmt -l .

vet:
	go vet ./...
