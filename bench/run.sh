#!/usr/bin/env bash
# BENCHMARK.json's command: build gcoreload (which builds gcored) and
# run it with the arguments given. The Go build cache and the binaries
# stay inside the checkout, under .bench_build; so does the go
# command's own configuration directory (it follows XDG_CONFIG_HOME).
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d cmd/gcored ]; then
	# Checked before the go command is started at all: nothing to build.
	echo "bench/run.sh: $PWD holds no gcore module (go.mod, cmd/gcored): nothing to measure" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# On a configuration directory it has not seen before, the go command
# starts a detached child of itself to process telemetry counters, and
# that child can outlive this script. Telemetry off: no child, no
# counter files.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bin/gcoreload" ./bench/gcoreload
exec "$build/bin/gcoreload" "$@"
