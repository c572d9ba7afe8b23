#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash idgperf/run.sh --workload dense-cycle --seed 1 --seconds 12 --trace 0
# Everything the build writes stays under .bench_build/ in the current
# directory: the Go build cache, the module cache, the go command's
# per-user config (telemetry counters) and the binary.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/idgperf"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOWORK=off
if ! (cd "$root/idgperf" && go build -o "$out/idgperf" .) >&2; then
	echo "idgperf: build failed" >&2
	exit 1
fi
exec "$out/idgperf" "$@"
