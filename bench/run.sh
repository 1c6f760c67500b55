#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload search-exec --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the toolchain's configuration and telemetry, the
# binaries and everything a run writes stay in .bench_build/ at the root.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" -out "$out" "$@"
