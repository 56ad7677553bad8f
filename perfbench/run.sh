#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash perfbench/run.sh --workload hier_pipeline --seed 1 --seconds 10 --trace 0
# Build output and the Go build cache stay under .bench_build/ in the
# current directory; nothing is fetched (the module has no dependencies
# beyond the repository itself).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTMPDIR="$build" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOPATH="$build/gopath"
go build -C "$here" -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
