#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root. Every build and run artifact stays under .bench_build/.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
