#!/usr/bin/env bash
# Builds cooper-bench and cooperd from this checkout and runs the benchmark.
# Everything it writes stays inside the checkout: the Go build cache and the
# binaries under .bench_build/, results and traces under benchmark/out/.
#
#   bash benchmark/run.sh --workload wire-batch --seed 7 --seconds 10 --trace 0
#   bash benchmark/run.sh -sets 2 -runs 5          # A/A comparison
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/go-cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local

go build -o "$build/bin/cooperd" ./cmd/cooperd
go -C benchmark build -o "$build/bin/cooper-bench" .
exec "$build/bin/cooper-bench" -cooperd "$build/bin/cooperd" "$@"
