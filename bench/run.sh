#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload paper-all --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files all
# stay in .bench_build/ under the root, so a run writes nothing outside
# the tree. Without the rest of the repository the build fails and so
# does the run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
