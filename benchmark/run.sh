#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the root of the checkout (Go build cache
# included, so nothing is written outside the checkout) and runs it.
# In a directory without the repro module the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$root/.bench_build/graphbench-benchmark" .
cd "$root"
exec "$root/.bench_build/graphbench-benchmark" "$@"
