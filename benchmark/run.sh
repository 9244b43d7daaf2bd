#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. The binary, Go's build cache and its temporary
# files all live under .bench_build/ at the root of the checkout, and the
# program writes only to benchmark/out/, so nothing outside the checkout
# is touched. Arguments are passed through (see README.md).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/noftl-benchmark" .
exec "$build/noftl-benchmark" -out "$here/out" "$@"
