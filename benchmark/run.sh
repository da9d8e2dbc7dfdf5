#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload serve-read --seed 42 --seconds 20 --trace 0
#
# The build cache, the binary and every temporary file the run writes stay
# under .bench_build at the repository root (listed in .gitignore).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go -C "$root/benchmark" build -o "$build/siot-benchmark" .
cd "$root"
exec "$build/siot-benchmark" "$@"
