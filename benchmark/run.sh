#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping every
# file the build writes (binary, Go build cache, temporary files) inside the
# checkout under .bench_build/. Arguments go to the benchmark unchanged.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
