#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything Go writes (build cache, temporary files, the binary) stays
# under benchmark/out/build/ in the checkout (git-ignored by
# benchmark/.gitignore), so the run touches nothing outside.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/benchmark/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/neat-benchmark" ./benchmark
exec "$build/neat-benchmark" "$@"
