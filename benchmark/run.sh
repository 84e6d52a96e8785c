#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the Go
# toolchain writes (build cache, module cache, the binary) stays under
# .bench_build, so a run neither needs $HOME nor leaves files outside the
# checkout. Arguments are passed through to the benchmark.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/bagualu-benchmark" ./benchmark
exec "$build/bagualu-benchmark" "$@"
