#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build leaves behind (the binary, the go
# build cache) goes under .bench_build, so a run reads and writes
# nothing outside the checkout; run from the root of the repository.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -o "$build/nasd-bench" ./bench
exec "$build/nasd-bench" "$@"
