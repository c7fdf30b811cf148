#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes stays in .bench_build/ under that root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
