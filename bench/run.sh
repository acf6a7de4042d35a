#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, from
# the root of a checkout. Everything the build and the run write stays under
# .bench_build in the checkout: Go's build cache, temporary files, module path
# and the go command's own configuration and telemetry counters too.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
go build -C bench -ldflags "-X main.commit=$commit" -o "$build/clickbench" .
exec "$build/clickbench" "$@"
