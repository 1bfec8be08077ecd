#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments given.  Everything the Go toolchain and
# the benchmark write lands in .bench_build/ at the checkout's root, so a
# run touches nothing outside the checkout.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$bench")/.bench_build
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$bench" && go build -o "$build/jsbench" .)
exec "$build/jsbench" "$@"
