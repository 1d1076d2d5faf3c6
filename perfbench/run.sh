#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload rule_fire --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, config)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
