#!/usr/bin/env bash
# Builds chexmark from source into .bench_build and runs it with the given
# arguments, from the repository root:
#
#   bash bench/run.sh --workload spec-ptr --seed 1 --seconds 20 --trace 0
#
# Go's build cache, temporary files and settings are kept under
# .bench_build, so a run reads and writes nothing outside the checkout but
# the Go toolchain itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off

go -C bench build -o "$build/chexmark" ./cmd/chexmark
exec "$build/chexmark" -work "$build" "$@"
