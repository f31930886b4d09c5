#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload; every argument is passed on:
#
#   bash perfbench/run.sh --workload fit-3way --seed 1 --seconds 30 --trace 0
#
# Build cache, inputs and results stay under .bench_build/ at the checkout
# root. Without the repository's sources beside it the build fails, and so
# does the run.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
