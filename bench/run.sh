#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the toolchain writes stays inside the checkout: the build
# cache, GOPATH and the binary all live under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/pmledger" .
exec "$build/pmledger" "$@"
