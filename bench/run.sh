#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository
# root:
#
#   bash bench/run.sh --workload warm-explore --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the bench binary, the programs under test and every
# scratch file stay under .bench_build/ in the root, and the toolchain is
# kept offline.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
