#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every flag is passed through, for example
#
#   bash bench/run.sh --workload atpg-paper --seed 1 --trace 0
#   bash bench/run.sh --seed 1 --out results.json     # all four workloads
#   bash bench/run.sh compare parent/*.json change/*.json
#
# Why a wrapper and not `go run`: by default the go command keeps its
# build cache, module cache and temporary files under $HOME and /tmp. A
# benchmark run must read and write nothing outside the checkout it runs
# in, so this script points all of them, and the binary, at .bench_build/
# in the current directory. GOTOOLCHAIN=local keeps the go command from
# fetching another toolchain.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
