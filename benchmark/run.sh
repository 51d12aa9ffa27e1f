#!/bin/bash
# Builds the benchmark from source and runs it, keeping everything the
# toolchain writes inside the checkout (.bench_build/). BENCHMARK.json
# names this script as the command; arguments pass through:
#
#   bash benchmark/run.sh --workload attack_mix --seed 1 --seconds 20 --trace 0
#
# From a developer checkout `go run ./benchmark ...` does the same with the
# user's own build cache.
set -eu
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command starts a detached telemetry
# child that outlives it; mode "off" keeps the build to processes that have
# ended when `go build` returns.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/xsec-benchmark" ./benchmark
exec "$build/xsec-benchmark" "$@"
