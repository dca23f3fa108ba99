#!/usr/bin/env bash
# Builds the benchmark against the engine's sources in this checkout and
# runs it: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go's build cache and temporary files included), so the
# first run in a fresh checkout compiles the standard library too.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -f mdxopt.go ]; then
	echo "bench: $root holds no engine sources (go.mod, mdxopt.go): nothing to measure" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
