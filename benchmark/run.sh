#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
# builds the benchmark from source, then runs it with the driver's
# arguments. Everything the build writes (Go build cache, temporary
# files, the binary) stays under .bench_build/ in the checkout, and
# everything the run writes under benchmark/out/.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOWORK=off GOENV=off
go build -C "$root/benchmark" -o "$build/rottnest-bench" . >&2
exec "$build/rottnest-bench" -out benchmark/out "$@"
