#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (Go's build cache, its temporary files, the
# toolchain's telemetry counters) stays under benchmark/out, so a run
# touches nothing outside its checkout.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="${GOFLAGS:-} -buildvcs=false"
XDG_CONFIG_HOME="$out/config" go build -o "$out/cage-benchmark" .
cd ..
exec benchmark/out/cage-benchmark "$@"
