#!/usr/bin/env bash
# Builds ocbbench from source and runs it with the given arguments, from the
# root of a checkout. Everything the build and the run write — Go's build
# cache and telemetry counters, temporary files, waldisk's data directory —
# stays under .bench_build in that checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmarks" && go build -o "$build/ocbbench" ./ocbbench)
cd "$root"
exec "$build/ocbbench" "$@"
