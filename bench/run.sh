#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#	bash bench/run.sh --workload live-abd-64b-pipe --seed 1 --seconds 20 --trace 0
#	bash bench/run.sh --seed 1            # every workload, one child process each
#	bash bench/run.sh --seed 1 --trace 1  # the traced run: per-layer budget
#	bash bench/run.sh -compare a.json b.json
#
# Everything the build leaves behind (binary, Go build cache) stays in
# .bench_build/ inside the checkout; the toolchain is pinned to the local one
# and the network is off, so a missing dependency fails instead of downloading.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -buildvcs=false -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
