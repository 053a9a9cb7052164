#!/usr/bin/env bash
# Builds the step-loop benchmark from this checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash stepbench/run.sh --workload rp-walk --seed 1 --seconds 40 --trace 0
#
# Every build and run artifact (Go build cache, binary, generated CSV
# inputs, WAL directories, digest records) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/stepbench" build -o "$out/stepbench" . >&2
exec "$out/stepbench" -root "$root" "$@"
