#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload offline-solve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build and run artifact (Go build
# cache, temporary files, daemon cache directories, span dumps) stays under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOMODCACHE="$out/gomod"
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" "$@"
