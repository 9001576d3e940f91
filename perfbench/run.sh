#!/usr/bin/env bash
# Builds the end-to-end fabric benchmark from this checkout's sources
# and runs it with the given flags:
#   bash perfbench/run.sh --workload wan-sdl --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache and span files stay under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp"
export GOWORK=off GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" -out "${out}" "$@"
