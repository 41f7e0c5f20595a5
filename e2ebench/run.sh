#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload pipeline-mem --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --steady 10        # two sets of runs, compared
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
(cd "$root/e2ebench" && go build -trimpath -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --commit "$commit" --scratch "$out/run" "$@"
