#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash wallbench/run.sh --workload wc-par --seed 42 --seconds 20 --trace 0
# Build outputs and the Go build cache stay in .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ -z "${WALLBENCH_COMMIT:-}" ]; then
	WALLBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export WALLBENCH_COMMIT
fi
(cd "$root/wallbench" && go build -buildvcs=false -o "$build/wallbench" .)
exec "$build/wallbench" "$@"
