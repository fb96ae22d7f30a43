#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash e2ebench/run.sh --workload alloc-60 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays in
# .bench_build/ under the checkout root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/home"

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	export GOCACHE="$out/gocache" GOPATH="$out/home/go" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go -C "$root/e2ebench" build -o "$out/e2ebench" .
)
E2EBENCH_COMMIT="$commit" exec "$out/e2ebench" "$@"
