#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload study|city|service --seed N --seconds S --trace 0|1
#
# Run from the repository root. Every build product, cache and scratch file
# stays under ./.bench_build, so the run reads and writes only inside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

# Keep the Go build cache, module cache and tool state inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
# No network: the module needs nothing beyond the standard library and the
# repository itself.
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
