#!/usr/bin/env bash
# Builds the serve-hour benchmark from source and runs it with the
# arguments given, from the root of a checkout:
#
#   bash servebench/run.sh --workload refit-storm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, the WAL scratch
# directories and the trace JSONL.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out"
# The go command keeps its caches, module path and telemetry counters
# under these directories; all of them stay in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -out "$out" "$@"
