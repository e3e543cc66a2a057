#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the repository root:
#
#   bash ffisbench/run.sh --workload fig7_grid --seed 2021 --seconds 12 --trace 0
#
# The Go build cache, the binary, and every temporary file (results stores
# of the distributed workload) stay under .bench_build/ at the root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd ffisbench && go build -o "$out/ffisbench" .)
exec "$out/ffisbench" "$@"
