#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it, passing every
# argument on. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-run --seed 20060815 --seconds 15 --trace 0
#
# The binary, the Go build cache and the Go configuration directory live
# in .bench_build/ under the current directory, so a run reads and writes
# nothing outside the checkout, and GOPROXY=off keeps the build offline.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
