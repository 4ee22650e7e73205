#!/usr/bin/env bash
# Builds the benchmark (fgbench) and fgservd from this tree into .bench_build
# and runs one workload:
#
#   bash perfbench/run.sh --workload battery-full --seed 1 --seconds 30 --trace 0
#
# It runs from the repository root wherever it is called from. The Go build
# cache, temporary files and every artifact stay under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/fgbench" .)
go build -o "$out/fgservd" ./cmd/fgservd
exec "$out/fgbench" "$@"
