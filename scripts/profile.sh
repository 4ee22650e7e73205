#!/usr/bin/env bash
# profile.sh — capture CPU and allocation profiles of the fleet campaign
# hot path (the benchmark behind the UEs/s headline number) so chunk-kernel
# perf work starts from evidence, not guesses. Artifacts land in
# profiles/ (gitignored): cpu.pprof, mem.pprof, the bench binary needed to
# symbolize them, and pre-rendered top-30 text reports.
#
# Usage:
#   scripts/profile.sh [outdir]          # default outdir: profiles/
#
# Environment:
#   BENCH       benchmark regexp to profile (default BenchmarkFleetCampaign$)
#   BENCHTIME   go test -benchtime value (default 3s: enough samples for a
#               stable line-level profile of the 8192-UE single-shard
#               campaign, 37-39 ms/op on a 2-vCPU Xeon with Go 1.24)
#
# Inspect interactively with:
#   go tool pprof profiles/fleet.test profiles/cpu.pprof
#   go tool pprof -sample_index=alloc_objects profiles/fleet.test profiles/mem.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="${1:-profiles}"
bench="${BENCH:-BenchmarkFleetCampaign\$}"
benchtime="${BENCHTIME:-3s}"
mkdir -p "$outdir"

go test ./internal/fleet -run '^$' -bench "$bench" -benchtime "$benchtime" \
    -cpuprofile "$outdir/cpu.pprof" -memprofile "$outdir/mem.pprof" \
    -o "$outdir/fleet.test"

go tool pprof -top -nodecount=30 "$outdir/fleet.test" "$outdir/cpu.pprof" \
    > "$outdir/cpu.top.txt"
go tool pprof -top -nodecount=30 -sample_index=alloc_space \
    "$outdir/fleet.test" "$outdir/mem.pprof" > "$outdir/mem.top.txt"

echo "" >&2
echo "profiles written to $outdir/ — hottest CPU symbols:" >&2
sed -n '1,12p' "$outdir/cpu.top.txt" >&2
