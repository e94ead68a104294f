#!/usr/bin/env bash
# bench.sh — run the benchmark suite with -benchmem and record the results as
# a JSON snapshot (BENCH_<date>.json in the repo root), seeding the repo's
# performance trajectory: one snapshot per perf-relevant PR makes regressions
# and wins diffable. After writing the snapshot, it diffs against the latest
# committed BENCH_*.json and prints per-benchmark time/alloc deltas.
#
# The suite covers every package, including the serving layer's end-to-end
# request-throughput benchmarks (BenchmarkServeQuery and its WAL-backed
# sibling BenchmarkServeQueryDurable in internal/serve) and the durable
# ledger's group-commit amortization pair (BenchmarkWALAppendSerial vs
# BenchmarkBatcherSubmitWAL in internal/ledger).
#
# Usage:
#   scripts/bench.sh                 # full suite, default benchtime
#   BENCHTIME=10x scripts/bench.sh   # bound per-benchmark iterations
#   BENCH='AlgoMWEM|SweepSerial' scripts/bench.sh   # subset
#   BENCH=ServeQuery scripts/bench.sh               # serving hot path (both
#                                                   # in-memory and durable)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
pattern="${BENCH:-.}"
out="BENCH_$(date +%Y%m%d).json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" ./... | tee "$raw"

# Convert `go test -bench` lines into a JSON array. Fields absent from a line
# (e.g. custom -ReportMetric rows without -benchmem columns) are omitted.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [", date, benchtime
    n = 0
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    line = sprintf("    {\"name\": \"%s\", \"iterations\": %s", name, iters)
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_.-]/, "_", unit)
        line = line sprintf(", \"%s\": %s", unit, $i)
    }
    line = line "}"
    if (n++) printf ","
    printf "\n%s", line
}
END {
    printf "\n  ],\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\"\n}\n", goos, goarch, cpu
}' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"

# Diff against the latest committed snapshot (the newest BENCH_*.json tracked
# by git that holds a go test "benchmarks" list — perfbench A/B records do
# not — read at its last committed content so a same-day rerun that
# overwrites the file still diffs against the true baseline): per-benchmark
# ns/op and allocs/op ratios, so a perf PR's wins and regressions are visible
# at a glance.
base="$(git ls-files 'BENCH_*.json' | sort | xargs -r grep -l '"benchmarks": \[' | tail -1 || true)"
if [ -z "$base" ] || ! git cat-file -e "HEAD:$base" 2>/dev/null; then
    echo "no committed BENCH_*.json baseline to diff against"
    exit 0
fi
basejson="$(mktemp)"
trap 'rm -f "$raw" "$basejson"' EXIT
git show "HEAD:$base" > "$basejson"
echo
echo "delta vs committed $base (new/old; <1.00x is faster/leaner):"
python3 - "$basejson" "$out" <<'PYEOF' 2>/dev/null || awk -v b="$base" 'BEGIN{print "  (python3 unavailable; skipping delta table)"}'
import json, sys

def load(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}

old, new = load(sys.argv[1]), load(sys.argv[2])
rows = []
for name in new:
    if name not in old:
        rows.append((name, None, None))
        continue
    o, n = old[name], new[name]
    t = n["ns_per_op"] / o["ns_per_op"] if o.get("ns_per_op") else None
    a = None
    if o.get("allocs_per_op") and n.get("allocs_per_op") is not None:
        a = n["allocs_per_op"] / o["allocs_per_op"]
    rows.append((name, t, a))
for name, t, a in sorted(rows):
    ts = f"{t:7.2f}x" if t is not None else "    new "
    As = f"{a:7.2f}x" if a is not None else "       -"
    print(f"  {name:<55s} time {ts}  allocs {As}")
PYEOF
