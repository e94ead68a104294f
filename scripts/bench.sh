#!/usr/bin/env bash
# bench.sh — run the benchmark suite with -benchmem, COUNT times over, and
# record the results as a JSON snapshot (BENCH_<date>.json in the repo root),
# seeding the repo's performance trajectory: one snapshot per perf-relevant PR
# makes regressions and wins diffable. Each benchmark's entry holds the median
# of every reported unit over its runs, with the min and max ns/op beside the
# median, and the snapshot records the GOMAXPROCS the suite ran at. After
# writing the snapshot, it diffs the medians against the latest committed
# BENCH_*.json (an older single-run snapshot's value counts as its median)
# and prints per-benchmark time/alloc deltas. Names are matched without the
# -N suffix go test adds at GOMAXPROCS N > 1, and a benchmark whose two
# snapshots ran at different GOMAXPROCS gets a note in place of its ratios.
#
# The suite covers every package, including the serving layer's end-to-end
# request-throughput benchmarks (BenchmarkServeQuery and its WAL-backed
# sibling BenchmarkServeQueryDurable in internal/serve) and the durable
# ledger's group-commit amortization pair (BenchmarkWALAppendSerial vs
# BenchmarkBatcherSubmitWAL in internal/ledger).
#
# Usage:
#   scripts/bench.sh                 # full suite, default benchtime, 5 runs
#   BENCHTIME=10x scripts/bench.sh   # bound per-benchmark iterations
#   COUNT=10 scripts/bench.sh        # runs per benchmark (go test -count)
#   GOMAXPROCS=1 scripts/bench.sh    # match a snapshot recorded on one CPU
#   BENCH='AlgoMWEM|SweepSerial' scripts/bench.sh   # subset
#   BENCH=ServeQuery scripts/bench.sh               # serving hot path (both
#                                                   # in-memory and durable)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1s}"
count="${COUNT:-5}"
pattern="${BENCH:-.}"
# Set explicitly, so the snapshot can record it: go test's default is the
# number of CPUs the process may run on, which nproc reports.
procs="${GOMAXPROCS:-$(nproc)}"
out="BENCH_$(date +%Y%m%d).json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

GOMAXPROCS="$procs" go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" ./... | tee "$raw"

# Convert `go test -bench` lines into a JSON array, one entry per benchmark
# in first-seen order: the median of each unit over the benchmark's runs,
# plus the min and max ns/op. Units absent from a line (e.g. custom
# -ReportMetric rows without -benchmem columns) are omitted.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v benchtime="$benchtime" -v count="$count" -v procs="$procs" '
# stat sorts the values of unit u over the runs of benchmark n and returns
# their median, leaving the smallest and largest in lo and hi.
function stat(n, u,    k, i, j, v, a) {
    k = 0
    for (i = 1; i <= runs[n]; i++)
        if ((n, u, i) in val) a[++k] = val[n, u, i] + 0
    for (i = 2; i <= k; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
    lo = a[1]; hi = a[k]
    return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    n = $1
    if (!(n in runs)) order[++nb] = n
    r = ++runs[n]
    val[n, "iterations", r] = $2
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_.-]/, "_", unit)
        if (!((n, unit) in seen)) { seen[n, unit] = 1; units[n] = units[n] " " unit }
        val[n, unit, r] = $i
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"count\": %d,\n  \"gomaxprocs\": %d,\n  \"benchmarks\": [", date, benchtime, count, procs
    for (b = 1; b <= nb; b++) {
        n = order[b]
        line = sprintf("    {\"name\": \"%s\", \"runs\": %d, \"iterations\": %.10g", n, runs[n], stat(n, "iterations"))
        k = split(substr(units[n], 2), us, " ")
        for (i = 1; i <= k; i++) {
            line = line sprintf(", \"%s\": %.10g", us[i], stat(n, us[i]))
            if (us[i] == "ns_per_op")
                line = line sprintf(", \"ns_per_op_min\": %.10g, \"ns_per_op_max\": %.10g", lo, hi)
        }
        printf "%s\n%s}", (b > 1 ? "," : ""), line
    }
    printf "\n  ],\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\"\n}\n", goos, goarch, cpu
}' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"

# Diff against the latest committed snapshot (the newest BENCH_*.json tracked
# by git that holds a go test "benchmarks" list — perfbench A/B records do
# not — read at its last committed content so a same-day rerun that
# overwrites the file still diffs against the true baseline): per-benchmark
# median ns/op and allocs/op ratios (a single-run snapshot's value is its
# median), so a perf PR's wins and regressions are visible at a glance.
base="$(git ls-files 'BENCH_*.json' | sort | xargs -r grep -l '"benchmarks": \[' | tail -1 || true)"
if [ -z "$base" ] || ! git cat-file -e "HEAD:$base" 2>/dev/null; then
    echo "no committed BENCH_*.json baseline to diff against"
    exit 0
fi
basejson="$(mktemp)"
trap 'rm -f "$raw" "$basejson"' EXIT
git show "HEAD:$base" > "$basejson"
echo
echo "delta of medians vs committed $base (new/old; <1.00x is faster/leaner):"
python3 - "$basejson" "$out" <<'PYEOF' 2>/dev/null || awk -v b="$base" 'BEGIN{print "  (python3 unavailable; skipping delta table)"}'
import json, re, sys

def load(path):
    """Returns the snapshot's GOMAXPROCS and its benchmarks by name, with
    the -N suffix go test adds at GOMAXPROCS N > 1 stripped."""
    with open(path) as f:
        snap = json.load(f)
    benches = snap["benchmarks"]
    procs = snap.get("gomaxprocs")
    if procs is None:
        # Older snapshots did not record it: every name carries the same
        # -N at GOMAXPROCS N > 1, and none does at 1.
        ends = {m.group(1) if m else None for m in (re.search(r"-(\d+)$", b["name"]) for b in benches)}
        procs = int(ends.pop()) if len(ends) == 1 and None not in ends else 1
    suffix = f"-{procs}"
    strip = lambda n: n[: -len(suffix)] if procs > 1 and n.endswith(suffix) else n
    return procs, {strip(b["name"]): b for b in benches}

(oldp, old), (newp, new) = load(sys.argv[1]), load(sys.argv[2])
if oldp != newp:
    print(f"  (the baseline ran at GOMAXPROCS {oldp} and this run at {newp}, so no ratio is printed;")
    print(f"   rerun with GOMAXPROCS={oldp} scripts/bench.sh to compare)")
rows = []
for name in new:
    if name not in old:
        rows.append((name, "    new ", "       -"))
        continue
    if oldp != newp:
        rows.append((name, f"GOMAXPROCS {oldp}->{newp}", "       -"))
        continue
    o, n = old[name], new[name]
    ts = f"{n['ns_per_op'] / o['ns_per_op']:7.2f}x" if o.get("ns_per_op") else "       -"
    As = "       -"
    if o.get("allocs_per_op") and n.get("allocs_per_op") is not None:
        As = f"{n['allocs_per_op'] / o['allocs_per_op']:7.2f}x"
    rows.append((name, ts, As))
for name, ts, As in sorted(rows):
    print(f"  {name:<55s} time {ts}  allocs {As}")
PYEOF
