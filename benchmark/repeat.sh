#!/usr/bin/env bash
# Run the benchmark N times per workload and summarize each end-to-end
# metric: median, first and third quartile (Python's
# statistics.quantiles(n=4)), the interquartile spread as a share of the
# median, and the sample count.
#
#   benchmark/repeat.sh N [--workload NAME] [--seed N | --vary-seed]
#
# Each run is exactly `run.sh --workload NAME --seed N --trace 0`, so it
# measures for BENCHMARK.json's run_seconds like any other run. --seed fixes
# one seed for every run (default 1), so simulated-time metrics must repeat
# exactly and only host time varies. --vary-seed uses seeds 1..N instead,
# which also measures how much the generated inputs move each metric. Each
# run's result line is kept in build-bench/repeat-<workload>.jsonl.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build-bench"

runs="${1:?usage: repeat.sh N [--workload NAME] [--seed N | --vary-seed]}"
shift
workloads=(volunteer_1m recovery_500k portal_1m_users garli_search)
seed=1
vary=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("${2:?--workload needs a value}"); shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --vary-seed) vary=1; shift ;;
    *) echo "repeat.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

status=0
for w in "${workloads[@]}"; do
  results="$build/repeat-$w.jsonl"
  mkdir -p "$build"
  : >"$results.tmp"
  for ((i = 1; i <= runs; i++)); do
    s="$seed"
    [[ "$vary" == 1 ]] && s="$i"
    if ! "$here/run.sh" --workload "$w" --seed "$s" --trace 0 |
        tail -n 1 >>"$results.tmp"; then
      echo "repeat.sh: $w run $i (seed $s) failed" >&2
      status=1
    fi
  done
  mv "$results.tmp" "$results"
  echo "=== $w: $runs runs, seed $([[ "$vary" == 1 ]] && echo "1..$runs" || echo "$seed")"
  python3 - "$results" <<'EOF' || status=1
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
bad = [r for r in rows if not r["correct"] or r["failed"]]
print(f"{'metric':<24} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
      f"{'iqr/med':>8} {'n':>3}")
for name, first in rows[0]["metrics"].items():
    values = [r["metrics"][name]["value"] for r in rows]
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    spread = (q3 - q1) / median if median else float("nan")
    print(f"{name:<24} {first['unit']:>6} {median:>14.6g} {q1:>14.6g} "
          f"{q3:>14.6g} {spread:>8.4f} {len(values):>3}")
if bad:
    print(f"{len(bad)} run(s) reported failed checks or operations")
    sys.exit(1)
EOF
done
exit "$status"
