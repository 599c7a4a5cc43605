#!/usr/bin/env bash
# Bench-gate lint (ctest test `check_bench`): the frozen performance
# numbers recorded in BENCH_likelihood.json are CI gates, not prose — a
# re-record that regresses a headline result must fail here instead of
# drifting silently. Records are dispatched on their "bench" key. Gates
# (docs/PERFORMANCE.md):
#
#   likelihood:
#   * vectorized kernels: vector_speedup (best supported ISA tier vs the
#     scalar oracle on the full-eval benchmark) >= 3x;
#   * the scalar oracle itself must not regress: scalar_full_ns_per_eval
#     within 15% of the frozen pre-vectorization 937669 ns/eval;
#   * island_ga_identical == true — the parallel island GA produced
#     bit-identical results across 1/2/4 pool threads and across ISA
#     tiers (the determinism contract of DESIGN.md §14);
#   * island_ga_ns_{1,2,4}t present and positive (the island GA's wall
#     clock at 1, 2 and 4 pool threads);
#   * forest_fit_ns_150_rows, forest_fit_ns_500_rows and forest_predict_ns
#     present and positive: the runtime estimator's forest (300 trees,
#     mtry 5, min_leaf 2) fitted on the paper's 150-row corpus and on a
#     refit-sized 500-row one, and one 300-tree prediction.
#
#   every record:
#   * host_nproc (positive), host_isa, host_compiler and host_build_type
#     name the host that produced it, so records compare like with like.
#
# Usage: check_bench.sh [bench-json ...]
set -euo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
if [ ${#benches[@]} -eq 0 ]; then
  benches=(BENCH_likelihood.json)
fi
fail=0
for bench in "${benches[@]}"; do
  if [ ! -f "$bench" ]; then
    echo "check_bench: missing $bench (frozen bench record)" >&2
    fail=1
    continue
  fi

  python3 - "$bench" <<'EOF' || fail=1
import json
import sys

MIN_VECTOR_SPEEDUP = 3.0
SCALAR_BASELINE_NS = 937669.0   # pre-vectorization full_ns_per_eval
SCALAR_TOLERANCE = 0.15         # single-core CI timing is noisy

path = sys.argv[1]
with open(path) as f:
    record = json.load(f)

fail = 0

def get(key):
    value = record.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        print(f"check_bench: {path} is missing numeric key '{key}'")
        return None
    return float(value)

kind = record.get("bench")

nproc = get("host_nproc")
if nproc is None or nproc <= 0:
    print(f"check_bench: {path} does not record a positive host_nproc")
    fail = 1
for key in ("host_isa", "host_compiler", "host_build_type"):
    value = record.get(key)
    if not isinstance(value, str) or not value:
        print(f"check_bench: {path} does not name its host ({key})")
        fail = 1

if kind == "likelihood":
    speedup = get("vector_speedup")
    if speedup is None:
        fail = 1
    elif speedup < MIN_VECTOR_SPEEDUP:
        print(
            f"check_bench: vector_speedup = {speedup:.2f}x is below the "
            f"frozen >= {MIN_VECTOR_SPEEDUP}x kernel gate"
        )
        fail = 1
    else:
        print(
            f"check_bench: vector kernel speedup {speedup:.2f}x "
            f">= {MIN_VECTOR_SPEEDUP}x  OK"
        )

    scalar = get("scalar_full_ns_per_eval")
    if scalar is None:
        fail = 1
    elif scalar > SCALAR_BASELINE_NS * (1.0 + SCALAR_TOLERANCE):
        print(
            f"check_bench: scalar_full_ns_per_eval = {scalar:.0f} regresses "
            f"the frozen {SCALAR_BASELINE_NS:.0f} ns/eval scalar oracle by "
            f"more than {SCALAR_TOLERANCE:.0%}"
        )
        fail = 1
    else:
        print(
            f"check_bench: scalar oracle {scalar:.0f} ns/eval within "
            f"{SCALAR_TOLERANCE:.0%} of {SCALAR_BASELINE_NS:.0f}  OK"
        )

    identical = record.get("island_ga_identical")
    if identical is not True:
        print(
            "check_bench: island_ga_identical is not true — the island GA "
            "must be bit-identical across 1/2/4 pool threads and ISA tiers"
        )
        fail = 1
    else:
        print("check_bench: island GA bit-identical across threads/tiers  OK")

    for key in ("island_ga_ns_1t", "island_ga_ns_2t", "island_ga_ns_4t",
                "forest_fit_ns_150_rows", "forest_fit_ns_500_rows",
                "forest_predict_ns"):
        ns = get(key)
        if ns is None or ns <= 0:
            print(f"check_bench: {key} missing or not positive")
            fail = 1

else:
    print(f"check_bench: {path} has unknown bench kind {kind!r}")
    fail = 1

sys.exit(fail)
EOF
done
exit "$fail"
