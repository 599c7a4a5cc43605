#!/usr/bin/env bash
# Build lattice_bench from this checkout's sources and run the benchmark.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# With --workload, runs that one workload and passes its exit code through;
# the last line of standard output is the result JSON. Without it, runs
# every workload in turn and exits non-zero if any correctness check failed.
#
# The run length is BENCHMARK.json's run_seconds; --seconds exists so a
# caller that already read it can pass it on. --trace 1 reports the
# per-layer metrics instead of the end-to-end ones and writes the traced
# pass's spans to build-bench/<workload>.layers.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/build-bench"
workloads=(volunteer_1m recovery_500k portal_1m_users garli_search)

workload=""
seed=1
seconds=""
trace=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")"
fi

# Build (a no-op when up to date). The log stays out of standard output so
# the result JSON remains the last line; the compiler's temporary files stay
# inside the build tree.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  if ! cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release \
      >"$build/configure.log" 2>&1; then
    echo "run.sh: configure failed (see $build/configure.log):" >&2
    tail -n 20 "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" --target lattice_bench -j 2 \
    >"$build/build.log" 2>&1; then
  echo "run.sh: build failed (see $build/build.log):" >&2
  tail -n 20 "$build/build.log" >&2
  exit 1
fi

git_rev=unknown
if [[ -e "$root/.git" ]]; then
  git_rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

run_one() {
  "$build/lattice_bench" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --fault-plan "$here/recovery_500k.ini" \
    --layers-out "$build/$1.layers.json" --git-rev "$git_rev"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
  exit $?
fi

failed=0
for w in "${workloads[@]}"; do
  echo "=== $w"
  run_one "$w" || failed=1
done
exit "$failed"
