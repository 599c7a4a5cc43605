#!/usr/bin/env bash
# gprof lane: build lattice_bench with -pg and write a flat profile and a
# call graph for each benchmark workload.
#
#   scripts/profile.sh [--workload NAME] [--seconds S] [--seed N]
#
# Configures benchmark/ (its standalone CMake project) into build-profile/
# with the compiler and linker flag -pg passed on the command line, so no
# file under benchmark/ changes. Each workload runs untraced in
# build-profile/<workload>/, where gmon.out lands, and the script writes
# flat.txt (gprof -p) and callgraph.txt (gprof -q) next to it. --seconds
# (default 5) is the untraced run length lattice_bench measures for.
#
# gprof samples at 100 Hz and charges each sample to the function it lands
# in, so tiny functions called millions of times read high: confirm a
# hotspot with a wall timer (benchmark/run.sh --trace 1) before acting on
# it. The top-level `profile` preset builds the tests and bench/ programs
# with the same flag.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-profile"
workloads=(volunteer_1m recovery_500k portal_1m_users garli_search)
seconds=5
seed=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("${2:?--workload needs a value}"); shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) echo "profile.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
command -v gprof >/dev/null || { echo "profile.sh: gprof not found" >&2; exit 1; }

mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg \
    >"$build/configure.log" 2>&1 ||
    { echo "profile.sh: configure failed (see $build/configure.log)" >&2; exit 1; }
fi
cmake --build "$build" --target lattice_bench -j 2 >"$build/build.log" 2>&1 ||
  { echo "profile.sh: build failed (see $build/build.log)" >&2; exit 1; }

status=0
for w in "${workloads[@]}"; do
  out="$build/$w"
  mkdir -p "$out"
  rm -f "$out/gmon.out"
  if ! (cd "$out" && "$build/lattice_bench" --workload "$w" --seed "$seed" \
          --seconds "$seconds" --trace 0 \
          --fault-plan "$root/benchmark/recovery_500k.ini" >run.log 2>&1); then
    echo "profile.sh: $w failed (see $out/run.log)" >&2
    status=1
    continue
  fi
  gprof -b -p "$build/lattice_bench" "$out/gmon.out" >"$out/flat.txt"
  gprof -b -q "$build/lattice_bench" "$out/gmon.out" >"$out/callgraph.txt"
  echo "== $w: $out/flat.txt"
  sed -n '1,14p' "$out/flat.txt"
done
exit "$status"
