#!/usr/bin/env bash
# End-to-end determinism check (ctest test `determinism_e2e`): every
# scenarios/*.ini runs twice through volunteer_grid. Each pair must give
# bit-identical stdout, metrics snapshot and trace: every draw comes from
# seeded RNGs, the sim clock and ordered state. (Thread counts and kernel
# ISA tiers are covered by test_ga_pinned and its LATTICE_FORCE_ISA ctest
# entries, which hold GA searches to recorded golden bits.) The one
# sanctioned nondeterminism is wall-clock observation, confined to the
# sim.handler_wall_us histogram and the trace's pid-2 ("wall-clock")
# process, which are filtered before comparing.
#
# With --reference=<volunteer_grid> each scenario also runs once through
# the reference binary (e.g. a build of the parent commit), and its stdout,
# metrics and trace must match the tested binary's under the same filter:
# the cross-build check for changes that claim bit-identical behaviour.
#
# Usage: determinism.sh [--reference=<volunteer_grid>]
#                       <volunteer_grid-binary> [workdir]
set -euo pipefail

reference=""
args=()
for arg in "$@"; do
  case $arg in
    --reference=*) reference=${arg#--reference=} ;;
    *) args+=("$arg") ;;
  esac
done
set -- ${args[@]+"${args[@]}"}

usage="usage: determinism.sh [--reference=<volunteer_grid>] <volunteer_grid-binary> [workdir]"
bin=${1:?$usage}
work=${2:-$(mktemp -d)}
mkdir -p "$work"
scenarios="$(cd "$(dirname "$0")/../scenarios" && pwd)"

runs=0
run() {  # [exe=<binary>] run <tag> <scenario-file> [volunteer_grid flags...]
  local tag=$1 file=$2
  shift 2
  runs=$((runs + 1))
  "${exe:-$bin}" --scenario="$file" "$@" \
         --metrics-out="$work/m-$tag.json" \
         --trace-out="$work/t-$tag.json" > "$work/out-$tag.raw"
  # stdout echoes the per-run output paths; normalize them so the
  # comparison sees only scenario results.
  sed -e "s#$work#WORK#g" -e "s#-$tag\.json#-RUN.json#g" \
      "$work/out-$tag.raw" > "$work/out-$tag.txt"
  # Deterministic views: drop the wall-clock histogram line and every
  # wall-clock-process trace line (metadata + spans).
  grep -v 'handler_wall_us' "$work/m-$tag.json" > "$work/m-$tag.det"
  grep -v '"pid": 2' "$work/t-$tag.json" > "$work/t-$tag.det"
}

fail=0
check() {  # check <tag-a> <tag-b> <what>
  local a=$1 b=$2 what=$3 view x y
  for view in out-@.txt m-@.det t-@.det; do
    x=${view/@/$a}
    y=${view/@/$b}
    if ! cmp -s "$work/$x" "$work/$y"; then
      echo "determinism: MISMATCH $what ($x vs $y)" >&2
      diff "$work/$x" "$work/$y" | head -20 >&2 || true
      fail=1
    fi
  done
}

for file in "$scenarios"/*.ini; do
  name=$(basename "$file" .ini)
  run "$name-a" "$file"
  run "$name-b" "$file"
  check "$name-a" "$name-b" "$name across identical runs"
  if [ -n "$reference" ]; then
    exe=$reference run "$name-ref" "$file"
    check "$name-a" "$name-ref" "$name against the reference binary"
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "determinism: $runs runs bit-identical" \
       "(metrics sha256 $(cat "$work"/m-*-a.det | sha256sum | cut -c1-12)…)"
  if [ -n "$reference" ]; then
    echo "determinism: every scenario byte-identical to $reference"
  fi
fi
exit "$fail"
