#!/usr/bin/env bash
# End-to-end determinism check (ctest test `determinism_e2e`): the PR 2
# obs-on/off guard, promoted to the binary level. Runs the volunteer_grid
# scenario (with the pooled-likelihood self-test enabled) four times —
# twice identically, once with a different thread-pool size, once with the
# likelihood-kernel ISA pinned to the scalar oracle
# (LATTICE_FORCE_ISA=scalar) — and demands bit-identical stdout, metrics
# snapshot, and trace.
#
# Wall-clock observations are the one sanctioned nondeterminism, and they
# are confined by construction: the sim.handler_wall_us histogram in the
# metrics snapshot, and pid-2 ("wall-clock" process) events in the trace.
# Exactly those are filtered before hashing; everything else must match.
#
# The fault-injection scenario (--fault-plan, docs/RESILIENCE.md) is held
# to the same bar: two runs under the committed fault_smoke plan must be
# bit-identical — fault schedules draw from the seeded sim RNGs, never
# from wall clock — and the fault/recovery counters must appear in the
# snapshot.
#
# The transfer-aware scenario (--net-profile, docs/NETWORKING.md) likewise:
# two identical runs must be bit-identical — transfer completion times come
# from epoch arithmetic on the sim clock, never from iteration order — and
# the net.* counters must appear in the snapshot.
#
# The multi-tenant portal scenario (--portal-users, DESIGN.md §15) closes
# the set: two identical 10^4-user heavy-tailed workload runs through
# admission control, quotas, and fair-share queue ordering must be
# bit-identical — arrival sampling, Pareto batch sizes, admission verdicts,
# and fair-share reorders all draw from seeded RNGs and ordered state —
# and the portal.admit_* / sched.fair_share_* counters must appear in the
# snapshot.
#
# Usage: determinism.sh <volunteer_grid-binary> [workdir]
set -euo pipefail

bin=${1:?usage: determinism.sh <volunteer_grid-binary> [workdir]}
work=${2:-$(mktemp -d)}
mkdir -p "$work"

run() {  # run <tag> <pool-threads>
  local tag=$1 threads=$2
  "$bin" --pool-threads="$threads" \
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

plan="$(cd "$(dirname "$0")" && pwd)/../scenarios/fault_smoke.ini"
run_fault() {  # run_fault <tag>
  local tag=$1
  "$bin" --fault-plan="$plan" \
         --metrics-out="$work/fm-$tag.json" > "$work/fout-$tag.raw"
  sed -e "s#$work#WORK#g" -e "s#-$tag\.json#-RUN.json#g" \
      -e "s#$plan#PLAN#g" "$work/fout-$tag.raw" > "$work/fout-$tag.txt"
  grep -v 'handler_wall_us' "$work/fm-$tag.json" > "$work/fm-$tag.det"
}

profile="$(cd "$(dirname "$0")" && pwd)/../scenarios/slow_link_smoke.ini"
run_net() {  # run_net <tag>
  local tag=$1
  "$bin" --net-profile="$profile" \
         --metrics-out="$work/nm-$tag.json" > "$work/nout-$tag.raw"
  sed -e "s#$work#WORK#g" -e "s#-$tag\.json#-RUN.json#g" \
      -e "s#$profile#PROFILE#g" "$work/nout-$tag.raw" > "$work/nout-$tag.txt"
  grep -v 'handler_wall_us' "$work/nm-$tag.json" > "$work/nm-$tag.det"
}

run_scalar() {  # run_scalar <tag>: ISA tier pinned to the portable oracle
  local tag=$1
  LATTICE_FORCE_ISA=scalar \
      "$bin" --pool-threads=2 \
             --metrics-out="$work/m-$tag.json" \
             --trace-out="$work/t-$tag.json" > "$work/out-$tag.raw"
  sed -e "s#$work#WORK#g" -e "s#-$tag\.json#-RUN.json#g" \
      "$work/out-$tag.raw" > "$work/out-$tag.txt"
  grep -v 'handler_wall_us' "$work/m-$tag.json" > "$work/m-$tag.det"
  grep -v '"pid": 2' "$work/t-$tag.json" > "$work/t-$tag.det"
}

run_portal() {  # run_portal <tag>: 10^4-user multi-tenant workload
  local tag=$1
  "$bin" --portal-users=10000 \
         --metrics-out="$work/pm-$tag.json" > "$work/pout-$tag.raw"
  sed -e "s#$work#WORK#g" -e "s#-$tag\.json#-RUN.json#g" \
      "$work/pout-$tag.raw" > "$work/pout-$tag.txt"
  grep -v 'handler_wall_us' "$work/pm-$tag.json" > "$work/pm-$tag.det"
}

run a 2
run b 2
run c 5
run_scalar e
run_fault a
run_fault b
run_net a
run_net b
run_portal a
run_portal b

fail=0
# The scheduler-scalability metrics must be present in the snapshot: the
# indexed matchmaking path is only proven live (and only comparable across
# PRs) if its counters appear here.
for metric in sched.match_candidates_scanned sched.match_eligible; do
  if ! grep -q "$metric" "$work/m-a.json"; then
    echo "determinism: metric '$metric' missing from metrics snapshot" >&2
    fail=1
  fi
done
check() {  # check <x> <y> <what>
  local x=$1 y=$2 what=$3
  if ! cmp -s "$work/$x" "$work/$y"; then
    echo "determinism: MISMATCH $what ($x vs $y)" >&2
    diff "$work/$x" "$work/$y" | head -20 >&2 || true
    fail=1
  fi
}

# Same binary, same inputs, run twice: everything must match.
check out-a.txt out-b.txt "stdout across identical runs"
check m-a.det m-b.det "metrics across identical runs"
check t-a.det t-b.det "trace across identical runs"
# Different pool size: thread count must be unobservable.
check out-a.txt out-c.txt "stdout across thread counts (2 vs 5)"
check m-a.det m-c.det "metrics across thread counts (2 vs 5)"
check t-a.det t-c.det "trace across thread counts (2 vs 5)"
# ISA tier pinned to the scalar oracle: the likelihood-kernel dispatch
# (LATTICE_FORCE_ISA, DESIGN.md §14) must be unobservable — every vector
# tier computes bit-identical partials, scale folds, and reductions.
check out-a.txt out-e.txt "stdout across ISA tiers (native vs scalar)"
check m-a.det m-e.det "metrics across ISA tiers (native vs scalar)"
check t-a.det t-e.det "trace across ISA tiers (native vs scalar)"

# Fault-injection runs under the same plan: the injected event stream must
# be a pure function of seed + plan.
check fout-a.txt fout-b.txt "stdout across identical fault-plan runs"
check fm-a.det fm-b.det "metrics across identical fault-plan runs"
# ...and the recovery machinery must be visibly exercised by the plan.
for metric in fault. sched.retry_; do
  if ! grep -q "$metric" "$work/fm-a.json"; then
    echo "determinism: '$metric*' missing from fault-run snapshot" >&2
    fail=1
  fi
done

# Transfer-model runs: completion times are recomputed at start/finish
# epochs, so two identical runs must match exactly.
check nout-a.txt nout-b.txt "stdout across identical net-profile runs"
check nm-a.det nm-b.det "metrics across identical net-profile runs"
# ...and the transfer pipeline must be visibly exercised by the profile.
for metric in net.bytes_down net.bytes_up net.transfers_completed; do
  if ! grep -q "$metric" "$work/nm-a.json"; then
    echo "determinism: '$metric' missing from net-run snapshot" >&2
    fail=1
  fi
done

# Multi-tenant portal runs: admission decisions, heavy-tailed workload
# sampling, and fair-share ordering must be pure functions of the seed.
check pout-a.txt pout-b.txt "stdout across identical portal runs"
check pm-a.det pm-b.det "metrics across identical portal runs"
# ...and the admission + fair-share machinery must be visibly exercised.
for metric in portal.admit_ sched.fair_share_; do
  if ! grep -q "$metric" "$work/pm-a.json"; then
    echo "determinism: '$metric*' missing from portal-run snapshot" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "determinism: 10 runs bit-identical" \
       "(sha256 $(sha256sum "$work/m-a.det" | cut -c1-12)…" \
       "fault $(sha256sum "$work/fm-a.det" | cut -c1-12)…" \
       "net $(sha256sum "$work/nm-a.det" | cut -c1-12)…" \
       "portal $(sha256sum "$work/pm-a.det" | cut -c1-12)…)"
fi
exit "$fail"
