#!/usr/bin/env bash
# Docs lint: every metric name registered in src/ must appear (backticked)
# in the catalog at docs/OBSERVABILITY.md, so the operator's view never
# silently drifts from the code. Registration sites keep the metric name as
# a literal string on the call (see src/obs/metrics.hpp), which is what
# makes this extraction reliable. Wired into ctest as the check_docs test.
set -euo pipefail
cd "$(dirname "$0")/.."

doc=docs/OBSERVABILITY.md
if [ ! -f "$doc" ]; then
  echo "check_docs: missing $doc" >&2
  exit 1
fi

# Registration calls are always instrument methods on a registry object
# (m.counter("name", ...) etc.), so require the leading '.'; this skips
# find_counter()/counter_total() lookups. Files are newline-flattened first
# because clang-format may wrap the name onto the line after the call.
registered=$(
  find src -name '*.cpp' -o -name '*.hpp' | sort | while read -r f; do
    tr '\n' ' ' < "$f" |
      grep -oE '[.>][[:space:]]*(counter|gauge|histogram)\([[:space:]]*"[A-Za-z0-9_.]+"' ||
      true
  done | grep -oE '"[A-Za-z0-9_.]+"' | tr -d '"' | sort -u
)

if [ -z "$registered" ]; then
  echo "check_docs: found no registered metrics in src/" >&2
  exit 1
fi

fail=0
for name in $registered; do
  if ! grep -qF "\`$name\`" "$doc"; then
    echo "check_docs: metric '$name' is registered in src/ but missing" \
         "from $doc" >&2
    fail=1
  fi
done

# The scheduler-scalability passes document a complexity budget
# (docs/PERFORMANCE.md) and index-invalidation rules (DESIGN.md §10 for
# the linear→indexed pass and the flat MDS directory, §11 for the keyed
# pool calendar); all must keep naming the structures they govern so the
# docs cannot silently drift from the data structures.
perf=docs/PERFORMANCE.md
if [ ! -f "$perf" ]; then
  echo "check_docs: missing $perf (complexity budget)" >&2
  fail=1
else
  for anchor in match_online 'deadline heap' 'feeder' 'census' \
                'far band' 'ns/decision' 'MetaScheduler::choose' \
                'lookahead barrier' 'weak-scaled' \
                'vector_speedup' 'LATTICE_FORCE_ISA' 'scalar_client' \
                'island_ga_identical' \
                'BENCH_portal_scale' 'p99_turnaround_h' \
                'submissions_per_wall_s' 'per-user ledger' \
                'aggregate demand'; do
    if ! grep -qiF "$anchor" "$perf"; then
      echo "check_docs: $perf lost its '$anchor' budget entry" >&2
      fail=1
    fi
  done
fi

# The transfer layer documents its link-class model, contention
# semantics, determinism contract, complexity budget, and INI schema
# (docs/NETWORKING.md); the doc must keep naming the mechanisms it
# promises so it cannot drift from src/net/.
networking=docs/NETWORKING.md
if [ ! -f "$networking" ]; then
  echo "check_docs: missing $networking (transfer cost model)" >&2
  fail=1
else
  for anchor in 'link class' 'fair share' 'finish_key' 'attained' \
                'snap' 'epoch' 'server pipe' 'fraction' 'latency' \
                'zero-size' 'staging_mbps' 'typical_mbps' \
                'net_overhead_ratio' 'slow_link_smoke' 'bit-identical'; do
    if ! grep -qiF "$anchor" "$networking"; then
      echo "check_docs: $networking lost its '$anchor' section" >&2
      fail=1
    fi
  done
fi

# The fault layer documents its fault model, recovery mechanisms, and
# determinism contract (docs/RESILIENCE.md); the doc must keep naming the
# mechanisms it promises so it cannot drift from src/fault/.
resilience=docs/RESILIENCE.md
if [ ! -f "$resilience" ]; then
  echo "check_docs: missing $resilience (fault model + recovery)" >&2
  fail=1
else
  for anchor in 'fault plan' 'backoff' 'demotion' 'quorum' 'outage' \
                'heartbeat_only' 'bit-identical' 'fault_smoke' \
                'link.' 'uplink'; do
    if ! grep -qiF "$anchor" "$resilience"; then
      echo "check_docs: $resilience lost its '$anchor' section" >&2
      fail=1
    fi
  done
fi

design=DESIGN.md
if ! grep -qE '^## +(§ *)?10' "$design" 2>/dev/null; then
  echo "check_docs: $design has no §10 (index-invalidation rules)" >&2
  fail=1
else
  for anchor in 'match_online' 'sched_reference.hpp' 'deadline' \
                'tombstone' 'generation' 'far_threshold_' \
                'results_index_'; do
    if ! grep -qiF "$anchor" "$design"; then
      echo "check_docs: $design §10 lost its '$anchor' invalidation rule" >&2
      fail=1
    fi
  done
fi
if ! grep -qE '^## +(§ *)?11' "$design" 2>/dev/null; then
  echo "check_docs: $design has no §11 (pool calendar invalidation" \
       "rules)" >&2
  fail=1
else
  for anchor in 'sim::Calendar' 'lookahead barrier' 'epoch' \
                '(when, seq)'; do
    if ! grep -qiF "$anchor" "$design"; then
      echo "check_docs: $design §11 lost its '$anchor' invalidation rule" >&2
      fail=1
    fi
  done
fi

if ! grep -qE '^## +(§ *)?12' "$design" 2>/dev/null; then
  echo "check_docs: $design has no §12 (transfer-event invalidation" \
       "rules)" >&2
  fail=1
else
  for anchor in 'accrue' 'reproject' 'snap' 'tombstone' 'prune_dead' \
                'finish_key' 'zero-delay'; do
    if ! grep -qiF "$anchor" "$design"; then
      echo "check_docs: $design §12 lost its '$anchor' invalidation rule" >&2
      fail=1
    fi
  done
fi

if ! grep -qE '^## +(§ *)?13' "$design" 2>/dev/null; then
  echo "check_docs: $design has no §13 (module-layering ledger)" >&2
  fail=1
else
  for anchor in 'layering.ini' 'layering-violation' 'layering-cycle' \
                'consumer' 'back-edge' 'orchestration layer'; do
    if ! grep -qiF "$anchor" "$design"; then
      echo "check_docs: $design §13 lost its '$anchor' layering entry" >&2
      fail=1
    fi
  done
fi

# The vectorized likelihood kernels document their bit-determinism
# contract (DESIGN.md §14): the no-FMA rule, contraction flags,
# tail-lane masking, the dispatch override, and the help-while-waiting
# pool join must keep being named so a kernel edit argues with the
# ledger instead of silently relaxing it.
if ! grep -qE '^## +(§ *)?14' "$design" 2>/dev/null; then
  echo "check_docs: $design has no §14 (ISA-dispatch determinism ledger)" >&2
  fail=1
else
  for anchor in 'No FMA' 'ffp-contract' 'LATTICE_FORCE_ISA' \
                'intrinsics-confined' 'helps while waiting' \
                'masked' 'KernelOps' 'aligned_vector'; do
    if ! grep -qiF "$anchor" "$design"; then
      echo "check_docs: $design §14 lost its '$anchor' determinism entry" >&2
      fail=1
    fi
  done
fi

# The multi-tenant portal documents its admission pipeline, quota and
# shedding mechanics, the fair-share odometer, and the queue-ordering /
# backpressure knobs (DESIGN.md §15); the ledger must keep naming the
# mechanisms whose bit-identity it argues for.
if ! grep -qE '^## +(§ *)?15' "$design" 2>/dev/null; then
  echo "check_docs: $design has no §15 (portal admission + fair-share" \
       "ledger)" >&2
  fail=1
else
  for anchor in 'SubmissionRequest' 'shed_backlog_watermark' 'UserQuota' \
                'half-life' 'order_queue' 'backlog_per_slot' \
                'rank_estimate' 'grid_backlog' 'Pareto' \
                'fair_share_weight' 'UserPopulation'; do
    if ! grep -qiF "$anchor" "$design"; then
      echo "check_docs: $design §15 lost its '$anchor' ledger entry" >&2
      fail=1
    fi
  done
fi

# The lint layer documents its project-wide rule catalog and the layering
# DAG (docs/LINTING.md); the doc must keep naming every rule family the
# engine enforces so the catalog cannot drift from tools/lattice-lint.
linting=docs/LINTING.md
if [ ! -f "$linting" ]; then
  echo "check_docs: missing $linting (rule catalog)" >&2
  fail=1
else
  for anchor in 'layering-violation' 'layering-cycle' 'unordered-alias' \
                'kernel-callback-throw' 'suppression-dead' 'layering.ini' \
                'intrinsics-confined' 'src/phylo/kernels' \
                '--json' 'project model'; do
    if ! grep -qiF -- "$anchor" "$linting"; then
      echo "check_docs: $linting lost its '$anchor' rule-catalog entry" >&2
      fail=1
    fi
  done
fi

if [ "$fail" -eq 0 ]; then
  count=$(printf '%s\n' "$registered" | wc -l)
  echo "check_docs: all $count registered metric names documented in $doc;" \
       "complexity budget and invalidation rules present"
fi
exit "$fail"
