#include "core/metascheduler.hpp"

#include <vector>

#include "obs/metrics.hpp"

namespace lattice::core {

std::string_view scheduling_mode_name(SchedulingMode mode) {
  switch (mode) {
    case SchedulingMode::kRoundRobin: return "round-robin";
    case SchedulingMode::kLoadOnly: return "load-only";
    case SchedulingMode::kEstimateAware: return "estimate-aware";
    case SchedulingMode::kOracle: return "oracle";
  }
  return "?";
}

MetaScheduler::MetaScheduler(const grid::MdsDirectory& mds,
                             const SpeedCalibrator& speeds,
                             SchedulerPolicy policy)
    : mds_(mds), speeds_(speeds), policy_(policy) {
  set_observability(obs::MetricsRegistry::null());
}

void MetaScheduler::set_observability(obs::MetricsRegistry& metrics) {
  decisions_ = &metrics.counter("sched.decisions", "jobs",
                                "placement decisions made");
  route_stable_ = &metrics.counter(
      "sched.route_stable", "jobs", "placements onto stable resources");
  route_unstable_ =
      &metrics.counter("sched.route_unstable", "jobs",
                       "placements onto unstable (desktop/volunteer) "
                       "resources");
  no_eligible_ = &metrics.counter(
      "sched.no_eligible", "calls",
      "choose() calls that found no eligible online resource");
  candidates_scanned_ = &metrics.counter(
      "sched.match_candidates_scanned", "entries",
      "directory entries examined by indexed matchmaking (vs "
      "sched.match_eligible: the index's selectivity)");
  match_eligible_ = &metrics.counter(
      "sched.match_eligible", "entries",
      "directory entries that passed matchmaking and the online filter");
}

std::optional<std::string> MetaScheduler::choose(const grid::GridJob& job) {
  const grid::MdsEntry* best = nullptr;
  grid::MdsMatchStats stats;
  if (policy_.mode == SchedulingMode::kRoundRobin) {
    // Round-robin ranks nothing: its cursor walks the name-ordered
    // eligible list. Demoted jobs (repeated unstable-resource failures)
    // keep only stable resources — a hard filter, unlike the advisory
    // stability cutoff of the ranked modes.
    eligible_scratch_.clear();
    mds_.match_online(job.requirements, eligible_scratch_, &stats);
    if (job.require_stable) {
      std::erase_if(eligible_scratch_, [](const grid::MdsEntry* entry) {
        return !entry->info.stable;
      });
    }
    if (!eligible_scratch_.empty()) {
      best = eligible_scratch_[round_robin_next_++ % eligible_scratch_.size()];
    }
  } else {
    // Ranked modes: stream candidates from the rank index in ascending
    // (rank key, name) order and take the first acceptable one — the
    // decision touches the rejected prefix plus one entry instead of the
    // whole eligible set.
    const std::optional<double> estimate = rank_estimate(job);
    const grid::RankOrder order =
        policy_.mode != SchedulingMode::kLoadOnly && estimate
            ? grid::RankOrder::kEta
            : grid::RankOrder::kLoad;
    // The first unstable entry past the hard require_stable filter: the
    // stability fallthrough's answer when nothing passes the advisory
    // cutoff (a stable entry would have been accepted before it).
    const grid::MdsEntry* fallthrough = nullptr;
    best = mds_.best_ranked(
        job.requirements, order,
        [&](const grid::MdsEntry& entry) {
          if (job.require_stable && !entry.info.stable) return false;
          if (!estimate || entry.info.stable) return true;
          if (fallthrough == nullptr) fallthrough = &entry;
          // Step-3 advisory stability cutoff: estimated wall hours on this
          // candidate, plus staging time at the policy's assumed link.
          double wall_hours = *estimate / entry.speed / 3600.0;
          if (policy_.staging_mbps > 0.0) {
            wall_hours += (job.input_mb + job.output_mb) * 8.0 /
                          policy_.staging_mbps / 3600.0;
          }
          const bool barred = wall_hours > policy_.stability_cutoff_hours;
          return !barred;
        },
        &stats);
    // Stability fallthrough: nothing passed the cutoff, so take the best
    // unrestricted (still require_stable-filtered) entry — placing
    // somewhere beats starving, matching the paper's best-effort behavior.
    if (best == nullptr) best = fallthrough;
  }
  candidates_scanned_->inc(stats.candidates_scanned);
  match_eligible_->inc(stats.eligible);
  if (best == nullptr) {
    no_eligible_->inc();
    return std::nullopt;
  }
  decisions_->inc();
  (best->info.stable ? route_stable_ : route_unstable_)->inc();
  return best->info.name;
}

std::optional<double> MetaScheduler::base_estimate(
    const grid::GridJob& job) const {
  if (policy_.mode == SchedulingMode::kOracle) {
    return job.true_reference_runtime;
  }
  if (policy_.mode == SchedulingMode::kEstimateAware) {
    return job.estimated_reference_runtime;
  }
  return std::nullopt;
}

std::optional<double> MetaScheduler::rank_estimate(
    const grid::GridJob& job) const {
  std::optional<double> estimate = base_estimate(job);
  // Fair-share inflation: a heavy user's jobs look longer, which tightens
  // the advisory stability cutoff against them. The factor depends only on
  // the job's user (not on any candidate), so the rank argmin — which
  // divides the estimate out — is untouched.
  if (estimate && fair_share_ != nullptr &&
      policy_.fair_share_weight > 0.0 && job.user_id != 0) {
    const double usage_hours = fair_share_->usage(job.user_id) / 3600.0;
    estimate = *estimate * (1.0 + policy_.fair_share_weight * usage_hours);
  }
  return estimate;
}

}  // namespace lattice::core
