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
                             SchedulerPolicy policy)
    : mds_(mds), policy_(policy) {
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
      "directory entries examined by matchmaking (every registered "
      "resource, online or not)");
  match_eligible_ = &metrics.counter(
      "sched.match_eligible", "entries",
      "directory entries that passed the online, capability and memory "
      "filters");
}

std::optional<std::string> MetaScheduler::choose(const grid::GridJob& job) {
  eligible_scratch_.clear();
  grid::MdsMatchStats stats;
  mds_.match_online(job.requirements, eligible_scratch_, &stats);
  candidates_scanned_->inc(stats.candidates_scanned);
  match_eligible_->inc(stats.eligible);
  // Demoted jobs (repeated unstable-resource failures) keep only stable
  // resources — a hard filter, unlike the advisory stability cutoff.
  if (job.require_stable) {
    std::erase_if(eligible_scratch_, [](const grid::MdsEntry* entry) {
      return !entry->info.stable;
    });
  }
  if (eligible_scratch_.empty()) {
    no_eligible_->inc();
    return std::nullopt;
  }
  const grid::MdsEntry* best = nullptr;
  if (policy_.mode == SchedulingMode::kRoundRobin) {
    best = eligible_scratch_[round_robin_next_++ % eligible_scratch_.size()];
  } else {
    // Step 4 over the name-ordered list: strict `<` keeps the first
    // minimum, i.e. the (rank key, name) argmin. Entries the Step-3 cutoff
    // bars compete for a second minimum, the stability fallthrough's
    // answer when the cutoff bars every entry — placing somewhere beats
    // starving, matching the paper's best-effort behavior.
    const std::optional<double> estimate = rank_estimate(job);
    const bool by_eta = policy_.mode != SchedulingMode::kLoadOnly && estimate;
    const grid::MdsEntry* barred_best = nullptr;
    double best_key = 0.0;
    double barred_key = 0.0;
    for (const grid::MdsEntry* entry : eligible_scratch_) {
      const double key =
          by_eta ? grid::MdsDirectory::rank_key_eta(entry->info, entry->speed)
                 : grid::MdsDirectory::rank_key_load(entry->info);
      bool barred = false;
      if (estimate && !entry->info.stable) {
        // Step-3 advisory stability cutoff: estimated wall hours on this
        // candidate, plus staging time at the policy's assumed link.
        double wall_hours = *estimate / entry->speed / 3600.0;
        if (policy_.staging_mbps > 0.0) {
          wall_hours += (job.input_mb + job.output_mb) * 8.0 /
                        policy_.staging_mbps / 3600.0;
        }
        barred = wall_hours > policy_.stability_cutoff_hours;
      }
      if (barred) {
        if (barred_best == nullptr || key < barred_key) {
          barred_best = entry;
          barred_key = key;
        }
      } else if (best == nullptr || key < best_key) {
        best = entry;
        best_key = key;
      }
    }
    if (best == nullptr) best = barred_best;
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
