// Linear reference for the grid-level scheduling decision, used only by
// tests. MetaScheduler::choose scans the flat MDS directory through
// match_online and keeps two (rank key, name) minima in one pass; this
// header re-derives every decision a different way, from the directory's
// public view — MdsDirectory::online() (name order), class_matches and the
// rank_key_* statics — filtering into copies and ranking the survivors:
//
//   eligible()    Steps 1–2: online entries passing matchmaking and the
//                 memory floor, in resource-name order.
//   best_ranked() the strict (rank key, name) argmin over an accepted
//                 subset — strict `<` over the name-ordered list keeps the
//                 first minimum, which is the lexicographic minimum.
//   Scheduler     the whole decision: hard require_stable filter, the
//                 round-robin cursor, the advisory stability cutoff with
//                 its fallthrough, then the Step-4 argmin.
//
// The property tests in test_sched_index.cpp assert that choose() decides
// identically. Entries are copies (online() returns values), so compare
// decisions by resource name.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fairshare.hpp"
#include "core/metascheduler.hpp"
#include "grid/job.hpp"
#include "grid/mds.hpp"

namespace lattice::sched_reference {

/// Rank key of a Step-4 argmin.
enum class RankOrder {
  kLoad,  // MdsDirectory::rank_key_load
  kEta,   // MdsDirectory::rank_key_eta
};

/// Online entries matching `req` (platforms, software, MPI, memory), in
/// resource-name order.
inline std::vector<grid::MdsEntry> eligible(const grid::MdsDirectory& mds,
                                            const grid::JobRequirements& req) {
  std::vector<grid::MdsEntry> out;
  for (grid::MdsEntry& entry : mds.online()) {
    if (!grid::MdsDirectory::class_matches(req, entry.info.platforms,
                                           entry.info.software,
                                           entry.info.mpi_capable)) {
      continue;
    }
    if (req.min_memory_gb > entry.info.node_memory_gb) continue;
    out.push_back(std::move(entry));
  }
  return out;
}

/// The (rank key, name) argmin over the name-ordered `candidates` that
/// `accept` takes, or nullopt when it takes none.
template <typename Accept>
std::optional<grid::MdsEntry> best_ranked(
    const std::vector<grid::MdsEntry>& candidates, RankOrder order,
    Accept&& accept) {
  std::optional<grid::MdsEntry> best;
  double best_key = 0.0;
  for (const grid::MdsEntry& entry : candidates) {
    if (!accept(entry)) continue;
    const double key =
        order == RankOrder::kLoad
            ? grid::MdsDirectory::rank_key_load(entry.info)
            : grid::MdsDirectory::rank_key_eta(entry.info, entry.speed);
    if (!best || key < best_key) {
      best = entry;
      best_key = key;
    }
  }
  return best;
}

/// Linear twin of core::MetaScheduler. Keeps its own round-robin cursor,
/// so pair it with a MetaScheduler that sees the same job sequence.
class Scheduler {
 public:
  Scheduler(const grid::MdsDirectory& mds, core::SchedulerPolicy policy,
            const core::FairShareLedger* fair_share = nullptr)
      : mds_(mds), policy_(policy), fair_share_(fair_share) {}

  std::optional<std::string> choose(const grid::GridJob& job) {
    std::vector<grid::MdsEntry> candidates =
        eligible(mds_, *job.requirements);
    // Demoted jobs keep only stable resources: a hard filter.
    if (job.require_stable) {
      std::erase_if(candidates, [](const grid::MdsEntry& entry) {
        return !entry.info.stable;
      });
    }
    if (candidates.empty()) return std::nullopt;
    if (policy_.mode == core::SchedulingMode::kRoundRobin) {
      return candidates[round_robin_next_++ % candidates.size()].info.name;
    }

    const std::optional<double> estimate = rank_estimate(job);
    if (estimate) {
      // Step 3: the advisory stability cutoff bars long jobs from unstable
      // resources — unless that bars everything, in which case the
      // unrestricted list falls through (best effort beats starving).
      std::vector<grid::MdsEntry> passing;
      for (const grid::MdsEntry& entry : candidates) {
        double wall_hours = *estimate / entry.speed / 3600.0;
        if (policy_.staging_mbps > 0.0) {
          wall_hours += (job.input_mb + job.output_mb) * 8.0 /
                        policy_.staging_mbps / 3600.0;
        }
        const bool barred = !entry.info.stable &&
                            wall_hours > policy_.stability_cutoff_hours;
        if (!barred) passing.push_back(entry);
      }
      if (!passing.empty()) candidates = std::move(passing);
    }

    // Step 4: expected completion when an estimate may be used, else load.
    const RankOrder order =
        policy_.mode != core::SchedulingMode::kLoadOnly && estimate
            ? RankOrder::kEta
            : RankOrder::kLoad;
    return best_ranked(candidates, order,
                       [](const grid::MdsEntry&) { return true; })
        ->info.name;
  }

 private:
  /// The estimate the mode may rank with, inflated by the submitting
  /// user's fair-share factor.
  std::optional<double> rank_estimate(const grid::GridJob& job) const {
    std::optional<double> estimate;
    if (policy_.mode == core::SchedulingMode::kOracle) {
      estimate = job.true_reference_runtime;
    } else if (policy_.mode == core::SchedulingMode::kEstimateAware) {
      estimate = job.estimated_reference_runtime;
    }
    if (estimate && fair_share_ != nullptr &&
        policy_.fair_share_weight > 0.0 && job.user_id != 0) {
      const double usage_hours = fair_share_->usage(job.user_id) / 3600.0;
      estimate = *estimate * (1.0 + policy_.fair_share_weight * usage_hours);
    }
    return estimate;
  }

  const grid::MdsDirectory& mds_;
  core::SchedulerPolicy policy_;
  const core::FairShareLedger* fair_share_;
  std::size_t round_robin_next_ = 0;
};

}  // namespace lattice::sched_reference
