// Per-job reference for the grid-level pump pass, used only by tests.
// LatticeSystem queues pending work as runs of consecutive same-class ids
// and, once a run member is deferred, defers the rest of the run in one
// step. This header re-derives every pass job by job, the way the pump
// worked before runs:
//
//   1. expand the run queue into one id per pending job;
//   2. with FairShareConfig.order_queue, sort the ids by (the submitting
//      user's decayed usage, job id);
//   3. visit every job: a deferral memo keyed on the full decision inputs
//      (requirements compared member by member, require_stable, the
//      fair-share-inflated rank estimate, input + output MB) skips
//      choose() for a key already deferred this dispatch epoch; every
//      dispatch clears it. Round-robin calls choose() for every job.
//
// PumpReference::install swaps a system's pump for this pass, so two
// systems fed the same workload — one per pump — must dispatch the same
// jobs in the same order to the same resources (tests/test_pump.cpp).
// Deferred jobs and synchronous requeues go back through the system's own
// append, in time order; the next pass expands them again, so the queue's
// grouping never reaches a decision here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/lattice.hpp"

namespace lattice::core {

class PumpReference {
 public:
  /// Replace `system`'s pump with the per-job reference pass. Call it
  /// straight after construction, before anything else is scheduled.
  static void install(LatticeSystem& system) {
    const double period = system.config_.scheduler_period;
    system.pump_task_ = std::make_unique<sim::PeriodicTask>(
        system.sim_, period, period, [&system] { pass(system); });
  }

  /// The queued runs as (first id, count), in drain order.
  static std::vector<std::pair<std::uint64_t, std::uint64_t>> runs(
      const LatticeSystem& system) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& run : system.pending_) out.emplace_back(run.first, run.count);
    return out;
  }

  /// The queued job ids, in drain order.
  static std::vector<std::uint64_t> queue(const LatticeSystem& system) {
    std::vector<std::uint64_t> ids;
    for (const auto& [first, count] : runs(system)) {
      for (std::uint64_t i = 0; i < count; ++i) ids.push_back(first + i);
    }
    return ids;
  }

 private:
  /// The decision inputs of one job, compared member by member.
  struct Key {
    const grid::JobRequirements* requirements;
    bool require_stable;
    std::optional<double> estimate;
    double data_mb;

    bool operator<(const Key& other) const {
      return std::tie(require_stable, estimate, data_mb, *requirements) <
             std::tie(other.require_stable, other.estimate, other.data_mb,
                      *other.requirements);
    }
  };
  enum class Deferral : std::uint8_t { kNoEligible, kBackpressure };

  static void pass(LatticeSystem& s) {
    s.fair_share_ledger_.settle(s.sim_.now());
    std::deque<std::uint64_t> ids;
    for (const std::uint64_t id : queue(s)) ids.push_back(id);
    s.pending_.clear();
    if (s.config_.fair_share.order_queue && ids.size() > 1) {
      const auto key = [&s](std::uint64_t id) {
        return std::pair(
            s.fair_share_ledger_.usage(s.jobs_[id - 1].job.user_id), id);
      };
      std::sort(ids.begin(), ids.end(),
                [&key](std::uint64_t a, std::uint64_t b) {
                  return key(a) < key(b);
                });
      s.obs_fair_share_reorders_->inc();
    }

    const bool memoize =
        s.scheduler_.policy().mode != SchedulingMode::kRoundRobin;
    std::map<Key, Deferral> deferred;
    for (const std::uint64_t id : ids) {
      grid::GridJob& job = s.jobs_[id - 1].job;
      const Key key{job.requirements, job.require_stable,
                    s.scheduler_.rank_estimate(job),
                    job.input_mb + job.output_mb};
      std::optional<Deferral> cause;
      if (memoize) {
        const auto memo = deferred.find(key);
        if (memo != deferred.end()) cause = memo->second;
      }
      if (!cause) {
        const auto choice = s.scheduler_.choose(job);
        if (!choice) {
          cause = Deferral::kNoEligible;
        } else if (s.config_.fair_share.backlog_per_slot > 0.0 &&
                   saturated(s, *choice)) {
          cause = Deferral::kBackpressure;
        } else {
          --s.pending_count_;
          s.dispatch(job, *choice);
          deferred.clear();
          continue;
        }
        if (memoize) deferred.emplace(key, *cause);
      }
      s.enqueue(id, 1);
    }
  }

  static bool saturated(const LatticeSystem& s, const std::string& name) {
    const grid::ResourceInfo info = s.resources_.at(name).resource->info();
    return static_cast<double>(info.queued_jobs) >=
           s.config_.fair_share.backlog_per_slot *
               static_cast<double>(info.total_slots);
  }
};

}  // namespace lattice::core
