// The grid-level scheduler (paper §V): works exclusively from the MDS
// directory's aggregated view.
//
//   1. Offline filter — resources whose reports stopped arriving get no
//      new jobs.
//   2. Matchmaking filter — platform list, minimum memory, MPI capability,
//      software dependencies.
//   3. Stability filter — jobs whose speed-scaled runtime estimate exceeds
//      the cutoff (paper: n = 10 hours) are barred from unstable
//      (desktop/volunteer) resources.
//   4. Rank — expected completion time: the estimate scaled by calibrated
//      resource speed, inflated by current load so work spreads instead of
//      backing up on the fastest resource.
//
// Steps 1–2 run against the MDS capability-class index, and for the
// ranked modes Step 4 streams candidates from the directory's maintained
// rank orders (MdsDirectory::best_ranked) in ascending (rank key, name)
// order, taking the first entry that passes the job-dependent filters —
// the per-decision work is the rejected prefix plus one entry, not the
// whole eligible set. choose_linear() retains the pre-index full scan as
// the reference implementation; both rank with the shared
// MdsDirectory::rank_key_* functions and the same tie-break, so the two
// are decision-identical by construction (tests/test_sched_index.cpp).
// Round-robin keeps the merged eligible list (its cursor indexes into
// it), as does any eta-ranked decision whose policy load weight differs
// from the weight the directory's keys were maintained with
// (MdsDirectory::set_rank_load_weight — LatticeSystem wires it at
// construction).
//
// Alternative modes reproduce the baselines the benchmarks compare
// against: round-robin spreading and load-only ranking, plus an oracle
// that ranks with the true runtime (the ceiling for estimate quality).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fairshare.hpp"
#include "core/speed.hpp"
#include "grid/job.hpp"
#include "grid/mds.hpp"

namespace lattice::obs {
class Counter;
class MetricsRegistry;
}  // namespace lattice::obs

namespace lattice::core {

enum class SchedulingMode {
  kRoundRobin,     // naive spreading, ignores speed and stability
  kLoadOnly,       // emptiest eligible resource
  kEstimateAware,  // the paper's algorithm (RF estimates)
  kOracle,         // the paper's algorithm fed true runtimes
};

std::string_view scheduling_mode_name(SchedulingMode mode);

struct SchedulerPolicy {
  SchedulingMode mode = SchedulingMode::kEstimateAware;
  /// Stability cutoff n (hours of *estimated wall time on the candidate
  /// resource*) above which unstable resources are excluded.
  double stability_cutoff_hours = 10.0;
  /// Load inflation: expected time is multiplied by (1 + load_weight *
  /// backlog_per_slot).
  double load_weight = 1.0;
  /// Assumed staging bandwidth (Mbit/s) for the transfer term of the
  /// stability cutoff: jobs whose data takes long to stage occupy an
  /// unstable host's attempt window just like compute does. Zero disables
  /// the term (free staging). Advisory only — rank keys never see it, so
  /// the maintained rank index stays job-independent (DESIGN.md §12).
  double staging_mbps = 0.0;
  /// Per-user fair-share: the rank estimate is inflated by
  /// (1 + weight * usage_hours) where usage_hours is the submitting
  /// user's decayed odometer (FairShareLedger, wired by set_fair_share).
  /// Zero disables the term. The inflation is a positive per-decision
  /// constant — the same factor at every candidate — so the (rank key,
  /// name) argmin is untouched and choose()/choose_linear() stay
  /// bit-identical with fair-share on (tests/test_sched_index.cpp); the
  /// term bites through the advisory stability cutoff, which both decision
  /// sites apply with the identical inflated estimate (DESIGN.md §15).
  double fair_share_weight = 0.0;
};

class MetaScheduler {
 public:
  MetaScheduler(const grid::MdsDirectory& mds, const SpeedCalibrator& speeds,
                SchedulerPolicy policy = {});

  /// Pick a resource for the job, or nullopt when nothing eligible is
  /// online. Uses job.estimated_reference_runtime in kEstimateAware mode
  /// and job.true_reference_runtime in kOracle mode. Eligibility comes
  /// from the MDS capability index.
  std::optional<std::string> choose(const grid::GridJob& job);

  /// The pre-index reference: full linear scan over the directory with
  /// the monolithic matches() predicate. Retained so the property test
  /// can assert decision-identity with choose(); both advance the same
  /// round-robin cursor, so compare separate instances, not interleaved
  /// calls on one.
  std::optional<std::string> choose_linear(const grid::GridJob& job);

  /// The runtime estimate the current mode is allowed to rank with
  /// (reference seconds): true runtime for kOracle, the a priori estimate
  /// for kEstimateAware, nothing otherwise. Inflated by the fair-share
  /// factor when a ledger is bound — both decision sites call this, so the
  /// inflation is identical by construction. Public because it is one of
  /// the decision inputs the grid-level pump keys its deferral memo on.
  std::optional<double> rank_estimate(const grid::GridJob& job) const;

  const SchedulerPolicy& policy() const { return policy_; }
  void set_policy(const SchedulerPolicy& policy) { policy_ = policy; }

  /// Bind the per-user usage ledger the fair-share term reads (nullptr
  /// disables it). The ledger must be settled to sim-now by its owner; the
  /// scheduler only reads.
  void set_fair_share(const FairShareLedger* ledger) {
    fair_share_ = ledger;
  }

  /// Re-bind routing-decision counters into `metrics` (instruments default
  /// to the null registry's sinks, so un-instrumented scheduling pays one
  /// pointer increment per decision).
  void set_observability(obs::MetricsRegistry& metrics);

  /// Matchmaking predicate, exposed for tests. Equivalent to
  /// MdsDirectory::class_matches plus the per-entry memory floor.
  static bool matches(const grid::GridJob& job,
                      const grid::ResourceInfo& info);

 private:
  /// Steps 3–4 over an eligible candidate list (name-ordered), preceded by
  /// the hard stable-only filter for demoted jobs (job.require_stable).
  std::optional<std::string> pick(
      const grid::GridJob& job,
      const std::vector<const grid::MdsEntry*>& all_eligible);

  const grid::MdsDirectory& mds_;
  const SpeedCalibrator& speeds_;
  SchedulerPolicy policy_;
  const FairShareLedger* fair_share_ = nullptr;
  std::size_t round_robin_next_ = 0;
  /// Scratch reused across choose() calls (allocation-lean hot path).
  std::vector<const grid::MdsEntry*> eligible_scratch_;
  std::vector<const grid::MdsEntry*> stable_scratch_;
  std::vector<const grid::MdsEntry*> require_stable_scratch_;

  // Observability (bound to the null registry until set_observability).
  obs::Counter* decisions_ = nullptr;
  obs::Counter* route_stable_ = nullptr;
  obs::Counter* route_unstable_ = nullptr;
  obs::Counter* no_eligible_ = nullptr;
  obs::Counter* candidates_scanned_ = nullptr;
  obs::Counter* match_eligible_ = nullptr;
};

}  // namespace lattice::core
