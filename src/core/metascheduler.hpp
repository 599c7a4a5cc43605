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
// One decision path: MdsDirectory::match_online applies Steps 1–2 in one
// name-ordered pass over the directory's per-resource entries (9 for a
// core::lattice_inventory grid), the hard require_stable filter drops
// unstable entries for demoted jobs, and then either the round-robin
// cursor walks the list or one pass keeps two strict-`<` (rank key, name)
// minima — one over the entries the Step-3 cutoff allows, one over those
// it bars, the latter used only when the cutoff bars every entry. The
// test-only reference (tests/sched_reference.hpp) re-derives every
// decision from the directory's public view with the same
// MdsDirectory::rank_key_* functions and (key, name) tie-break.
//
// Alternative modes reproduce the baselines the benchmarks compare
// against: round-robin spreading and load-only ranking, plus an oracle
// that ranks with the true runtime (the ceiling for estimate quality).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/fairshare.hpp"
#include "grid/job.hpp"
#include "grid/mds.hpp"

namespace lattice::obs {
class Counter;
class MetricsRegistry;
}  // namespace lattice::obs

namespace lattice::core {

class SpeedCalibrator;

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
  /// Assumed staging bandwidth (Mbit/s) for the transfer term of the
  /// stability cutoff: jobs whose data takes long to stage occupy an
  /// unstable host's attempt window just like compute does. Zero disables
  /// the term (free staging). Advisory only — rank keys never see it
  /// (DESIGN.md §12).
  double staging_mbps = 0.0;
  /// Per-user fair-share: the rank estimate is inflated by
  /// (1 + weight * usage_hours) where usage_hours is the submitting
  /// user's decayed odometer (FairShareLedger, wired by set_fair_share).
  /// Zero disables the term. The inflation is a positive per-decision
  /// constant — the same factor at every candidate — so the (rank key,
  /// name) argmin is untouched and choose() stays bit-identical to the
  /// test reference with fair-share on (tests/test_sched_index.cpp); the
  /// term bites through the advisory stability cutoff (DESIGN.md §15).
  double fair_share_weight = 0.0;
};

class MetaScheduler {
 public:
  explicit MetaScheduler(const grid::MdsDirectory& mds,
                         SchedulerPolicy policy = {});
  /// The benchmark harness's form: the calibrator is ignored, because
  /// ranking reads the speeds published into MdsEntry::speed.
  MetaScheduler(const grid::MdsDirectory& mds, const SpeedCalibrator&,
                SchedulerPolicy policy = {})
      : MetaScheduler(mds, policy) {}

  /// Pick a resource for the job, or nullopt when nothing eligible is
  /// online. Uses job.estimated_reference_runtime in kEstimateAware mode
  /// and job.true_reference_runtime in kOracle mode. Eligibility comes
  /// from MdsDirectory::match_online.
  std::optional<std::string> choose(const grid::GridJob& job);

  /// The runtime estimate the current mode is allowed to rank with
  /// (reference seconds): true runtime for kOracle, the a priori estimate
  /// for kEstimateAware, nothing otherwise. The grid-level pump queues
  /// consecutive jobs of one user as a run only when this matches.
  std::optional<double> base_estimate(const grid::GridJob& job) const;

  /// base_estimate() inflated by the fair-share factor when a ledger is
  /// bound. Public because it is one of the decision inputs the grid-level
  /// pump keys its deferral memo on.
  std::optional<double> rank_estimate(const grid::GridJob& job) const;

  /// The policy is fixed at construction: the pump's run queue groups jobs
  /// by the mode's base estimate.
  const SchedulerPolicy& policy() const { return policy_; }

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

 private:
  const grid::MdsDirectory& mds_;
  SchedulerPolicy policy_;
  const FairShareLedger* fair_share_ = nullptr;
  std::size_t round_robin_next_ = 0;
  /// The eligible list, reused across choose() calls.
  std::vector<const grid::MdsEntry*> eligible_scratch_;

  // Observability (bound to the null registry until set_observability).
  obs::Counter* decisions_ = nullptr;
  obs::Counter* route_stable_ = nullptr;
  obs::Counter* route_unstable_ = nullptr;
  obs::Counter* no_eligible_ = nullptr;
  obs::Counter* candidates_scanned_ = nullptr;
  obs::Counter* match_eligible_ = nullptr;
};

}  // namespace lattice::core
