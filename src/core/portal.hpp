// The GARLI science-portal pipeline (paper §III), as a library API: guest
// or registered submission, the pre-scheduling validation pass, the
// ≤2000-replicate cap, a priori runtime estimation for user ETAs,
// replicate bundling for very short jobs (§VI.A: "ratchet up the number of
// search replicates each individual GARLI job will perform"), batch
// splitting into grid jobs, email-style notifications, and result
// collation ("a single zip file") when the batch completes.
//
// Multi-tenant admission control (DESIGN.md §15): every submission carries
// a user identity and class (core/user.hpp); per-user concurrent-batch and
// replicates-in-flight quotas bound any one user's footprint, and guest
// traffic is shed outright while the grid backlog sits above a watermark —
// the paper's portal throttled the web tier so the grid never saw the
// overload. Admission outcomes are observable as portal.admit_* /
// portal.shed_* counters.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/lattice.hpp"
#include "core/user.hpp"
#include "phylo/garli.hpp"

namespace lattice::obs {
class Counter;
class MetricsRegistry;
}  // namespace lattice::obs

namespace lattice::core {

/// Per-class admission quota. Zero fields are unlimited, so the default
/// portal admits exactly what the single-tenant portal admitted.
struct UserQuota {
  /// Batches a user may have unfinished at once.
  std::size_t max_concurrent_batches = 0;
  /// Replicates a user may have in unfinished batches, summed.
  std::size_t max_replicates_in_flight = 0;
};

struct PortalConfig {
  static constexpr std::size_t kMaxReplicates = phylo::kMaxSearchReplicates;
  /// Replicates whose estimated runtime is below this are "very short"
  /// and get bundled.
  double bundle_threshold_seconds = 600.0;
  /// Bundle size targets this much work per grid job.
  double bundle_target_seconds = 3600.0;
  static constexpr std::size_t kMaxBundle = 100;

  /// Admission quotas by user class (zero = unlimited).
  UserQuota quota_guest;
  UserQuota quota_registered;
  UserQuota quota_power;
  /// Load shedding: guest submissions are refused while the grid backlog
  /// (LatticeSystem::grid_backlog — grid-level pending queue plus BOINC
  /// feeder queues) is at or above this watermark. Zero disables shedding.
  std::size_t shed_backlog_watermark = 0;

  const UserQuota& quota_for(UserClass user_class) const {
    switch (user_class) {
      case UserClass::kGuest: return quota_guest;
      case UserClass::kRegistered: return quota_registered;
      case UserClass::kPower: return quota_power;
    }
    return quota_registered;
  }
};

/// A portal submission form: who is submitting, what to run, and how many
/// identical search replicates. When an alignment is supplied the job is
/// validated against it (the portal's GARLI validation mode); otherwise
/// the caller provides the dataset's dimensions for featurization.
struct SubmissionRequest {
  UserId user_id = 0;
  UserClass user_class = UserClass::kRegistered;
  std::string user_email;
  phylo::GarliJob job;
  std::size_t replicates = 1;
  std::size_t num_taxa = 0;
  std::size_t num_patterns = 0;
  const phylo::Alignment* alignment = nullptr;
};

struct Notification {
  sim::SimTime time = 0.0;
  std::string kind;  // "submitted", "rejected", "job-failed", "completed"
  std::string message;
};

struct BatchRecord {
  std::uint64_t id = 0;
  UserId user_id = 0;
  UserClass user_class = UserClass::kRegistered;
  std::string user_email;
  std::size_t replicates = 0;
  std::size_t grid_jobs = 0;
  std::size_t completed_jobs = 0;
  std::size_t failed_jobs = 0;
  std::optional<double> eta_seconds;  // quoted to the user at submission
  std::vector<std::uint64_t> job_ids;
  std::vector<Notification> notifications;
  sim::SimTime submitted = 0.0;
  sim::SimTime finished = 0.0;
  bool done = false;
};

/// What submit() hands back: the admission verdict plus the shape the
/// batch took on acceptance.
struct SubmitReceipt {
  bool accepted = false;
  std::vector<std::string> problems;
  std::uint64_t batch_id = 0;
  std::size_t grid_jobs = 0;
  std::size_t bundle_size = 1;
  std::optional<double> eta_seconds;
};

/// Point-in-time progress of an accepted batch. `found` distinguishes "no
/// such batch" from every real state — a rejected submission never gets a
/// batch id, so an unknown id is a lookup error, not a rejection.
struct BatchProgress {
  bool found = false;
  std::uint64_t batch_id = 0;
  std::size_t grid_jobs = 0;
  std::size_t completed_jobs = 0;
  std::size_t failed_jobs = 0;
  /// Member jobs sitting at the grid level with nowhere to go (e.g. a
  /// total-grid outage): the portal holds them queued rather than failing
  /// the batch — graceful degradation, not loss.
  std::size_t pending_jobs = 0;
  bool degraded = false;
  bool done = false;
  std::optional<double> eta_seconds;
};

class Portal {
 public:
  Portal(LatticeSystem& system, PortalConfig config = {});

  /// Submit a batch of `request.replicates` identical GARLI searches.
  /// Runs the validation pass, then admission control (quota + guest
  /// shedding), then bundles and splits the batch into grid jobs.
  SubmitReceipt submit(const SubmissionRequest& request);

  const BatchRecord* batch(std::uint64_t id) const;

  /// The "single zip file": one "job-<id>.best_tree.tre" or
  /// "job-<id>.FAILED" line per member job, in submission order. Empty
  /// until the batch is done, and for unknown ids.
  std::vector<std::string> result_manifest(std::uint64_t batch_id) const;

  /// Point-in-time progress of a batch: completed/failed so far, members
  /// still queued at the grid level, and the degradation flag (pending
  /// members with the batch unfinished — the shape of a grid outage from
  /// the user's seat). Unknown batch ids return found == false.
  BatchProgress progress(std::uint64_t batch_id) const;
  const std::map<std::uint64_t, BatchRecord>& batches() const {
    return batches_;
  }

  /// Cancel every non-terminal job of a batch ("cancel jobs that were no
  /// longer needed"). Returns the number of jobs cancelled; 0 for unknown
  /// or finished batches.
  std::size_t cancel_batch(std::uint64_t id);

  /// Unfinished batches / replicates currently held by `user` (the state
  /// the quotas bound). Zero for unknown users.
  std::size_t active_batches(UserId user) const;
  std::size_t replicates_in_flight(UserId user) const;

  const PortalConfig& config() const { return config_; }
  LatticeSystem& system() { return system_; }

  /// Re-bind admission counters into `metrics` (instruments default to
  /// the null registry's sinks, so an un-instrumented portal pays one
  /// pointer increment per admission decision).
  void set_observability(obs::MetricsRegistry& metrics);

 private:
  void on_job_terminal(const grid::GridJob& job, bool completed);

  struct UserState {
    std::size_t active_batches = 0;
    std::size_t replicates_in_flight = 0;
  };

  LatticeSystem& system_;
  PortalConfig config_;
  std::map<std::uint64_t, BatchRecord> batches_;
  std::map<UserId, UserState> users_;
  std::uint64_t next_batch_id_ = 1;

  // Observability (bound to the null registry until set_observability).
  obs::Counter* admit_accepted_ = nullptr;
  obs::Counter* admit_rejected_ = nullptr;
  obs::Counter* admit_quota_denied_ = nullptr;
  obs::Counter* shed_guest_ = nullptr;
};

}  // namespace lattice::core
