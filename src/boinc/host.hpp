// Volunteer host model: heterogeneous speeds (lognormal, the classic BOINC
// host distribution shape), on/off availability churn, permanent departure,
// checkpoint-aware computation (the paper's team built a special GARLI with
// checkpointing so progress survives host downtime), and a small
// probability of returning a wrong result (exercises quorum validation).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace lattice::boinc {

class BoincServer;

struct HostParams {
  double speed = 1.0;              // relative to the reference machine
  double error_probability = 0.0;  // wrong-result chance per task
  /// Outright task failure (reported through the error path) per task;
  /// distinct from error_probability, which corrupts silently.
  double compute_error_probability = 0.0;
};

/// Per-host churn state, packed into one cache line and stored densely in
/// the server (`BoincServer::churn_state_`, indexed by host key). The
/// calendar's fire loop — the hottest edge of a large sweep, 10⁵–10⁶ flips
/// per run — touches exactly this record on the idle-flip fast path: the
/// RNG for the follow-up draw, the transition clocks, and the flag bits the
/// census and idle list need. Keeping them off the VolunteerHost object
/// means a flip costs one cache line, not a pointer chase through hosts_.
/// The interval distributions are pool-uniform, so their parameters live
/// once in the server, not per record.
struct alignas(64) ChurnState {
  util::Rng rng;                       // follow-up interval draws (32 B)
  sim::SimTime next_transition = 0.0;  // absolute time of the next flip
  sim::SimTime lifetime_end = 0.0;     // absolute departure time
  std::uint8_t online = 0;
  std::uint8_t departed = 0;
  /// In the server's idle list (set on push, cleared on pop) — O(1) dedup.
  std::uint8_t idle_listed = 0;
  /// Mirrors VolunteerHost::task_ so census updates and dispatch probes
  /// need not touch the host object.
  std::uint8_t has_task = 0;
  // Cached census contribution last pushed to the server.
  std::uint8_t census_online = 0;
  std::uint8_t census_free = 0;
  std::uint8_t census_departed = 0;
};

class VolunteerHost {
 public:
  /// `churn` is this host's record in the server's dense churn-state
  /// array; the reference stays valid for the host's lifetime (the array
  /// is reserved up front and never reallocates).
  VolunteerHost(sim::Simulation& sim, BoincServer& server,
                std::uint64_t id, HostParams params, ChurnState& churn);
  ~VolunteerHost();
  VolunteerHost(const VolunteerHost&) = delete;
  VolunteerHost& operator=(const VolunteerHost&) = delete;

  std::uint64_t id() const { return id_; }
  double speed() const { return params_.speed; }
  bool online() const { return churn_.online != 0 && churn_.departed == 0; }
  bool departed() const { return churn_.departed != 0; }
  bool computing() const { return task_.has_value(); }

  /// Begin life: seeds the lifetime clock and the first availability
  /// transition. The host starts idle, so its churn parks in the server's
  /// pool calendar rather than the kernel event queue.
  void start(bool initially_online);

  /// Server pushes a task (result instance) to this host. Preconditions:
  /// online and idle. With the transfer model on, the data sizes stage as
  /// contended download/upload events around the compute phase; otherwise
  /// they are already folded into `reference_work` (free staging).
  void assign(std::uint64_t result_id, double reference_work,
              double input_mb = 0.0, double output_mb = 0.0);

  /// Server-side abort (workunit cancelled/validated elsewhere).
  void abort_task(std::uint64_t result_id);

 private:
  friend class BoincServer;  // churn/census bookkeeping, churn_step

  /// Task lifecycle with the transfer model on: kDownload (input staging
  /// in flight) -> kCompute -> kUpload (output in flight; the report fires
  /// on completion). With it off, tasks are born in kCompute. Transfers
  /// keep flowing across availability flips (BOINC clients network in the
  /// background); only the compute phase pauses with the host.
  enum class TaskPhase : std::uint8_t { kDownload, kCompute, kUpload };

  struct Task {
    std::uint64_t result_id;
    double remaining_work;  // reference seconds
    double cpu_spent = 0.0;
    double output_mb = 0.0;
    /// Output fingerprint decided at compute end, reported after upload.
    std::uint64_t pending_hash = 0;
    /// In-flight transfer id (0 = none).
    std::uint64_t transfer = 0;
    std::uint32_t link_class = 0;
    TaskPhase phase = TaskPhase::kCompute;
  };

  /// Calendar key of this host (ids are dense, assigned from 1).
  std::uint32_t key() const { return static_cast<std::uint32_t>(id_ - 1); }

  /// Apply the churn event due at min(next_transition, lifetime_end) —
  /// an on/off flip or the permanent departure — drawing the following
  /// interval from the flip time, then re-arm in the current mode.
  void churn_step(sim::SimTime when);
  /// Arm the next churn step: a computing host needs its flip at the
  /// exact time (it pauses the kernel-visible completion event), so it
  /// gets a kernel event; an idle host's flip only moves census counts
  /// and idle-list membership, which no one observes before the next
  /// pool interaction — it parks in the server's pool calendar and is
  /// batch-advanced at that barrier.
  void arm_churn();
  /// Leaving computing mode: churn moves from the kernel event back to
  /// the pool calendar.
  void after_task_cleared();
  void depart();
  void resume_task();
  void pause_task();
  void complete_task();
  void request_work();
  /// Transfer-completion callbacks (net::NetworkModel fires these through
  /// the sim kernel, latency included). Guarded by result id + phase: a
  /// zero-size transfer cannot be cancelled, so a stale callback may
  /// arrive after the task moved on and must be a no-op.
  void on_download_complete(std::uint64_t result_id);
  void on_upload_complete(std::uint64_t result_id);
  /// Push the delta between this host's cached census contribution and its
  /// current state (online / free / departed) to the server, keeping the
  /// server's ResourceInfo counts O(1). Called after every state mutation.
  void sync_census();

  sim::Simulation& sim_;
  BoincServer& server_;
  std::uint64_t id_;
  HostParams params_;
  /// This host's record in the server's dense churn-state array (owns the
  /// RNG, the transition clocks, and the census/idle flag bits).
  ChurnState& churn_;

  std::optional<Task> task_;
  sim::SimTime compute_started_ = 0.0;
  sim::EventHandle completion_;
  /// Exact-time churn event while computing (see arm_churn).
  sim::EventHandle wake_;
};

}  // namespace lattice::boinc
