// Volunteer host data: heterogeneous speeds (lognormal, the classic BOINC
// host distribution shape), on/off availability churn, permanent departure,
// checkpoint-aware computation (the paper's team built a special GARLI with
// checkpointing so progress survives host downtime), and a small
// probability of returning a wrong result (exercises quorum validation).
// Pure data: every host behaviour is a BoincServer method keyed by host
// key (id - 1), so one class owns the whole lifecycle.
#pragma once

#include <cstdint>

#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace lattice::boinc {

/// Per-host churn state, packed into one cache line and stored densely in
/// the server (`BoincServer::churn_state_`, indexed by host key). The
/// calendar's fire loop — the hottest edge of a large sweep, 10⁵–10⁶ flips
/// per run — touches exactly this record on the idle-flip path: the RNG
/// for the follow-up draw, the transition clocks, and the flag bits the
/// census and idle list need. Keeping them off the cold VolunteerHost
/// record means an idle flip costs one cache line, not two.
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
  /// The host holds a task (its HostTask slot is live). The only such
  /// flag, kept here so census updates, dispatch probes and idle flips
  /// need not touch the task pool.
  std::uint8_t has_task = 0;
  // Cached census contribution last pushed to the server.
  std::uint8_t census_online = 0;
  std::uint8_t census_free = 0;
  std::uint8_t census_departed = 0;
  /// Index of the host's slot in `BoincServer::task_slots_`; meaningful
  /// only while has_task is set. Sits in the tail padding.
  std::uint32_t task_slot = 0;
};
static_assert(sizeof(ChurnState) == 64, "one cache line per churn record");

/// Task lifecycle with the transfer model on: kDownload (input staging
/// in flight) -> kCompute -> kUpload (output in flight; the report fires
/// on completion). With it off, tasks are born in kCompute. Transfers
/// keep flowing across availability flips (BOINC clients network in the
/// background); only the compute phase pauses with the host.
enum class TaskPhase : std::uint8_t { kDownload, kCompute, kUpload };

struct Task {
  std::uint64_t result_id = 0;
  double remaining_work = 0.0;  // reference seconds
  double cpu_spent = 0.0;
  double output_mb = 0.0;
  /// Output fingerprint decided at compute end, reported after upload.
  std::uint64_t pending_hash = 0;
  /// In-flight transfer id (0 = none).
  std::uint64_t transfer = 0;
  std::uint32_t link_class = 0;
  TaskPhase phase = TaskPhase::kCompute;
};

/// What a host holds only while it holds a task, pooled in
/// `BoincServer::task_slots_` (one slot per concurrent task, reused
/// through a free list), so a host without a task carries none of it.
struct HostTask {
  Task task;
  sim::SimTime compute_started = 0.0;
  /// When the compute phase ends at the host's speed; kNever while the
  /// task is not computing (downloading, uploading or paused offline).
  sim::SimTime completion_at = kNever;
  /// The host's one kernel event, armed at min(churn step, completion_at)
  /// (see BoincServer::arm_churn).
  sim::EventHandle timer;

  static constexpr sim::SimTime kNever = sim::Simulation::kForever;
};

/// Cold per-host record, indexed by host key in `BoincServer::hosts_`:
/// what only dispatch or the validator reads.
struct VolunteerHost {
  double speed = 1.0;  // relative to the reference machine
  /// Flaky class (BoincPoolConfig::flaky_host_fraction): the host takes
  /// the pool's flaky corruption and compute-error rates instead of the
  /// baseline ones.
  bool flaky = false;
  /// Whether any canonical result was ever credited (leaderboard
  /// membership, independent of the amount).
  bool credited = false;
  /// Consecutive canonical results; a disagreeing return resets it.
  int valid_streak = 0;
  /// Credit granted for canonical results (cobblestone-style).
  double credit = 0.0;
};
static_assert(sizeof(VolunteerHost) <= 24, "cold host record stays small");

}  // namespace lattice::boinc
