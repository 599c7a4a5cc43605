// The BOINC server complex, implemented as a grid::LocalResource so the
// meta-scheduler treats the volunteer pool like any other resource. Models
// the daemons of a real BOINC project:
//   feeder/scheduler RPC — hands unsent results to requesting hosts;
//   transitioner        — times out overdue results and issues replacements
//                          ("periodically reissue work if results are not
//                          received in a timely manner");
//   validator           — forms a quorum of agreeing results;
//   assimilator         — reports the canonical result to the grid level.
//
// Scalability (the 10⁵-host pass): every per-decision structure is
// indexed — unsent results live in one feeder queue (FeederQueue, O(1)
// amortized per scan step), report deadlines live in a lazy-deletion
// min-heap so the transitioner touches only overdue results instead of
// sweeping every workunit, hosts are addressed by id through a
// dense index instead of linear scans, idle registration is O(1) via a
// listed flag, and the ResourceInfo census (online/free/departed counts)
// is maintained incrementally by host state-change hooks so info() is
// O(1) instead of O(hosts). Invalidation rules are in DESIGN.md §10.
#pragma once

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "boinc/config.hpp"
#include "boinc/feeder.hpp"
#include "boinc/host.hpp"
#include "boinc/workunit.hpp"
#include "grid/resource.hpp"
#include "sim/calendar.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace lattice::net {
class NetworkModel;
}

namespace lattice::boinc {

class BoincServer final : public grid::LocalResource {
 public:
  BoincServer(sim::Simulation& sim, std::string name, BoincPoolConfig config);
  ~BoincServer() override;

  // grid::LocalResource interface -------------------------------------
  void info_into(grid::ResourceInfo& out) const override;
  /// Submit with the pool's default report deadline (plus the expected
  /// staging time when the network model is on).
  void submit(grid::GridJob& job) override;
  /// Submit with an explicit per-result report deadline (seconds), as the
  /// grid level's estimate-derived deadline policy does (paper §VI.A).
  void submit(grid::GridJob& job, double delay_bound);
  void cancel(std::uint64_t job_id) override;

  // Host-facing RPC ----------------------------------------------------
  /// A host asks for work. Returns true and assigns a task when one is
  /// available and suitable.
  bool request_work(VolunteerHost& host);
  /// A host reports a finished task. Subject to the config's report-path
  /// faults: the report may be silently dropped (the transitioner recovers
  /// via the deadline) or deferred before delivery.
  void report_result(std::uint64_t result_id, double cpu_seconds,
                     std::uint64_t output_hash);
  /// A host reports a failed task.
  void report_error(std::uint64_t result_id, double cpu_seconds);
  /// A host departed permanently while holding this task.
  void notify_departure(std::uint64_t result_id);
  /// An idle online host signs on (server pokes it when work arrives).
  /// O(1): the flag mirrors idle_hosts_ membership exactly (set on push,
  /// cleared on pop), replacing the seed's linear std::find dedup.
  void register_idle(VolunteerHost& host) {
    register_idle_key(host.key(), churn_state_[host.key()]);
  }

  // Introspection for tests/benches ------------------------------------
  const std::map<std::uint64_t, Workunit>& workunits() const {
    return workunits_;
  }
  /// Online hosts as of now() — advances the host calendar first so the
  /// incremental census is exact at the observation point.
  std::size_t online_hosts() const;
  /// Churn steps processed through the pool calendar (lazy idle-host
  /// flips that never entered the kernel event queue).
  std::uint64_t calendar_steps() const { return calendar_.fired(); }
  std::uint64_t reissued_results() const { return reissued_; }
  std::uint64_t timed_out_results() const { return timeouts_; }
  /// Unsent results sitting in the feeder queue — the server-side backlog
  /// signal the portal's admission control watches (load shedding kicks in
  /// when this crosses its watermark).
  std::size_t feeder_backlog() const { return feeder_.size(); }
  /// Workunits validated with a flawed canonical result (a host error that
  /// slipped past the redundancy policy). Zero output hash marks the
  /// correct computation in this model.
  std::uint64_t corrupted_validations() const { return corrupted_; }
  double wasted_duplicate_cpu_seconds() const { return wasted_duplicate_; }
  /// CPU-seconds thrown away when hosts abort tasks (deadline timeouts,
  /// workunit cancellation) — checkpointed progress that never reports.
  double discarded_cpu_seconds() const { return discarded_cpu_; }
  double total_cpu_seconds() const { return total_cpu_; }
  /// Called by hosts when a task is dropped with partial progress.
  void note_discarded_cpu(double cpu_seconds) {
    discarded_cpu_ += cpu_seconds;
  }
  const BoincPoolConfig& config() const { return config_; }
  /// The pool's transfer cost model, or nullptr when config.network is
  /// disabled (free staging). Hosts start downloads/uploads through it;
  /// the fault injector drives [link.*]/[uplink] windows through it.
  net::NetworkModel* network() { return network_.get(); }
  const net::NetworkModel* network() const { return network_.get(); }
  /// Host-side helper: cancel an in-flight transfer (no-op without a
  /// network model). Defined in server.cpp where NetworkModel is complete.
  void cancel_transfer(std::uint64_t transfer_id);

  /// Test knob: run the transitioner as the seed's full workunit-table
  /// sweep instead of the deadline heap. The two paths are
  /// interaction-identical by construction; the property test
  /// (tests/test_sched_index.cpp) runs twin scenarios under both and
  /// demands bit-identical outcomes.
  void set_transitioner_full_sweep(bool full_sweep) {
    transitioner_full_sweep_ = full_sweep;
  }
  /// Deadline-heap entries currently alive (including lazily deleted
  /// stragglers awaiting pop). Exposed for tests.
  std::size_t deadline_heap_entries() const { return deadline_heap_.size(); }

  /// Credit granted to a host (cobblestone-style: normalized CPU-seconds
  /// of *validated* work — results whose output matched the canonical
  /// fingerprint; flawed or wasted results earn nothing).
  double host_credit(std::uint64_t host_id) const;
  double total_credit() const;
  /// (host_id, credit) pairs of the hosts that earned canonical credit,
  /// highest credit first and ties by ascending host id — the public
  /// leaderboard every BOINC project runs.
  std::vector<std::pair<std::uint64_t, double>> credit_leaderboard(
      std::size_t top_n = 10) const;
  /// Consecutive valid results delivered by a host (adaptive replication's
  /// trust metric).
  int host_valid_streak(std::uint64_t host_id) const;
  bool host_trusted(std::uint64_t host_id) const;

 private:
  friend class VolunteerHost;

  /// Overdue deadline-heap entry, lazily deleted: valid only while the
  /// named result is still kInProgress (a result's deadline is set exactly
  /// once, at dispatch).
  struct DeadlineEntry {
    double deadline;
    std::uint64_t result_id;
    bool operator>(const DeadlineEntry& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return result_id > other.result_id;
    }
  };

  /// Where a result lives: owning workunit (stable: workunits_ is a
  /// node-based map) and position in its results vector (stable:
  /// append-only).
  struct ResultLoc {
    Workunit* workunit;
    std::uint32_t index;
  };

  /// Advance the host calendar to now() — the conservative lookahead
  /// barrier. Called at every cross-pool interaction point (census reads,
  /// dispatch, the transitioner tick) so idle-host churn is applied, in
  /// strict (when, seq) order, before anything observes or assigns host
  /// state (sim/calendar.hpp).
  void advance_pool();
  /// One interval draw from the pool-uniform churn distribution:
  /// exponential when the Weibull shape is 1.0 (identical draw sequence to
  /// the original model), mean-preserving Weibull otherwise. `scale` is a
  /// precomputed churn_*_scale_ member — the Γ(1 + 1/shape) normalization
  /// is folded in once at construction instead of once per flip.
  static double churn_draw(util::Rng& rng, double shape, double scale) {
    if (shape == 1.0) return rng.exponential(scale);
    return rng.weibull(shape, scale);
  }
  /// O(1) idle-list push by host key, dedup'd via the record's flag.
  void register_idle_key(std::uint32_t key, ChurnState& st) {
    if (st.idle_listed != 0) return;
    st.idle_listed = 1;
    idle_hosts_.push_back(key);
  }
  /// Push the delta between a record's cached census contribution and its
  /// current state (online / free / departed), keeping the server's
  /// ResourceInfo counts O(1). Called after every host state mutation.
  void sync_census(ChurnState& st) {
    const bool online_now = st.online != 0 && st.departed == 0;
    const bool free_now = online_now && st.has_task == 0;
    const bool departed_now = st.departed != 0;
    census_delta(
        static_cast<int>(online_now) - static_cast<int>(st.census_online),
        static_cast<int>(free_now) - static_cast<int>(st.census_free),
        static_cast<int>(departed_now) - static_cast<int>(st.census_departed));
    st.census_online = static_cast<std::uint8_t>(online_now);
    st.census_free = static_cast<std::uint8_t>(free_now);
    st.census_departed = static_cast<std::uint8_t>(departed_now);
  }
  /// Calendar fire handler: one idle-host availability flip. The calendar
  /// only ever holds taskless hosts (assign() moves churn to an exact
  /// kernel event), so the fast path reads and writes exactly one
  /// ChurnState record — no VolunteerHost dereference — plus the census
  /// counters, idle list, and calendar re-arm. Defined in-class so the
  /// calendar's templated advance() inlines the whole per-flip edge.
  void churn_fire(std::uint32_t key, sim::SimTime when) {
    ChurnState& st = churn_state_[key];
    if (st.departed != 0) return;
    if (st.lifetime_end <= st.next_transition) {
      hosts_[key]->depart();  // rare: at most once per host
      return;
    }
    // The follow-up interval is drawn from the flip time itself, so a
    // host's own timeline is exact even when the flip is processed at a
    // later barrier.
    (void)when;  // == min(next_transition, lifetime_end) by construction
    const sim::SimTime flip = st.next_transition;
    if (st.online != 0) {
      st.online = 0;
      sync_census(st);
      st.next_transition =
          flip + churn_draw(st.rng, churn_shape_, churn_off_scale_);
    } else {
      st.online = 1;
      sync_census(st);
      register_idle_key(key, st);
      st.next_transition =
          flip + churn_draw(st.rng, churn_shape_, churn_on_scale_);
    }
    calendar_.schedule(std::min(st.next_transition, st.lifetime_end), key);
  }
  void transition();
  void transition_full_sweep();
  /// Apply the timeout protocol to one overdue in-progress result;
  /// `reissue_needed` accumulates per-workunit.
  void time_out_result(Workunit& wu, Result& result);
  /// Per-workunit reissue step after its timeouts this transition.
  void reissue_after_timeouts(Workunit& wu);
  void on_observability() override;
  /// The report actually reaching the server (report_result minus the
  /// fault-injected drop/delay on the way in).
  void deliver_report(std::uint64_t result_id, double cpu_seconds,
                      std::uint64_t output_hash);
  /// Close a result's trace span and stamp deadline metrics when it leaves
  /// the in-progress state (report, error, timeout, abort).
  void observe_result_end(const Result& result, std::string_view reason);
  Result* find_result(std::uint64_t result_id);
  Workunit* workunit_of(std::uint64_t workunit_id);
  Workunit* workunit_of_result(std::uint64_t result_id);
  VolunteerHost* host_by_id(std::uint64_t host_id);
  void issue_result(Workunit& wu);
  void try_dispatch();
  void validate(Workunit& wu);
  void finish_workunit(Workunit& wu, bool success, const std::string& why);
  /// Abort every outstanding result of `wu` (server-side cancel on next
  /// contact, modeled as immediate): in-progress ones close their span with
  /// `reason` and leave their host; unsent ones just stop being sendable.
  void abort_outstanding(Workunit& wu, std::string_view reason);
  /// Bump `hash`'s tally in votes_scratch_ (≤ max_total_results entries, so
  /// a linear probe beats a per-validation std::map allocation).
  void tally_vote(std::uint64_t hash) {
    for (auto& [seen, count] : votes_scratch_) {
      if (seen == hash) {
        ++count;
        return;
      }
    }
    votes_scratch_.emplace_back(hash, 1);
  }
  /// Incremental ResourceInfo census: hosts report state-change deltas
  /// (online = powered on and attached, free = online with no task,
  /// departed = permanently gone) so info() never scans the host table.
  /// In-class: runs once per churn flip, the hottest edge of a large sweep.
  void census_delta(int online, int free, int departed) {
    online_count_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(online_count_) + online);
    free_count_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(free_count_) + free);
    departed_count_ = static_cast<std::size_t>(
        static_cast<std::ptrdiff_t>(departed_count_) + departed);
  }

  BoincPoolConfig config_;
  util::Rng rng_;
  /// Transfer cost model (config_.network.enabled); null = free staging.
  std::unique_ptr<net::NetworkModel> network_;
  /// Idle-host churn timers, keyed by host.
  sim::Calendar calendar_;
  /// Dense per-host churn records, indexed by host key (id - 1) — one
  /// cache line each, so the calendar fire loop streams records instead of
  /// chasing host pointers. Reserved up front; hosts hold references.
  std::vector<ChurnState> churn_state_;
  /// Pool-uniform churn interval parameters (see churn_draw): Weibull
  /// shape plus the precomputed scales of the on/off/lifetime intervals.
  double churn_shape_ = 1.0;
  double churn_on_scale_ = 0.0;
  double churn_off_scale_ = 0.0;
  double churn_life_scale_ = 0.0;
  std::vector<std::unique_ptr<VolunteerHost>> hosts_;
  std::map<std::uint64_t, Workunit> workunits_;
  /// Dense result-id → location index (ids are assigned sequentially from
  /// 1, so entry i describes result i + 1): O(1) result lookup on every
  /// report/dispatch/timeout instead of two tree searches.
  std::vector<ResultLoc> results_index_;
  /// Unsent results awaiting dispatch. The pool is platform-homogeneous
  /// by construction (every host runs config_.platform), so one feeder
  /// serves every request.
  FeederQueue feeder_;
  std::vector<std::uint32_t> idle_hosts_;  // keys of online, taskless hosts
  /// Scratch for one try_dispatch round: popped hosts the feeder had no
  /// suitable result for, re-listed after the round.
  std::vector<std::uint32_t> dispatch_scratch_;
  /// Min-heap over (deadline, result id) of dispatched results; the
  /// transitioner pops only the overdue prefix.
  std::vector<DeadlineEntry> deadline_heap_;
  /// Scratch for one transition's overdue set, sorted to the full-sweep
  /// visit order (workunit id, then result id).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> overdue_scratch_;
  /// Scratch output-hash tally for validate()/finish_workunit().
  std::vector<std::pair<std::uint64_t, int>> votes_scratch_;
  std::unique_ptr<sim::PeriodicTask> transitioner_;
  bool transitioner_full_sweep_ = false;

  std::uint64_t next_workunit_id_ = 1;
  std::uint64_t next_result_id_ = 1;
  std::uint64_t reissued_ = 0;
  std::uint64_t timeouts_ = 0;
  double wasted_duplicate_ = 0.0;
  double discarded_cpu_ = 0.0;
  double total_cpu_ = 0.0;
  /// Validation ledger of one host.
  struct HostLedger {
    /// Credit granted for canonical results (cobblestone-style).
    double credit = 0.0;
    /// Consecutive canonical results; a disagreeing return resets it.
    int valid_streak = 0;
    /// Whether any canonical result was ever credited (leaderboard
    /// membership, independent of the amount).
    bool credited = false;
  };
  /// Dense per-host ledger indexed by host key (id - 1), sized once with
  /// the pool: host ids are dense from 1 and hosts are never removed.
  std::vector<HostLedger> ledger_;
  std::uint64_t corrupted_ = 0;

  // Incremental host census (see census_delta).
  std::size_t online_count_ = 0;
  std::size_t free_count_ = 0;
  std::size_t departed_count_ = 0;

  // Observability (bound to the null sinks until set_observability).
  obs::Counter* obs_wu_created_ = nullptr;
  obs::Counter* obs_wu_validated_ = nullptr;
  obs::Counter* obs_wu_failed_ = nullptr;
  obs::Counter* obs_results_issued_ = nullptr;
  obs::Counter* obs_results_sent_ = nullptr;
  obs::Counter* obs_results_success_ = nullptr;
  obs::Counter* obs_results_error_ = nullptr;
  obs::Counter* obs_results_timed_out_ = nullptr;
  obs::Counter* obs_results_reissued_ = nullptr;
  obs::Counter* obs_deadline_misses_ = nullptr;
  obs::Counter* obs_reports_dropped_ = nullptr;
  obs::Counter* obs_reports_delayed_ = nullptr;
  obs::Histogram* obs_deadline_slack_ = nullptr;
  obs::Histogram* obs_dispatch_wait_ = nullptr;
};

// VolunteerHost churn path, defined here (where BoincServer is complete).
// These cover the *kernel-event* flips of task-holding hosts and the state
// transitions around assignment; the idle-host flip fast path is
// BoincServer::churn_fire, which never touches the host object. Both paths
// mutate the same ChurnState record and draw from the same pool-uniform
// distributions, so a host's timeline is identical whichever path fires
// its flips.

inline void VolunteerHost::arm_churn() {
  const sim::SimTime due = std::min(churn_.next_transition,
                                    churn_.lifetime_end);
  if (task_) {
    // Computing: the flip pauses the kernel-visible completion event, so
    // it must fire at its exact time — a kernel event.
    wake_ = sim_.at(due, [this] { churn_step(sim_.now()); });
  } else {
    // Idle: the flip only moves census counts and idle-list membership,
    // observed no earlier than the next pool interaction — park it in the
    // pool calendar (batch-advanced at that barrier).
    server_.calendar_.schedule(due, key());
  }
}

inline void VolunteerHost::after_task_cleared() {
  if (churn_.departed != 0) return;
  sim_.cancel(wake_);
  arm_churn();
}

inline void VolunteerHost::sync_census() {
  churn_.has_task = static_cast<std::uint8_t>(task_.has_value());
  server_.sync_census(churn_);
}

inline void VolunteerHost::churn_step(sim::SimTime when) {
  if (churn_.departed != 0) return;
  (void)when;  // == min(next_transition, lifetime_end) by construction
  if (churn_.lifetime_end <= churn_.next_transition) {
    depart();
    return;
  }
  // The follow-up interval is drawn from the flip time itself, so a
  // host's own timeline is exact even when the flip is processed at a
  // later barrier.
  const sim::SimTime flip = churn_.next_transition;
  if (churn_.online != 0) {
    // Only the compute phase pauses with the host; in-flight transfers
    // keep moving (the BOINC client networks in the background).
    if (task_ && task_->phase == TaskPhase::kCompute) pause_task();
    churn_.online = 0;
    sync_census();
    churn_.next_transition =
        flip + BoincServer::churn_draw(churn_.rng, server_.churn_shape_,
                                       server_.churn_off_scale_);
  } else {
    churn_.online = 1;
    sync_census();
    if (task_) {
      // Resumes compute (including a download that completed while the
      // host was off and parked as a checkpointed kCompute task);
      // kDownload/kUpload tasks are still waiting on their transfer.
      if (task_->phase == TaskPhase::kCompute) resume_task();
    } else {
      server_.register_idle(*this);
    }
    churn_.next_transition =
        flip + BoincServer::churn_draw(churn_.rng, server_.churn_shape_,
                                       server_.churn_on_scale_);
  }
  arm_churn();
}

}  // namespace lattice::boinc
