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
#include <deque>
#include <memory>
#include <optional>
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

  // Introspection for tests/benches ------------------------------------
  /// Every workunit, in id order: entry i is workunit i + 1.
  const std::deque<Workunit>& workunits() const { return workunits_; }
  /// The results issued for `wu`, in issuance order.
  ResultChain<const std::deque<Result>> results_of(const Workunit& wu) const {
    return {results_, wu};
  }
  /// Online hosts as of now() — advances the host calendar first so the
  /// incremental census is exact at the observation point.
  std::size_t online_hosts() const;
  /// Host census recounted from the churn records, without advancing the
  /// calendar: what the incremental counts behind info() and
  /// online_hosts() must equal at any barrier. The run-end audit
  /// (core::audit) compares the two; a missed census hook shows there.
  struct Census {
    std::size_t online = 0;
    std::size_t free = 0;
    std::size_t departed = 0;
  };
  Census census_recount() const;
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
  const BoincPoolConfig& config() const { return config_; }
  /// The pool's transfer cost model, or nullptr when config.network is
  /// disabled (free staging). Hosts start downloads/uploads through it;
  /// the fault injector drives [link.*]/[uplink] windows through it.
  net::NetworkModel* network() { return network_.get(); }
  const net::NetworkModel* network() const { return network_.get(); }

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
  /// Task-state slots the pool has ever allocated: the high-water mark of
  /// concurrently held tasks (freed slots are reused). Exposed for tests.
  std::size_t task_slots() const { return task_slots_.size(); }

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
  void register_idle(std::uint32_t key, ChurnState& st) {
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
  /// Apply the churn event due at min(next_transition, lifetime_end) — an
  /// on/off flip or the permanent departure — drawing the following
  /// interval from the flip time, then re-arm. The one flip for both
  /// paths: the calendar fires it for idle hosts, the host's kernel timer
  /// for task-holding ones. Only a task-holding host's flip reads its task
  /// slot (to pause or resume compute), so the idle edge touches one
  /// churn record plus the census counters, idle list and calendar
  /// re-arm. Defined in-class so the calendar's templated advance()
  /// inlines the idle edge.
  void flip(std::uint32_t key) {
    ChurnState& st = churn_state_[key];
    if (st.departed != 0) return;
    if (st.lifetime_end <= st.next_transition) {
      depart(key);  // rare: at most once per host
      return;
    }
    // The follow-up interval is drawn from the flip time itself, so a
    // host's own timeline is exact even when the flip is processed at a
    // later barrier.
    const sim::SimTime flip_time = st.next_transition;
    if (st.online != 0) {
      // Only the compute phase pauses with the host; in-flight transfers
      // keep moving (the BOINC client networks in the background).
      if (st.has_task != 0 && task_of(st).task.phase == TaskPhase::kCompute) {
        pause(key);
      }
      st.online = 0;
      sync_census(st);
      st.next_transition =
          flip_time + churn_draw(st.rng, churn_shape_, churn_off_scale_);
    } else {
      st.online = 1;
      sync_census(st);
      if (st.has_task == 0) {
        register_idle(key, st);
      } else if (task_of(st).task.phase == TaskPhase::kCompute) {
        // Resumes compute, including a download that completed while the
        // host was off and parked as a checkpointed kCompute task;
        // kDownload/kUpload tasks are still waiting on their transfer.
        resume(key);
      }
      st.next_transition =
          flip_time + churn_draw(st.rng, churn_shape_, churn_on_scale_);
    }
    arm_churn(key);
  }
  /// When the host's next churn step (flip or departure) is due.
  static sim::SimTime churn_due(const ChurnState& st) {
    return std::min(st.next_transition, st.lifetime_end);
  }
  /// Arm the next churn step: a task-holding host needs its flip at the
  /// exact time (it pauses and resumes the compute that completes it), so
  /// its one kernel timer fires at min(churn step, completion_at) and
  /// on_timer picks the edge; an idle host's flip only moves census counts
  /// and idle-list membership, which no one observes before the next pool
  /// interaction — it parks in the pool calendar and is batch-advanced at
  /// that barrier. Re-arming a task holder replaces its pending timer.
  void arm_churn(std::uint32_t key) {
    const ChurnState& st = churn_state_[key];
    if (st.has_task == 0) {
      calendar_.schedule(churn_due(st), key);
      return;
    }
    HostTask& slot = task_of(st);
    sim_.cancel(slot.timer);
    slot.timer = sim_.at(std::min(churn_due(st), slot.completion_at),
                         [this, key] { on_timer(key); });
  }
  /// A task holder's timer: its compute completes when that is strictly
  /// earlier than the churn step, so a tie goes to the flip.
  void on_timer(std::uint32_t key) {
    const ChurnState& st = churn_state_[key];
    if (task_of(st).completion_at < churn_due(st)) {
      complete(key);
    } else {
      flip(key);
    }
  }
  /// The task slot of a host holding a task (has_task set).
  HostTask& task_of(const ChurnState& st) { return task_slots_[st.task_slot]; }
  /// Give the host a fresh task slot (the free list first).
  HostTask& take_task_slot(ChurnState& st);
  /// Return the host's slot to the free list, cancelling its timer.
  void release_task_slot(ChurnState& st);

  // Host behaviour, keyed by host key (id - 1) --------------------------
  /// Begin a host's life: seeds the lifetime clock and the first
  /// availability transition. The host starts idle, so its churn parks in
  /// the pool calendar.
  void start(std::uint32_t key, bool initially_online);
  void depart(std::uint32_t key);
  /// An online, taskless host asks for work; with nothing suitable it
  /// registers for a poke (try_dispatch) when work arrives. No backoff
  /// polling — the poke-driven path plus the transitioner's periodic
  /// try_dispatch keep dispatch live, which is what removes the hourly
  /// idle-poll event flood at 10⁵–10⁶ hosts.
  void seek_work(std::uint32_t key);
  /// Feeder scan for one host: assigns the first suitable unsent result
  /// and returns true, or returns false when none suits it.
  bool request_work(std::uint32_t key);
  /// Hand a task (result instance) to an online, idle host. With the
  /// transfer model on, the data sizes stage as contended download/upload
  /// events around the compute phase; otherwise they are already folded
  /// into `reference_work` (free staging).
  void assign(std::uint32_t key, std::uint64_t result_id,
              double reference_work, double input_mb, double output_mb);
  /// Start (or restart) the compute phase: sets completion_at. Like
  /// pause, it leaves re-arming the timer to the caller.
  void resume(std::uint32_t key);
  /// Checkpointing: progress to date is preserved across downtime.
  void pause(std::uint32_t key);
  void complete(std::uint32_t key);
  /// Transfer-completion callbacks (net::NetworkModel fires these through
  /// the sim kernel, latency included). Guarded by result id + phase: a
  /// zero-size transfer cannot be cancelled, so a stale callback may
  /// arrive after the task moved on and must be a no-op.
  void on_download_complete(std::uint32_t key, std::uint64_t result_id);
  void on_upload_complete(std::uint32_t key, std::uint64_t result_id);
  /// Server-side abort (timeout, or workunit cancelled/decided elsewhere):
  /// the partial progress is discarded and the host seeks new work.
  void abort_task(std::uint32_t key, std::uint64_t result_id);
  /// Drop the host's task: the slot returns to the pool, the census
  /// updates, and churn moves from the kernel timer back to the calendar.
  void clear_task(std::uint32_t key);
  /// A host finished a task. Subject to the config's report-path faults:
  /// the report may be silently dropped (the transitioner recovers via the
  /// deadline) or deferred before delivery.
  void report_result(std::uint64_t result_id, double cpu_seconds,
                     std::uint64_t output_hash);
  /// A host failed a task outright.
  void report_error(std::uint64_t result_id, double cpu_seconds);
  void transition();
  void transition_full_sweep();
  /// Apply the timeout protocol to one overdue in-progress result;
  /// `reissue_needed` accumulates per-workunit.
  void time_out_result(Result& result);
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
  /// The results of `wu`, writable, in issuance order.
  ResultChain<std::deque<Result>> chain(const Workunit& wu) {
    return {results_, wu};
  }
  /// Results of `wu` still unsent or in progress.
  int outstanding(const Workunit& wu) const;
  Workunit* workunit_of(std::uint64_t workunit_id);
  Workunit* workunit_of_result(std::uint64_t result_id);
  /// Key of the host a dispatched result went to (ids are key + 1).
  static std::uint32_t host_key(const Result& result) {
    return static_cast<std::uint32_t>(result.host_id - 1);
  }
  void issue_result(Workunit& wu);
  void try_dispatch();
  void validate(Workunit& wu);
  /// Close `wu`: validated with `canonical` as its majority output hash,
  /// or failed for `why` when there is none.
  void finish_workunit(Workunit& wu, const std::string& why,
                       std::optional<std::uint64_t> canonical = std::nullopt);
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
  /// chasing host pointers.
  std::vector<ChurnState> churn_state_;
  /// Pool-uniform churn interval parameters (see churn_draw): Weibull
  /// shape plus the precomputed scales of the on/off/lifetime intervals.
  double churn_shape_ = 1.0;
  double churn_on_scale_ = 0.0;
  double churn_off_scale_ = 0.0;
  double churn_life_scale_ = 0.0;
  /// Cold per-host records, indexed by host key (id - 1); hosts are never
  /// removed. A deque rather than one reserved vector: at 10⁶ hosts a
  /// single 24 MB block sits above malloc's mmap threshold, so every pool
  /// build page-faults it in fresh, while the deque's small blocks are
  /// reused from the allocator's free lists across builds.
  std::deque<VolunteerHost> hosts_;
  /// Task state of the hosts holding one, indexed by
  /// ChurnState::task_slot: a slot is live iff its host's has_task is
  /// set. A deque, so growing it neither copies the live slots nor asks
  /// for one large block; freed slots wait in free_task_slots_ for the
  /// next assign.
  std::deque<HostTask> task_slots_;
  std::vector<std::uint32_t> free_task_slots_;
  /// Workunits indexed by id - 1: ids are handed out densely from 1 and
  /// workunits are never erased. A deque, so live_workunits_ may
  /// point into it: push_back moves no element.
  std::deque<Workunit> workunits_;
  /// Grid job id → its undecided workunit (nullptr: none), for cancel: a
  /// job the grid level placed here again after a failure has older,
  /// decided workunits too, and cancel must reach the live one. Set at
  /// submit, cleared when the workunit is decided or cancelled. Indexed by
  /// id because grid job ids are dense from 1 (DESIGN.md §16); a std::map
  /// here cost the volunteer_1m benchmark ~20% of its job throughput.
  std::vector<Workunit*> live_workunits_;
  /// Every result ever issued, indexed by id - 1 (ids are handed out
  /// densely from 1): O(1) lookup on every report, dispatch and timeout. A
  /// workunit's own results are a chain through it (ResultChain), so no
  /// workunit allocates at any quorum.
  std::deque<Result> results_;
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
  /// Scratch output-hash tally for validate().
  std::vector<std::pair<std::uint64_t, int>> votes_scratch_;
  std::unique_ptr<sim::PeriodicTask> transitioner_;
  bool transitioner_full_sweep_ = false;

  std::uint64_t reissued_ = 0;
  std::uint64_t timeouts_ = 0;
  double wasted_duplicate_ = 0.0;
  double discarded_cpu_ = 0.0;
  double total_cpu_ = 0.0;
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

}  // namespace lattice::boinc
