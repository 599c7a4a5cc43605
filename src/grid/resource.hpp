// Local resources and their resource managers (LRMs). The paper's grid
// federates four kinds of local resource: dedicated clusters under PBS or
// SGE (stable, FIFO batch queues), institutional desktop pools under Condor
// (opportunistic: jobs are preempted when the machine's owner returns), and
// a BOINC volunteer pool (src/boinc implements the same interface).
//
// All resources run on the shared discrete-event Simulation. Jobs are owned
// by the grid level (core::LatticeSystem); resources hold non-owning
// pointers for the duration of a placement.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "grid/classad.hpp"
#include "grid/job.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace lattice::grid {

enum class ResourceKind : std::uint8_t {
  kPbsCluster,
  kSgeCluster,
  kCondorPool,
  kBoincPool,
};

std::string_view resource_kind_name(ResourceKind kind);

/// Snapshot advertised by a resource's "scheduler provider" and aggregated
/// by MDS — the only view of the resource the meta-scheduler gets.
struct ResourceInfo {
  std::string name;
  ResourceKind kind = ResourceKind::kPbsCluster;
  std::size_t total_slots = 0;
  std::size_t free_slots = 0;
  std::size_t queued_jobs = 0;
  double node_memory_gb = 0.0;
  std::vector<PlatformSpec> platforms;
  bool mpi_capable = false;
  std::vector<std::string> software;
  /// Whether long jobs survive here (clusters yes; desktop pools no).
  bool stable = true;
};

struct JobOutcome {
  /// kNone means the attempt completed; anything else classifies the
  /// failure so the grid level's retry policy can branch on cause.
  FailureCause cause = FailureCause::kNone;
  /// CPU-seconds consumed by this attempt (wall time on the executing
  /// machine), whether or not it completed.
  double cpu_seconds = 0.0;
  std::string reason;  // "completed", "preempted", "cancelled", ...

  bool completed() const { return cause == FailureCause::kNone; }
};

using CompletionCallback =
    std::function<void(GridJob&, const JobOutcome&)>;

class LocalResource {
 public:
  LocalResource(sim::Simulation& sim, std::string name);
  virtual ~LocalResource() = default;
  LocalResource(const LocalResource&) = delete;
  LocalResource& operator=(const LocalResource&) = delete;

  const std::string& name() const { return name_; }

  /// The resource's current snapshot. Fills every field of `out` in
  /// place, so periodic reporters reusing one ResourceInfo hit its
  /// string/vector capacity instead of fresh heap blocks per heartbeat.
  virtual void info_into(ResourceInfo& out) const = 0;
  ResourceInfo info() const {
    ResourceInfo out;
    info_into(out);
    return out;
  }
  /// Accept a grid job into the local queue. The job must stay alive until
  /// the completion callback fires.
  virtual void submit(GridJob& job) = 0;
  /// Remove a queued or running job; fires the callback with
  /// reason="cancelled" if the job was present.
  virtual void cancel(std::uint64_t job_id) = 0;

  /// Resource-level outage control (driven by lattice::fault). Entering an
  /// outage fails every held job with FailureCause::kOutage and rejects new
  /// submissions until the outage ends. The default is a no-op so resources
  /// without an outage model (e.g. the volunteer pool, whose unreliability
  /// is per-host) ignore it.
  virtual void set_outage(bool down) { (void)down; }

  /// Invoked on every attempt outcome (success, preemption, cancel).
  void set_completion_callback(CompletionCallback callback) {
    callback_ = std::move(callback);
  }

  /// Re-bind this resource's instruments into real sinks. Defaults are
  /// the null objects; enabling is pure observation (no behavior change).
  void set_observability(obs::MetricsRegistry& metrics, obs::Tracer& tracer);

 protected:
  // The job's stay on this resource. These three are the only writers of
  // GridJob's placement fields (state, resource, queued/start/finish
  // times, attempts, wasted CPU) below the grid level.
  /// Placed here and waiting in the local queue.
  void accept(GridJob& job);
  /// An attempt starts running: start time stamped, attempt counted.
  void begin_attempt(GridJob& job);
  /// The job leaves the resource: completed with its finish time,
  /// cancelled, or failed; a cancelled or failed attempt's CPU counts as
  /// wasted. Then the completion callback fires.
  void finish(GridJob& job, const JobOutcome& outcome);

  /// Subclass hook: re-bind instrument pointers after a sink change.
  virtual void on_observability() {}

  obs::MetricsRegistry& metrics() { return *metrics_; }
  obs::Tracer& tracer() { return *tracer_; }

  sim::Simulation& sim_;

 private:
  std::string name_;
  CompletionCallback callback_;
  obs::MetricsRegistry* metrics_;
  obs::Tracer* tracer_;
};

/// The name of the resource `job` is (or last was) placed on; empty until
/// it is first placed.
inline std::string_view resource_name(const GridJob& job) {
  return job.resource == nullptr ? std::string_view{} : job.resource->name();
}

/// What the two local resource managers (LRMs) — the cluster batch queue
/// and the Condor pool — do alike: the outage protocol (submit bounce,
/// fail-all), cancellation of a queued or running job, the grid.* attempt
/// instruments and the grid.attempt trace span. A subclass owns its queue
/// and its running attempts, decides when queued work starts (try_start)
/// and what else ends an attempt (walltime limit, owner return).
class QueuedResource : public LocalResource {
 public:
  void submit(GridJob& job) final;
  void cancel(std::uint64_t job_id) final;
  void set_outage(bool down) final;

 protected:
  /// One running attempt.
  struct Attempt {
    GridJob* job = nullptr;
    sim::EventHandle completion;
    sim::SimTime started = 0.0;
  };

  using LocalResource::LocalResource;

  bool outage() const { return outage_; }
  /// Start `job`'s attempt now: begin_attempt plus its instruments and
  /// span. The subclass records the returned attempt in its running set
  /// once it has scheduled the completion.
  Attempt start_attempt(GridJob& job);
  /// End an attempt already taken out of the running set: bump the cause's
  /// counter (completed, cancelled, outage, or the LRM's own kill
  /// counter), close the span, start queued work (try_start), then
  /// finish() the job.
  void end_attempt(const Attempt& attempt, FailureCause cause,
                   std::string reason);
  /// Binds the six instruments in snapshot order; every subclass
  /// constructor calls it last.
  void on_observability() override;

 private:
  // Subclass hooks: the queue, the running set and what drives them.
  virtual void enqueue(GridJob& job) = 0;
  /// Take a queued job out of the queue, or nullptr if none is queued.
  virtual GridJob* unqueue(std::uint64_t job_id) = 0;
  /// Take a running attempt out of the running set (job nullptr if none).
  virtual Attempt stop(std::uint64_t job_id) = 0;
  /// Move every queued job and every running attempt out, the running
  /// ones in the resource's own order.
  virtual void drain(std::vector<GridJob*>& queued,
                     std::vector<Attempt>& running) = 0;
  /// Start queued work on free slots; a no-op during an outage.
  virtual void try_start() = 0;
  /// Register the LRM's own kill counter (a literal metric name).
  virtual obs::Counter& kill_counter(obs::MetricsRegistry& metrics) = 0;

  /// A held or submitted job fails with the resource down.
  void fail_for_outage(GridJob& job);

  bool outage_ = false;

  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_kills_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
  obs::Counter* obs_outage_kills_ = nullptr;
  obs::Histogram* obs_queue_wait_ = nullptr;
};

/// Dedicated cluster under a FIFO batch LRM (PBS or SGE). Slots = nodes x
/// cores; every node has the same speed, memory, and platform. Stable: jobs
/// run to completion unless cancelled or the optional walltime limit hits.
class BatchQueueResource : public QueuedResource {
 public:
  struct Config {
    std::size_t nodes = 16;
    std::size_t cores_per_node = 4;
    double node_speed = 1.0;       // relative to the reference machine
    double node_memory_gb = 8.0;
    PlatformSpec platform;
    bool mpi_capable = true;
    std::vector<std::string> software;
    ResourceKind kind = ResourceKind::kPbsCluster;
    /// 0 disables the walltime limit (the paper's portal imposes none).
    double max_walltime = 0.0;
    /// Fixed per-attempt cost (input staging, binary fetch, queue churn).
    /// This is the overhead that replicate bundling amortizes (§VI.A).
    double job_overhead_seconds = 30.0;
    /// Data-staging bandwidth between the grid node and compute nodes.
    static constexpr double kStageMbPerSecond = 50.0;
  };

  BatchQueueResource(sim::Simulation& sim, std::string name, Config config);

  void info_into(ResourceInfo& out) const override;

  const Config& config() const { return config_; }

 private:
  void enqueue(GridJob& job) override { queue_.push_back(&job); }
  GridJob* unqueue(std::uint64_t job_id) override;
  Attempt stop(std::uint64_t job_id) override;
  void drain(std::vector<GridJob*>& queued,
             std::vector<Attempt>& running) override;
  void try_start() override;
  obs::Counter& kill_counter(obs::MetricsRegistry& metrics) override;

  Config config_;
  std::deque<GridJob*> queue_;
  std::vector<Attempt> running_;
};

/// Institutional desktop pool under Condor. Machines cycle between
/// owner-idle (available) and owner-busy; a running grid job is preempted
/// and fails when the owner returns (vanilla-universe semantics). Machine
/// speeds are heterogeneous.
class CondorPool : public QueuedResource {
 public:
  struct Config {
    std::size_t machines = 50;
    double mean_speed = 1.0;
    double speed_sigma = 0.3;      // lognormal sigma around mean_speed
    static constexpr double kMachineMemoryGb = 2.0;
    PlatformSpec platform;
    std::vector<std::string> software;
    double mean_idle_hours = 8.0;  // owner-away stretch
    double mean_busy_hours = 3.0;  // owner-at-keyboard stretch
    /// Lognormal sigma of per-machine memory around kMachineMemoryGb
    /// (institutional desktops are not uniform).
    double memory_sigma = 0.0;
    /// Fixed per-attempt cost (file transfer to the execute machine).
    double job_overhead_seconds = 60.0;
    /// Campus-LAN staging bandwidth to desktop machines.
    static constexpr double kStageMbPerSecond = 10.0;
    std::uint64_t seed = 1;
  };

  CondorPool(sim::Simulation& sim, std::string name, Config config);

  void info_into(ResourceInfo& out) const override;

  /// True machine speeds (exposed for calibration experiments).
  std::vector<double> machine_speeds() const;

  /// The machine's ClassAd (exposed for matchmaking tests).
  grid::ClassAd machine_ad(std::size_t machine) const;
  /// Whether the machine's owner is at the keyboard, and the grid job
  /// running on it, if any (exposed for matchmaking tests).
  bool owner_busy(std::size_t machine) const {
    return machines_[machine].owner_busy;
  }
  const GridJob* running(std::size_t machine) const {
    return machines_[machine].attempt.job;
  }

 private:
  struct Machine {
    double speed = 1.0;
    double memory_gb = 2.0;
    bool owner_busy = false;
    Attempt attempt;  // job == nullptr while no grid job runs here
  };

  /// Queued job with its requirements expression parsed once at submit —
  /// try_start rescans the queue on every dispatch opportunity, and the
  /// expression is a pure function of the (immutable) job requirements.
  struct QueuedJob {
    GridJob* job;
    AdExpression requirements;
  };

  void schedule_owner_cycle(std::size_t machine);
  void owner_arrives(std::size_t machine);
  void owner_leaves(std::size_t machine);
  void enqueue(GridJob& job) override;
  GridJob* unqueue(std::uint64_t job_id) override;
  Attempt stop(std::uint64_t job_id) override;
  void drain(std::vector<GridJob*>& queued,
             std::vector<Attempt>& running) override;
  void try_start() override;
  obs::Counter& kill_counter(obs::MetricsRegistry& metrics) override;

  Config config_;
  util::Rng rng_;
  std::vector<Machine> machines_;
  /// machine_ad(m) snapshots, built once: the advertised attributes
  /// (OpSys/Arch/Memory/KFlops) are fixed at construction.
  std::vector<ClassAd> machine_ads_;
  std::deque<QueuedJob> queue_;
  /// try_start's scratch: the machines still idle in the current pass.
  std::vector<std::size_t> idle_;
};

}  // namespace lattice::grid
