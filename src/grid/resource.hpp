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
  sim::Simulation& simulation() { return sim_; }

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
  void notify(GridJob& job, const JobOutcome& outcome);

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

/// Dedicated cluster under a FIFO batch LRM (PBS or SGE). Slots = nodes x
/// cores; every node has the same speed, memory, and platform. Stable: jobs
/// run to completion unless cancelled or the optional walltime limit hits.
class BatchQueueResource : public LocalResource {
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
    double stage_mb_per_second = 50.0;
  };

  BatchQueueResource(sim::Simulation& sim, std::string name, Config config);

  void info_into(ResourceInfo& out) const override;
  void submit(GridJob& job) override;
  void cancel(std::uint64_t job_id) override;
  void set_outage(bool down) override;

  const Config& config() const { return config_; }

 private:
  struct Running {
    GridJob* job;
    sim::EventHandle completion;
    sim::SimTime started;
  };

  void try_start();
  void finish(std::uint64_t job_id, bool walltime_killed);
  void fail_all_for_outage();
  void on_observability() override;

  Config config_;
  std::deque<GridJob*> queue_;
  std::vector<Running> running_;
  bool outage_ = false;

  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_walltime_kills_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
  obs::Counter* obs_outage_kills_ = nullptr;
  obs::Histogram* obs_queue_wait_ = nullptr;
};

/// Institutional desktop pool under Condor. Machines cycle between
/// owner-idle (available) and owner-busy; a running grid job is preempted
/// and fails when the owner returns (vanilla-universe semantics). Machine
/// speeds are heterogeneous.
class CondorPool : public LocalResource {
 public:
  struct Config {
    std::size_t machines = 50;
    double mean_speed = 1.0;
    double speed_sigma = 0.3;      // lognormal sigma around mean_speed
    double machine_memory_gb = 2.0;
    PlatformSpec platform;
    std::vector<std::string> software;
    double mean_idle_hours = 8.0;  // owner-away stretch
    double mean_busy_hours = 3.0;  // owner-at-keyboard stretch
    /// Lognormal sigma of per-machine memory around machine_memory_gb
    /// (institutional desktops are not uniform).
    double memory_sigma = 0.0;
    /// Fixed per-attempt cost (file transfer to the execute machine).
    double job_overhead_seconds = 60.0;
    /// Campus-LAN staging bandwidth to desktop machines.
    double stage_mb_per_second = 10.0;
    std::uint64_t seed = 1;
  };

  CondorPool(sim::Simulation& sim, std::string name, Config config);

  void info_into(ResourceInfo& out) const override;
  void submit(GridJob& job) override;
  void cancel(std::uint64_t job_id) override;
  void set_outage(bool down) override;

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
    return machines_[machine].job;
  }

 private:
  struct Machine {
    double speed = 1.0;
    double memory_gb = 2.0;
    bool owner_busy = false;
    GridJob* job = nullptr;
    sim::EventHandle completion;
    sim::SimTime job_started = 0.0;
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
  void try_start();
  void complete(std::size_t machine);
  void fail_all_for_outage();
  void on_observability() override;

  Config config_;
  util::Rng rng_;
  std::vector<Machine> machines_;
  /// machine_ad(m) snapshots, built once: the advertised attributes
  /// (OpSys/Arch/Memory/KFlops) are fixed at construction.
  std::vector<ClassAd> machine_ads_;
  std::deque<QueuedJob> queue_;
  /// try_start's scratch: the machines still idle in the current pass.
  std::vector<std::size_t> idle_;
  bool outage_ = false;

  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_preemptions_ = nullptr;
  obs::Counter* obs_cancelled_ = nullptr;
  obs::Counter* obs_outage_kills_ = nullptr;
  obs::Histogram* obs_queue_wait_ = nullptr;
};

}  // namespace lattice::grid
