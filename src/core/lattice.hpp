// LatticeSystem: the whole grid wired together — the simulation clock, the
// MDS directory with per-resource provider loops, the local resources,
// speed calibration, the RF runtime estimator with its online-update loop,
// the deadline policy for BOINC work, and the meta-scheduler pump that
// drains the grid-level queue.
//
// This is the object the examples and benchmark harnesses instantiate: add
// resources, submit GARLI work (featurized jobs whose true runtimes come
// from the cost model), run the clock, read the metrics.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "boinc/server.hpp"
#include "core/cost_model.hpp"
#include "core/deadline.hpp"
#include "core/estimator.hpp"
#include "core/fairshare.hpp"
#include "core/metascheduler.hpp"
#include "core/speed.hpp"
#include "core/inventory.hpp"
#include "grid/mds.hpp"
#include "grid/resource.hpp"
#include "sim/simulation.hpp"

namespace lattice::core {

/// Recovery policy for failed placements. Both mechanisms default OFF so
/// the baseline behavior (immediate requeue, no routing constraint) is
/// untouched unless a scenario opts in.
struct RetryPolicy {
  /// Base of the capped exponential backoff before a failed job re-enters
  /// the scheduling queue; 0 keeps the immediate-requeue behavior.
  double backoff_base_seconds = 0.0;
  double backoff_cap_seconds = 3600.0;
  /// Uniform jitter fraction: the delay is scaled by a factor drawn from
  /// [1 - jitter, 1 + jitter] so synchronized failures don't resubmit as a
  /// thundering herd.
  static constexpr double kBackoffJitter = 0.25;
  /// After this many failed attempts on unstable (desktop/volunteer)
  /// resources, restrict the job to stable resources; 0 disables demotion.
  int demote_after_failures = 0;
};

/// The backoff delay before retry number `failed_attempts` (1-based), with
/// `jitter_draw` a uniform [0,1) variate. Exposed as a free function so
/// the bounds are testable without running a scenario.
double retry_backoff_seconds(const RetryPolicy& policy, int failed_attempts,
                             double jitter_draw);

struct LatticeConfig {
  /// Meta-scheduler pump period (seconds).
  double scheduler_period = 60.0;
  /// MDS provider report period and entry TTL.
  static constexpr double kMdsReportPeriod = 120.0;
  static constexpr double kMdsTtl = 300.0;
  SchedulerPolicy scheduler;
  DeadlinePolicy deadline;
  RetryPolicy retry;
  /// Per-user fair-share accounting (decay half-life, optional pending
  /// queue ordering). The scheduler-side weight lives in
  /// scheduler.fair_share_weight; both default off.
  FairShareConfig fair_share;
  /// Give up on a job after this many failed attempts.
  int max_attempts = 12;
  std::uint64_t seed = 1;
  /// Runtime cost surface the system prices jobs with. Defaults to the
  /// vectorized-client calibration.
  GarliCostModel::Params cost_params{};
};

struct LatticeMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;     // exceeded max_attempts
  std::uint64_t failed_attempts = 0;  // preemptions/timeouts/errors
  double wasted_cpu_seconds = 0.0;
  double useful_cpu_seconds = 0.0;
  double total_turnaround_seconds = 0.0;  // completed jobs only
  sim::SimTime last_completion = 0.0;

  double mean_turnaround() const {
    return completed ? total_turnaround_seconds /
                           static_cast<double>(completed)
                     : 0.0;
  }
};

/// Per-attempt staged data sizes for a submitted job.
struct JobData {
  double input_mb = 0.0;
  double output_mb = 0.0;
};

class LatticeSystem {
 public:
  explicit LatticeSystem(LatticeConfig config = {});
  ~LatticeSystem();
  LatticeSystem(const LatticeSystem&) = delete;
  LatticeSystem& operator=(const LatticeSystem&) = delete;

  sim::Simulation& simulation() { return sim_; }
  grid::MdsDirectory& mds() { return mds_; }
  SpeedCalibrator& speeds() { return speeds_; }
  RuntimeEstimator& estimator() { return estimator_; }
  MetaScheduler& scheduler() { return scheduler_; }
  FairShareLedger& fair_share() { return fair_share_ledger_; }
  const FairShareLedger& fair_share() const { return fair_share_ledger_; }
  const GarliCostModel& cost_model() const { return cost_model_; }
  const LatticeConfig& config() const { return config_; }
  LatticeMetrics& metrics() { return metrics_; }

  // Resource building (paper §IV); declarative ResourceSpec lists build
  // into this system via core::build_inventory.
  grid::BatchQueueResource& add_cluster(
      const std::string& name, grid::BatchQueueResource::Config config);
  grid::CondorPool& add_condor_pool(const std::string& name,
                                    grid::CondorPool::Config config);
  boinc::BoincServer& add_boinc_pool(const std::string& name,
                                     boinc::BoincPoolConfig config);

  const std::vector<std::string>& resource_names() const { return names_; }
  grid::LocalResource* resource(const std::string& name);
  /// The named resource when it is a volunteer pool; nullptr otherwise.
  boinc::BoincServer* pool(const std::string& name);

  /// Benchmark every resource with a short reference job and record its
  /// speed (paper §V.A). Cluster speeds are exact (homogeneous nodes);
  /// pool speeds average per-machine benchmark runs with measurement
  /// noise.
  void calibrate_speeds(double reference_job_seconds = 600.0,
                        double measurement_noise_sigma = 0.05);

  // Workload ------------------------------------------------------------
  /// Submit a featurized GARLI job. The true runtime is sampled from the
  /// cost model (hidden from scheduling); the estimate comes from the
  /// estimator when trained. Returns the grid job id.
  std::uint64_t submit_garli_job(const GarliFeatures& features,
                                 grid::JobRequirements requirements = {},
                                 std::uint64_t batch_id = 0,
                                 JobData data = {},
                                 UserId user_id = 0);

  /// Submit with an explicit true runtime (for controlled experiments).
  std::uint64_t submit_job_with_runtime(const GarliFeatures& features,
                                        double true_reference_runtime,
                                        grid::JobRequirements requirements = {},
                                        std::uint64_t batch_id = 0,
                                        JobData data = {},
                                        UserId user_id = 0);

  /// The estimator's runtime estimate for `features` in reference
  /// seconds; nullopt while the estimator is untrained. Every submitted
  /// job and the portal's per-replicate estimate come through here, so a
  /// batch of identical replicates evaluates the forest once.
  std::optional<double> estimate_runtime(const GarliFeatures& features);

  /// The job with this id; nullptr for ids never handed out.
  const grid::GridJob* job(std::uint64_t id) const;
  std::size_t pending_jobs() const { return pending_count_; }

  /// Work queued but not yet running anywhere: the grid-level pending
  /// queue plus every BOINC pool's unsent feeder entries. The portal's
  /// admission control sheds guest traffic when this crosses its
  /// watermark (the paper's portal throttled the web tier, not the grid).
  std::size_t grid_backlog() const;

  /// Visit every job ever submitted, in id order (status reports).
  void for_each_job(
      const std::function<void(const grid::GridJob&)>& visit) const;

  /// Cancel a job wherever it is — still pending at the grid level, queued,
  /// or running on a resource (the command-line utilities of §III).
  /// Returns false when the job is unknown or already terminal.
  bool cancel_job(std::uint64_t id);

  /// Hook invoked whenever a job reaches a terminal state (completed or
  /// abandoned). The portal uses this for batch bookkeeping.
  void set_job_terminal_hook(
      std::function<void(const grid::GridJob&, bool completed)> hook) {
    terminal_hook_ = std::move(hook);
  }

  /// Run the simulation until the given horizon or until idle.
  void run(sim::SimTime until = sim::Simulation::kForever);
  /// Run until all submitted jobs are terminal (or the horizon passes).
  void run_until_drained(sim::SimTime horizon);

  /// Bind the whole stack — simulation kernel, meta-scheduler, every
  /// resource added before or after this call, and the grid level itself —
  /// to the given sinks. Pure observation: enabling must not change any
  /// scheduling decision or event timing (tests/test_obs.cpp asserts this).
  void enable_observability(obs::MetricsRegistry& metrics,
                            obs::Tracer& tracer);

 private:
  /// The per-job reference pass the run pump is checked against
  /// (tests/pump_reference.hpp).
  friend class PumpReference;

  /// Take ownership of a resource and wire it into the grid: completion
  /// callback, MDS provider, observability. `pool` is the resource itself
  /// when it is a volunteer pool.
  void add_resource(std::unique_ptr<grid::LocalResource> resource,
                    boinc::BoincServer* pool);
  void bind_observability();
  void pump();
  /// Sort the pending runs by (decayed usage, first id) — the fair-share
  /// order (FairShareConfig.order_queue). Runs are disjoint id ranges of
  /// one user each, so this is the (usage, job id) order of their members.
  void order_pending_by_usage();
  /// Point `job` at its decision class (with `requirements` and the job's
  /// require_stable and data sizes), interned on first sight: sets
  /// decision_class, and requirements to the class's own copy.
  void intern_decision_class(grid::GridJob& job,
                             const grid::JobRequirements& requirements);
  /// Append the run [first, first + count) to the pending queue, extending
  /// the last run when it ends at `first` and holds the same kind of job.
  /// During a pass only runs queued by that pass are extended.
  void enqueue(std::uint64_t first, std::uint64_t count);
  /// Remove a queued job, splitting its run; false when it is not queued.
  bool unqueue(std::uint64_t id);
  void on_outcome(grid::GridJob& job, const grid::JobOutcome& outcome);
  void dispatch(grid::GridJob& job, const std::string& resource_name);

  LatticeConfig config_;
  sim::Simulation sim_;
  grid::MdsDirectory mds_;
  SpeedCalibrator speeds_;
  GarliCostModel cost_model_;
  RuntimeEstimator estimator_;
  MetaScheduler scheduler_;
  FairShareLedger fair_share_ledger_;
  util::Rng rng_;

  std::vector<std::string> names_;
  /// A resource and, for a volunteer pool, the same object as its
  /// BoincServer (dispatch passes it the estimate-derived deadline).
  struct ResourceEntry {
    std::unique_ptr<grid::LocalResource> resource;
    boinc::BoincServer* pool = nullptr;
  };
  std::map<std::string, ResourceEntry> resources_;

  /// A job and the features its estimate and §VI.E observation use, as
  /// an index into feature_runs_.
  struct JobRecord {
    grid::GridJob job;
    std::uint32_t features = 0;
  };
  /// Every job ever submitted, indexed by id - 1: ids are handed out
  /// densely from 1 and never erased. A deque, because resources and
  /// workunits hold GridJob pointers and push_back never moves elements.
  std::deque<JobRecord> jobs_;
  /// The features of consecutive jobs, stored once per run of equal ones:
  /// a batch's replicates share theirs, as its jobs share a PendingRun.
  std::vector<GarliFeatures> feature_runs_;

  /// Everything choose() and the backpressure test read from a job besides
  /// its rank estimate. Interned to a dense id (GridJob::decision_class)
  /// at submit and on demotion, so the pump compares classes as integers;
  /// the job's requirements pointer names the key's copy (map nodes never
  /// move, and classes are never erased).
  struct DecisionClass {
    grid::JobRequirements requirements;
    bool require_stable = false;
    double data_mb = 0.0;  // input_mb + output_mb
    auto operator<=>(const DecisionClass&) const = default;
  };
  std::map<DecisionClass, std::uint32_t> decision_classes_;
  /// The class interned last: a batch's jobs share one, so most lookups
  /// stop here.
  const DecisionClass* last_class_ = nullptr;
  std::uint32_t last_class_id_ = 0;

  /// `count` consecutive job ids from `first`, all with the same user,
  /// decision class and base estimate, so all present the same decision
  /// inputs to the pump.
  struct PendingRun {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
  };
  /// The grid-level queue, in drain order.
  std::deque<PendingRun> pending_;
  /// Jobs waiting for a pump pass: the members of pending_ plus those of
  /// visiting_.
  std::size_t pending_count_ = 0;
  /// Pump-pass state: the first unvisited_ runs of pending_ are still to
  /// be visited, and visiting_ holds the undecided members of the run the
  /// pass has taken off the front. Both are empty between passes.
  std::size_t unvisited_ = 0;
  PendingRun visiting_;
  std::uint64_t next_job_id_ = 1;
  std::uint64_t outstanding_ = 0;  // submitted minus terminal

  /// One-entry estimate memo (estimate_runtime): the last features priced
  /// and the model that priced them. Model ids start at 1, so 0 is empty.
  GarliFeatures memo_features_{};
  std::uint64_t memo_model_id_ = 0;
  double memo_estimate_ = 0.0;

  std::unique_ptr<sim::PeriodicTask> pump_task_;
  std::function<void(const grid::GridJob&, bool)> terminal_hook_;
  LatticeMetrics metrics_;

  // Observability (bound to the null sinks until enable_observability).
  obs::MetricsRegistry* obs_metrics_;
  obs::Tracer* obs_tracer_;
  obs::Counter* obs_jobs_submitted_ = nullptr;
  obs::Counter* obs_jobs_completed_ = nullptr;
  obs::Counter* obs_jobs_abandoned_ = nullptr;
  obs::Counter* obs_failed_attempts_ = nullptr;
  obs::Counter* obs_retry_scheduled_ = nullptr;
  obs::Counter* obs_demotions_ = nullptr;
  obs::Counter* obs_fair_share_reorders_ = nullptr;
  obs::Counter* obs_fair_share_charges_ = nullptr;
  obs::Counter* obs_estimator_predictions_ = nullptr;
  obs::Histogram* obs_retry_backoff_ = nullptr;
  obs::Histogram* obs_sched_queue_wait_ = nullptr;
  obs::Histogram* obs_predictor_error_ = nullptr;
};

}  // namespace lattice::core
