#include "core/lattice.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <tuple>

#include "util/log.hpp"

namespace lattice::core {

double retry_backoff_seconds(const RetryPolicy& policy, int failed_attempts,
                             double jitter_draw) {
  // Capped exponential: base * 2^(n-1), clamped before jitter so the
  // jittered delay stays within [cap * (1 - j), cap * (1 + j)].
  double delay = policy.backoff_base_seconds;
  for (int i = 1; i < failed_attempts && delay < policy.backoff_cap_seconds;
       ++i) {
    delay *= 2.0;
  }
  delay = std::min(delay, policy.backoff_cap_seconds);
  const double factor =
      1.0 + RetryPolicy::kBackoffJitter * (2.0 * jitter_draw - 1.0);
  return delay * factor;
}

LatticeSystem::LatticeSystem(LatticeConfig config)
    : config_(config),
      sim_(),
      mds_(sim_, LatticeConfig::kMdsTtl),
      speeds_(600.0),
      cost_model_(config.cost_params),
      estimator_(),
      scheduler_(mds_, config.scheduler),
      rng_(config.seed),
      obs_metrics_(&obs::MetricsRegistry::null()),
      obs_tracer_(&obs::Tracer::null()) {
  // The scheduler reads the ledger on every rank_estimate call; the term
  // is inert until scheduler.fair_share_weight is raised above zero.
  scheduler_.set_fair_share(&fair_share_ledger_);
  pump_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, config_.scheduler_period, config_.scheduler_period,
      [this] { pump(); });
  bind_observability();
}

LatticeSystem::~LatticeSystem() = default;

void LatticeSystem::add_resource(
    std::unique_ptr<grid::LocalResource> resource, boinc::BoincServer* pool) {
  grid::LocalResource& ref = *resource;
  resources_[ref.name()] = ResourceEntry{std::move(resource), pool};
  names_.push_back(ref.name());
  ref.set_completion_callback(
      [this](grid::GridJob& job, const grid::JobOutcome& outcome) {
        on_outcome(job, outcome);
      });
  mds_.attach_provider(ref, LatticeConfig::kMdsReportPeriod);
  ref.set_observability(*obs_metrics_, *obs_tracer_);
}

void LatticeSystem::enable_observability(obs::MetricsRegistry& metrics,
                                        obs::Tracer& tracer) {
  obs_metrics_ = &metrics;
  obs_tracer_ = &tracer;
  sim_.set_observability(&metrics, &tracer);
  scheduler_.set_observability(metrics);
  for (auto& [name, entry] : resources_) {
    entry.resource->set_observability(metrics, tracer);
  }
  bind_observability();
}

void LatticeSystem::bind_observability() {
  obs::MetricsRegistry& m = *obs_metrics_;
  obs_jobs_submitted_ = &m.counter("lattice.jobs_submitted", "jobs",
                                   "jobs accepted at the grid level");
  obs_jobs_completed_ = &m.counter("lattice.jobs_completed", "jobs",
                                   "jobs that reached a validated result");
  obs_jobs_abandoned_ = &m.counter(
      "lattice.jobs_abandoned", "jobs",
      "jobs given up on after max_attempts failed placements");
  obs_failed_attempts_ = &m.counter(
      "lattice.failed_attempts", "attempts",
      "placements that ended in preemption, timeout, or error");
  obs_retry_scheduled_ = &m.counter(
      "sched.retry_scheduled", "retries",
      "failed jobs requeued after a backoff delay (retry policy)");
  obs_demotions_ = &m.counter(
      "sched.demote_unstable_stable", "jobs",
      "jobs restricted to stable resources after repeated unstable-resource "
      "failures");
  obs_fair_share_reorders_ = &m.counter(
      "sched.fair_share_reorders", "passes",
      "pump passes that reordered the pending queue by decayed per-user "
      "usage (FairShareConfig.order_queue)");
  obs_fair_share_charges_ = &m.counter(
      "sched.fair_share_charges", "dispatches",
      "usage charges applied to a user's fair-share odometer at dispatch");
  obs_estimator_predictions_ = &m.counter(
      "estimator.predictions", "evaluations",
      "forest evaluations made to price submitted work (memo misses of "
      "estimate_runtime)");
  obs_retry_backoff_ = &m.histogram(
      "sched.retry_backoff_s",
      {1.0, 10.0, 60.0, 600.0, 3600.0, 6.0 * 3600.0}, "s",
      "backoff delay applied before a failed job re-enters the queue");
  obs_sched_queue_wait_ = &m.histogram(
      "sched.queue_wait_s",
      {60.0, 600.0, 3600.0, 6.0 * 3600.0, 86400.0, 7.0 * 86400.0}, "s",
      "grid-level wait from submission to first dispatch");
  obs_predictor_error_ = &m.histogram(
      "sched.predictor_abs_error_s",
      {60.0, 600.0, 3600.0, 6.0 * 3600.0, 86400.0, 3.0 * 86400.0}, "s",
      "absolute error of the runtime estimate vs the measured reference "
      "runtime, for completed jobs with an estimate");
}

grid::BatchQueueResource& LatticeSystem::add_cluster(
    const std::string& name, grid::BatchQueueResource::Config config) {
  auto resource =
      std::make_unique<grid::BatchQueueResource>(sim_, name, config);
  grid::BatchQueueResource& ref = *resource;
  add_resource(std::move(resource), nullptr);
  return ref;
}

grid::CondorPool& LatticeSystem::add_condor_pool(
    const std::string& name, grid::CondorPool::Config config) {
  auto resource = std::make_unique<grid::CondorPool>(sim_, name, config);
  grid::CondorPool& ref = *resource;
  add_resource(std::move(resource), nullptr);
  return ref;
}

boinc::BoincServer& LatticeSystem::add_boinc_pool(
    const std::string& name, boinc::BoincPoolConfig config) {
  auto resource = std::make_unique<boinc::BoincServer>(sim_, name, config);
  boinc::BoincServer& ref = *resource;
  add_resource(std::move(resource), &ref);
  return ref;
}

grid::LocalResource* LatticeSystem::resource(const std::string& name) {
  const auto it = resources_.find(name);
  return it == resources_.end() ? nullptr : it->second.resource.get();
}

boinc::BoincServer* LatticeSystem::pool(const std::string& name) {
  const auto it = resources_.find(name);
  return it == resources_.end() ? nullptr : it->second.pool;
}

void LatticeSystem::calibrate_speeds(double reference_job_seconds,
                                     double measurement_noise_sigma) {
  speeds_ = SpeedCalibrator(reference_job_seconds);
  for (const auto& [name, entry] : resources_) {
    grid::LocalResource* resource = entry.resource.get();
    std::vector<double> runtimes;
    auto noisy = [&](double true_speed) {
      const double wall = reference_job_seconds / true_speed;
      return wall * rng_.lognormal(
                        -0.5 * measurement_noise_sigma *
                            measurement_noise_sigma,
                        measurement_noise_sigma);
    };
    if (auto* cluster =
            dynamic_cast<grid::BatchQueueResource*>(resource)) {
      // A short reference job on a handful of (identical) nodes.
      for (int i = 0; i < 4; ++i) {
        runtimes.push_back(noisy(cluster->config().node_speed));
      }
    } else if (auto* pool =
                   dynamic_cast<grid::CondorPool*>(resource)) {
      // "run a short GARLI job on each unique individual machine ... and
      // average the runtimes".
      for (double speed : pool->machine_speeds()) {
        runtimes.push_back(noisy(speed));
      }
    } else if (const boinc::BoincServer* boinc_pool = entry.pool) {
      // Volunteer hosts: the reference job's measured *turnaround* on a
      // volunteer PC includes the host's downtime, so the benchmark
      // naturally yields an availability-discounted throughput speed —
      // which is what expected-completion-time ranking needs.
      const auto& config = boinc_pool->config();
      const double availability =
          config.mean_on_hours /
          (config.mean_on_hours + config.mean_off_hours);
      for (int i = 0; i < 32; ++i) {
        const double sigma = config.speed_sigma;
        const double speed = config.mean_speed * availability *
                             rng_.lognormal(-0.5 * sigma * sigma, sigma);
        runtimes.push_back(noisy(speed));
      }
    }
    if (!runtimes.empty()) {
      speeds_.calibrate(name, runtimes);
      mds_.set_speed(name, speeds_.speed_or_default(name));
    }
  }
}

std::uint64_t LatticeSystem::submit_garli_job(
    const GarliFeatures& features, grid::JobRequirements requirements,
    std::uint64_t batch_id, JobData data, UserId user_id) {
  return submit_job_with_runtime(features,
                                 cost_model_.sample_runtime(features, rng_),
                                 std::move(requirements), batch_id, data,
                                 user_id);
}

std::uint64_t LatticeSystem::submit_job_with_runtime(
    const GarliFeatures& features, double true_reference_runtime,
    grid::JobRequirements requirements, std::uint64_t batch_id,
    JobData data, UserId user_id) {
  const std::uint64_t id = next_job_id_++;
  if (feature_runs_.empty() || !(feature_runs_.back() == features)) {
    feature_runs_.push_back(features);
  }
  JobRecord& record = jobs_.emplace_back();
  record.features = static_cast<std::uint32_t>(feature_runs_.size() - 1);
  grid::GridJob& job = record.job;
  job.id = id;
  job.batch_id = batch_id;
  job.user_id = user_id;
  job.true_reference_runtime = true_reference_runtime;
  job.input_mb = data.input_mb;
  job.output_mb = data.output_mb;
  job.submit_time = sim_.now();
  job.estimated_reference_runtime = estimate_runtime(features);
  intern_decision_class(job, requirements);
  ++pending_count_;
  enqueue(id, 1);
  ++metrics_.submitted;
  ++outstanding_;
  obs_jobs_submitted_->inc();
  if (obs_tracer_->enabled()) {
    obs_tracer_->async_begin("job", "lattice.job", id, sim_.now(),
                             {{"batch", std::to_string(batch_id)}});
  }
  return id;
}

std::optional<double> LatticeSystem::estimate_runtime(
    const GarliFeatures& features) {
  if (!estimator_.trained()) return std::nullopt;
  // Every fit takes a new model id, so a retrain or a replaced estimator
  // misses the memo and the cached value is always predict(features).
  const std::uint64_t model = estimator_.model_id();
  if (model != memo_model_id_ || !(features == memo_features_)) {
    memo_estimate_ = *estimator_.predict(features);
    memo_features_ = features;
    memo_model_id_ = model;
    obs_estimator_predictions_->inc();
  }
  return memo_estimate_;
}

const grid::GridJob* LatticeSystem::job(std::uint64_t id) const {
  if (id == 0 || id > jobs_.size()) return nullptr;
  return &jobs_[id - 1].job;
}

bool LatticeSystem::cancel_job(std::uint64_t id) {
  if (id == 0 || id > jobs_.size()) return false;
  grid::GridJob& job = jobs_[id - 1].job;
  switch (job.state) {
    case grid::JobState::kCompleted:
    case grid::JobState::kFailed:
    case grid::JobState::kCancelled:
      return false;
    case grid::JobState::kPending: {
      // Not queued while it waits out a retry backoff.
      if (unqueue(id)) --pending_count_;
      job.state = grid::JobState::kCancelled;
      --outstanding_;
      if (obs_tracer_->enabled()) {
        obs_tracer_->async_end("job", "lattice.job", id, sim_.now(),
                               {{"outcome", "cancelled"}});
      }
      if (terminal_hook_) terminal_hook_(job, false);
      return true;
    }
    case grid::JobState::kQueued:
    case grid::JobState::kRunning: {
      // The resource fires the completion callback with "cancelled", which
      // routes through on_outcome for bookkeeping.
      job.resource->cancel(id);
      return job.state == grid::JobState::kCancelled;
    }
  }
  return false;
}

std::size_t LatticeSystem::grid_backlog() const {
  std::size_t backlog = pending_count_;
  for (const auto& [name, entry] : resources_) {
    if (entry.pool != nullptr) backlog += entry.pool->feeder_backlog();
  }
  return backlog;
}

void LatticeSystem::intern_decision_class(
    grid::GridJob& job, const grid::JobRequirements& requirements) {
  const double data_mb = job.input_mb + job.output_mb;
  if (last_class_ == nullptr || last_class_->data_mb != data_mb ||
      last_class_->require_stable != job.require_stable ||
      !(last_class_->requirements == requirements)) {
    const auto it =
        decision_classes_
            .try_emplace(
                DecisionClass{requirements, job.require_stable, data_mb},
                static_cast<std::uint32_t>(decision_classes_.size()))
            .first;
    last_class_ = &it->first;
    last_class_id_ = it->second;
  }
  job.requirements = &last_class_->requirements;
  job.decision_class = last_class_id_;
}

void LatticeSystem::enqueue(std::uint64_t first, std::uint64_t count) {
  // A pass must not grow a run it has yet to visit: the members would be
  // visited twice.
  if (pending_.size() > unvisited_) {
    PendingRun& back = pending_.back();
    const grid::GridJob& run = jobs_[back.first - 1].job;
    const grid::GridJob& next = jobs_[first - 1].job;
    if (back.first + back.count == first && run.user_id == next.user_id &&
        run.decision_class == next.decision_class &&
        scheduler_.base_estimate(run) == scheduler_.base_estimate(next)) {
      back.count += count;
      return;
    }
  }
  pending_.push_back({first, count});
}

bool LatticeSystem::unqueue(std::uint64_t id) {
  const auto holds = [id](const PendingRun& run) {
    return id >= run.first && id - run.first < run.count;
  };
  if (holds(visiting_)) {
    // Cancelled from inside a dispatch: the members after it become the
    // next run the pass visits.
    const PendingRun rest{id + 1, visiting_.first + visiting_.count - id - 1};
    visiting_.count = id - visiting_.first;
    if (rest.count > 0) {
      pending_.push_front(rest);
      ++unvisited_;
    }
    return true;
  }
  const auto it = std::find_if(pending_.begin(), pending_.end(), holds);
  if (it == pending_.end()) return false;
  const bool unvisited =
      static_cast<std::size_t>(it - pending_.begin()) < unvisited_;
  const PendingRun rest{id + 1, it->first + it->count - id - 1};
  it->count = id - it->first;
  if (it->count > 0 && rest.count > 0) {
    pending_.insert(it + 1, rest);
    if (unvisited) ++unvisited_;
  } else if (rest.count > 0) {
    *it = rest;
  } else if (it->count == 0) {
    pending_.erase(it);
    if (unvisited) --unvisited_;
  }
  return true;
}

namespace {

/// Everything choose() and the backpressure test read from a job.
struct DecisionKey {
  std::uint32_t decision_class;
  std::optional<double> estimate;  // MetaScheduler::rank_estimate

  bool operator<(const DecisionKey& other) const {
    return std::tie(decision_class, estimate) <
           std::tie(other.decision_class, other.estimate);
  }
};

enum class Deferral : std::uint8_t { kNoEligible, kBackpressure };

}  // namespace

void LatticeSystem::order_pending_by_usage() {
  // Decorate, sort, undecorate: one ledger read per stretch of same-user
  // runs instead of two per comparison. Runs are disjoint id ranges of one
  // user each, so the (usage, first id) order of the runs expands to the
  // (usage, job id) order of their members. Re-appending joins runs the
  // sort made adjacent.
  struct Keyed {
    double usage;
    PendingRun run;
  };
  std::vector<Keyed> keys;
  keys.reserve(pending_.size());
  UserId user = 0;
  double usage = fair_share_ledger_.usage(user);
  for (const PendingRun& run : pending_) {
    const UserId run_user = jobs_[run.first - 1].job.user_id;
    if (run_user != user) {
      user = run_user;
      usage = fair_share_ledger_.usage(user);
    }
    keys.push_back({usage, run});
  }
  // lattice-lint: allow(decision-sort) — once-per-period pending-queue maintenance keyed on (decayed usage, first job id) over runs; no placement decision ranks with it
  std::sort(keys.begin(), keys.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.usage, a.run.first) < std::tie(b.usage, b.run.first);
  });
  pending_.clear();
  for (const Keyed& key : keys) enqueue(key.run.first, key.run.count);
}

void LatticeSystem::pump() {
  fair_share_ledger_.settle(sim_.now());
  if (config_.fair_share.order_queue && pending_count_ > 1) {
    // Fair-share ordering: light users' jobs drain ahead of a heavy
    // user's backlog. Runs once per scheduler period over the grid-level
    // queue — queue maintenance, not a per-placement decision — and keys
    // on (decayed usage, job id), a pure function of the charge history
    // and the sim clock, so twin runs reorder identically.
    order_pending_by_usage();
    obs_fair_share_reorders_->inc();
  }

  // A dispatch epoch is the span between two dispatches. Sim time is fixed
  // for the whole pass and only dispatch() changes the MDS view, the ledger
  // and the resource queues, so within an epoch choose() and the
  // backpressure test are pure functions of the job's DecisionKey: a job
  // whose key was already deferred this epoch would be deferred again, and
  // skips both. The members of a run share their key, so once one is
  // deferred the rest of the run is too, as one run. Round-robin is exempt
  // — every choose() advances its cursor, so each member gets its own.
  const bool memoize =
      scheduler_.policy().mode != SchedulingMode::kRoundRobin;
  std::map<DecisionKey, Deferral> deferred_keys;
  // Backpressure verdict per resource, computed once per epoch.
  std::vector<std::pair<const grid::LocalResource*, bool>> saturated;
  const auto is_saturated = [&](const std::string& name) {
    const grid::LocalResource* target = resources_.at(name).resource.get();
    for (const auto& [resource, full] : saturated) {
      if (resource == target) return full;
    }
    const grid::ResourceInfo info = target->info();
    const bool full = static_cast<double>(info.queued_jobs) >=
                      config_.fair_share.backlog_per_slot *
                          static_cast<double>(info.total_slots);
    saturated.emplace_back(target, full);
    return full;
  };

  std::size_t no_eligible = 0;
  std::size_t backpressure = 0;
  for (unvisited_ = pending_.size(); unvisited_ > 0;) {
    visiting_ = pending_.front();
    pending_.pop_front();
    --unvisited_;
    while (visiting_.count > 0) {
      grid::GridJob& job = jobs_[visiting_.first - 1].job;
      const DecisionKey key{job.decision_class, scheduler_.rank_estimate(job)};
      std::optional<Deferral> cause;
      if (memoize) {
        const auto memo = deferred_keys.find(key);
        if (memo != deferred_keys.end()) cause = memo->second;
      }
      if (!cause) {
        const auto choice = scheduler_.choose(job);
        if (!choice) {
          cause = Deferral::kNoEligible;
        } else if (config_.fair_share.backlog_per_slot > 0.0 &&
                   is_saturated(*choice)) {
          // Backpressure: past the per-slot backlog cap the job stays in
          // the grid-level queue (where fair-share ordering applies)
          // instead of sinking into the resource's own FIFO queue.
          cause = Deferral::kBackpressure;
        } else {
          // Off the run before dispatch(): a terminal hook fired inside it
          // may cancel a later member (unqueue).
          ++visiting_.first;
          --visiting_.count;
          --pending_count_;
          dispatch(job, *choice);
          deferred_keys.clear();
          saturated.clear();
          continue;
        }
        if (memoize) deferred_keys.emplace(key, *cause);
      }
      // No dispatch comes between here and the end of the run, so the rest
      // of it would hit the memo: defer it as one run.
      const std::uint64_t deferred = memoize ? visiting_.count : 1;
      enqueue(visiting_.first, deferred);
      visiting_.first += deferred;
      visiting_.count -= deferred;
      (*cause == Deferral::kNoEligible ? no_eligible : backpressure) +=
          deferred;
    }
  }
  if (no_eligible + backpressure > 0) {
    util::log_debug("lattice",
                    "{} jobs deferred ({} no eligible resource, {} "
                    "backpressure)",
                    no_eligible + backpressure, no_eligible, backpressure);
  }
}

void LatticeSystem::dispatch(grid::GridJob& job,
                             const std::string& resource_name) {
  const ResourceEntry& target = resources_.at(resource_name);
  // Refresh the target's MDS entry after handing it work: submission is
  // synchronous, so the directory sees the extra backlog immediately and
  // one scheduling wave does not herd every job onto the same resource.
  struct Refresher {
    grid::MdsDirectory& mds;
    const grid::LocalResource& resource;
    ~Refresher() { mds.report(resource.info()); }
  } refresher{mds_, *target.resource};

  if (job.attempts == 0) {
    obs_sched_queue_wait_->observe(sim_.now() - job.submit_time);
  }
  // Charge the attempt's compute demand to the submitting user's odometer.
  // Charged per dispatch (not per completion) so a user currently flooding
  // the grid sees the weight immediately; retries charge again — an
  // attempt occupies capacity whether or not it completes.
  if (job.user_id != 0) {
    fair_share_ledger_.settle(sim_.now());
    fair_share_ledger_.charge(job.user_id, job.true_reference_runtime);
    obs_fair_share_charges_->inc();
  }
  if (target.pool != nullptr && job.estimated_reference_runtime) {
    // Estimate-derived report deadline (paper §VI.A). Without an estimate
    // the pool applies its manual default.
    target.pool->submit(job, config_.deadline.deadline_seconds(
                                 *job.estimated_reference_runtime,
                                 job.input_mb + job.output_mb));
    return;
  }
  target.resource->submit(job);
}

void LatticeSystem::on_outcome(grid::GridJob& job,
                               const grid::JobOutcome& outcome) {
  if (outcome.completed()) {
    metrics_.useful_cpu_seconds += outcome.cpu_seconds;
    ++metrics_.completed;
    metrics_.total_turnaround_seconds += sim_.now() - job.submit_time;
    metrics_.last_completion = sim_.now();
    --outstanding_;
    obs_jobs_completed_->inc();
    if (obs_tracer_->enabled()) {
      obs_tracer_->async_end("job", "lattice.job", job.id, sim_.now(),
                             {{"outcome", "completed"},
                              {"resource", job.resource->name()}});
    }
    // §VI.E: feed the observation back into the model. The measured
    // reference runtime is the attempt's CPU time scaled by the calibrated
    // resource speed.
    const double measured =
        outcome.cpu_seconds * speeds_.speed_or_default(job.resource->name());
    if (job.estimated_reference_runtime) {
      obs_predictor_error_->observe(
          std::abs(*job.estimated_reference_runtime - measured));
    }
    estimator_.observe(feature_runs_[jobs_[job.id - 1].features], measured);
    if (terminal_hook_) terminal_hook_(job, true);
    return;
  }

  metrics_.wasted_cpu_seconds += outcome.cpu_seconds;
  if (job.state == grid::JobState::kCancelled) {
    --outstanding_;
    if (obs_tracer_->enabled()) {
      obs_tracer_->async_end("job", "lattice.job", job.id, sim_.now(),
                             {{"outcome", "cancelled"}});
    }
    if (terminal_hook_) terminal_hook_(job, false);
    return;
  }
  job.last_failure = outcome.cause;
  ++metrics_.failed_attempts;
  obs_failed_attempts_->inc();
  if (job.attempts >= config_.max_attempts) {
    ++metrics_.abandoned;
    --outstanding_;
    obs_jobs_abandoned_->inc();
    if (obs_tracer_->enabled()) {
      obs_tracer_->async_end(
          "job", "lattice.job", job.id, sim_.now(),
          {{"outcome", "abandoned"},
           {"cause", std::string(grid::failure_cause_name(outcome.cause))}});
    }
    util::log_warn("lattice", "job {} abandoned after {} attempts ({})",
                   job.id, job.attempts,
                   grid::failure_cause_name(outcome.cause));
    if (terminal_hook_) terminal_hook_(job, false);
    return;
  }

  // Demotion: repeated failures on unstable (desktop/volunteer) resources
  // mean this job keeps losing its progress to churn — route it to stable
  // resources from now on.
  if (config_.retry.demote_after_failures > 0 && !job.require_stable) {
    if (!job.resource->info().stable) {
      ++job.unstable_failures;
      if (job.unstable_failures >= config_.retry.demote_after_failures) {
        job.require_stable = true;
        intern_decision_class(job, *job.requirements);
        obs_demotions_->inc();
        util::log_debug("lattice",
                        "job {} demoted to stable-only after {} unstable "
                        "failures",
                        job.id, job.unstable_failures);
      }
    }
  }

  // Back to the grid-level queue for rescheduling — immediately by
  // default, or after a capped exponential backoff when the retry policy
  // is active (so a flapping resource is not hammered in lockstep).
  job.state = grid::JobState::kPending;
  if (config_.retry.backoff_base_seconds > 0.0) {
    const double delay =
        retry_backoff_seconds(config_.retry, job.attempts, rng_.uniform());
    obs_retry_scheduled_->inc();
    obs_retry_backoff_->observe(delay);
    const std::uint64_t id = job.id;
    sim_.after(delay, [this, id] {
      // The job may have been cancelled while waiting out the backoff.
      if (jobs_[id - 1].job.state != grid::JobState::kPending) return;
      ++pending_count_;
      enqueue(id, 1);
    });
  } else {
    ++pending_count_;
    enqueue(job.id, 1);
  }
}

void LatticeSystem::for_each_job(
    const std::function<void(const grid::GridJob&)>& visit) const {
  for (const JobRecord& record : jobs_) visit(record.job);
}

void LatticeSystem::run(sim::SimTime until) { sim_.run(until); }

void LatticeSystem::run_until_drained(sim::SimTime horizon) {
  while (outstanding_ > 0 && sim_.now() < horizon && !sim_.empty()) {
    sim_.run(std::min(horizon, sim_.now() + 3600.0));
  }
}

}  // namespace lattice::core
