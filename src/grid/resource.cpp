#include "grid/resource.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/log.hpp"

namespace lattice::grid {

std::string_view resource_kind_name(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kPbsCluster: return "pbs";
    case ResourceKind::kSgeCluster: return "sge";
    case ResourceKind::kCondorPool: return "condor";
    case ResourceKind::kBoincPool: return "boinc";
  }
  return "?";
}

LocalResource::LocalResource(sim::Simulation& sim, std::string name)
    : sim_(sim),
      name_(std::move(name)),
      metrics_(&obs::MetricsRegistry::null()),
      tracer_(&obs::Tracer::null()) {}

void LocalResource::set_observability(obs::MetricsRegistry& metrics,
                                      obs::Tracer& tracer) {
  metrics_ = &metrics;
  tracer_ = &tracer;
  on_observability();
}

void LocalResource::accept(GridJob& job) {
  job.state = JobState::kQueued;
  job.resource = this;
  job.queued_time = sim_.now();
}

void LocalResource::begin_attempt(GridJob& job) {
  job.state = JobState::kRunning;
  job.start_time = sim_.now();
  job.attempts += 1;
}

void LocalResource::finish(GridJob& job, const JobOutcome& outcome) {
  if (outcome.completed()) {
    job.state = JobState::kCompleted;
    job.finish_time = sim_.now();
  } else {
    job.state = outcome.cause == FailureCause::kCancelled
                    ? JobState::kCancelled
                    : JobState::kFailed;
    job.wasted_cpu_seconds += outcome.cpu_seconds;
  }
  if (callback_) callback_(job, outcome);
}

// ---------------------------------------------------------------------------
// QueuedResource

void QueuedResource::on_observability() {
  obs::MetricsRegistry& m = metrics();
  obs_started_ =
      &m.counter("grid.attempts_started", "attempts",
                 "job attempts started on a local resource", name());
  obs_completed_ = &m.counter("grid.attempts_completed", "attempts",
                              "job attempts that ran to completion", name());
  obs_kills_ = &kill_counter(m);
  obs_cancelled_ = &m.counter("grid.attempts_cancelled", "attempts",
                              "attempts removed by cancellation", name());
  obs_outage_kills_ =
      &m.counter("grid.outage_kills", "attempts",
                 "attempts lost to a resource-level outage", name());
  // Local-queue wait buckets: 1 min .. 1 week.
  obs_queue_wait_ = &m.histogram(
      "grid.queue_wait_s",
      {60.0, 600.0, 3600.0, 6.0 * 3600.0, 86400.0, 7.0 * 86400.0}, "s",
      "local-queue wait from acceptance to start", name());
}

void QueuedResource::submit(GridJob& job) {
  if (outage_) {
    // The LRM front end is down: the submission bounces immediately and
    // the grid level reschedules (or backs off) on kOutage instead of
    // queueing into a black hole.
    job.resource = this;
    fail_for_outage(job);
    return;
  }
  accept(job);
  enqueue(job);
  try_start();
}

void QueuedResource::fail_for_outage(GridJob& job) {
  obs_outage_kills_->inc();
  finish(job, JobOutcome{FailureCause::kOutage, 0.0, "outage"});
}

void QueuedResource::set_outage(bool down) {
  if (down == outage_) return;
  outage_ = down;
  if (!down) {
    try_start();
    return;
  }
  // Move the held jobs aside first: finish() can synchronously resubmit,
  // and a resubmission during the outage must find the resource empty.
  std::vector<GridJob*> queued;
  std::vector<Attempt> running;
  drain(queued, running);
  for (const Attempt& attempt : running) sim_.cancel(attempt.completion);
  for (GridJob* job : queued) fail_for_outage(*job);
  for (const Attempt& attempt : running) {
    end_attempt(attempt, FailureCause::kOutage, "outage");
  }
}

void QueuedResource::cancel(std::uint64_t job_id) {
  if (GridJob* job = unqueue(job_id)) {
    obs_cancelled_->inc();
    finish(*job, JobOutcome{FailureCause::kCancelled, 0.0, "cancelled"});
    return;
  }
  const Attempt attempt = stop(job_id);
  if (attempt.job == nullptr) return;
  sim_.cancel(attempt.completion);
  end_attempt(attempt, FailureCause::kCancelled, "cancelled");
}

QueuedResource::Attempt QueuedResource::start_attempt(GridJob& job) {
  begin_attempt(job);
  obs_started_->inc();
  obs_queue_wait_->observe(sim_.now() - job.queued_time);
  tracer().async_begin("attempt", "grid.attempt", job.id, sim_.now(),
                       {{"resource", name()}});
  return Attempt{&job, {}, sim_.now()};
}

void QueuedResource::end_attempt(const Attempt& attempt, FailureCause cause,
                                 std::string reason) {
  GridJob& job = *attempt.job;
  switch (cause) {
    case FailureCause::kNone: obs_completed_->inc(); break;
    case FailureCause::kCancelled: obs_cancelled_->inc(); break;
    case FailureCause::kOutage: obs_outage_kills_->inc(); break;
    default: obs_kills_->inc(); break;
  }
  tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                     {{"reason", reason}});
  try_start();
  finish(job, JobOutcome{cause, sim_.now() - attempt.started,
                         std::move(reason)});
}

// ---------------------------------------------------------------------------
// BatchQueueResource

BatchQueueResource::BatchQueueResource(sim::Simulation& sim, std::string name,
                                       Config config)
    : QueuedResource(sim, std::move(name)), config_(config) {
  assert(config_.nodes > 0 && config_.cores_per_node > 0);
  assert(config_.node_speed > 0.0);
  on_observability();
}

obs::Counter& BatchQueueResource::kill_counter(obs::MetricsRegistry& metrics) {
  return metrics.counter("grid.walltime_kills", "attempts",
                         "attempts killed by the LRM walltime limit", name());
}

void BatchQueueResource::info_into(ResourceInfo& out) const {
  out.name = name();
  out.kind = config_.kind;
  out.total_slots = config_.nodes * config_.cores_per_node;
  out.free_slots = out.total_slots - running_.size();
  out.queued_jobs = queue_.size();
  out.node_memory_gb = config_.node_memory_gb;
  out.platforms.assign(1, config_.platform);
  out.mpi_capable = config_.mpi_capable;
  out.software = config_.software;
  out.stable = true;
}

void BatchQueueResource::try_start() {
  if (outage()) return;
  const std::size_t slots = config_.nodes * config_.cores_per_node;
  while (!queue_.empty() && running_.size() < slots) {
    GridJob* job = queue_.front();
    queue_.pop_front();
    Attempt attempt = start_attempt(*job);

    const double staging =
        (job->input_mb + job->output_mb) / Config::kStageMbPerSecond;
    const double wall = config_.job_overhead_seconds + staging +
                        job->true_reference_runtime / config_.node_speed;
    const bool walltime_killed =
        config_.max_walltime > 0.0 && wall > config_.max_walltime;
    const double duration =
        walltime_killed ? config_.max_walltime : wall;
    const std::uint64_t id = job->id;
    attempt.completion = sim_.after(duration, [this, id, walltime_killed] {
      const Attempt ended = stop(id);
      if (ended.job == nullptr) return;
      if (walltime_killed) {
        end_attempt(ended, FailureCause::kDeadlineMiss, "walltime");
      } else {
        end_attempt(ended, FailureCause::kNone, "completed");
      }
    });
    running_.push_back(attempt);
  }
}

GridJob* BatchQueueResource::unqueue(std::uint64_t job_id) {
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const GridJob* j) { return j->id == job_id; });
  if (it == queue_.end()) return nullptr;
  GridJob* job = *it;
  queue_.erase(it);
  return job;
}

QueuedResource::Attempt BatchQueueResource::stop(std::uint64_t job_id) {
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const Attempt& a) { return a.job->id == job_id; });
  if (it == running_.end()) return {};
  const Attempt attempt = *it;
  running_.erase(it);
  return attempt;
}

void BatchQueueResource::drain(std::vector<GridJob*>& queued,
                               std::vector<Attempt>& running) {
  queued.assign(queue_.begin(), queue_.end());
  queue_.clear();
  running.swap(running_);
}

// ---------------------------------------------------------------------------
// CondorPool

CondorPool::CondorPool(sim::Simulation& sim, std::string name, Config config)
    : QueuedResource(sim, std::move(name)),
      config_(config),
      rng_(config.seed) {
  assert(config_.machines > 0);
  machines_.resize(config_.machines);
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    // Lognormal heterogeneity with the configured mean.
    const double sigma = config_.speed_sigma;
    machines_[m].speed = config_.mean_speed *
                         rng_.lognormal(-0.5 * sigma * sigma, sigma);
    machines_[m].memory_gb =
        config_.memory_sigma > 0.0
            ? Config::kMachineMemoryGb *
                  rng_.lognormal(-0.5 * config_.memory_sigma *
                                     config_.memory_sigma,
                                 config_.memory_sigma)
            : Config::kMachineMemoryGb;
    // Start a fraction of machines owner-busy so the pool does not begin
    // artificially empty.
    const double busy_fraction =
        config_.mean_busy_hours /
        (config_.mean_busy_hours + config_.mean_idle_hours);
    machines_[m].owner_busy = rng_.bernoulli(busy_fraction);
    schedule_owner_cycle(m);
  }
  machine_ads_.reserve(machines_.size());
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    machine_ads_.push_back(machine_ad(m));
  }
  on_observability();
}

obs::Counter& CondorPool::kill_counter(obs::MetricsRegistry& metrics) {
  return metrics.counter("grid.preemptions", "attempts",
                         "attempts lost to owner-return preemption", name());
}

std::vector<double> CondorPool::machine_speeds() const {
  std::vector<double> speeds;
  speeds.reserve(machines_.size());
  for (const Machine& machine : machines_) speeds.push_back(machine.speed);
  return speeds;
}

void CondorPool::schedule_owner_cycle(std::size_t machine) {
  Machine& m = machines_[machine];
  const double hours =
      m.owner_busy ? config_.mean_busy_hours : config_.mean_idle_hours;
  const double duration = rng_.exponential(hours * 3600.0);
  sim_.after(duration, [this, machine] {
    if (machines_[machine].owner_busy) {
      owner_leaves(machine);
    } else {
      owner_arrives(machine);
    }
    schedule_owner_cycle(machine);
  });
}

void CondorPool::owner_arrives(std::size_t machine) {
  Machine& m = machines_[machine];
  m.owner_busy = true;
  if (m.attempt.job == nullptr) return;
  // Vanilla-universe preemption: the job's progress on this machine is
  // lost and the grid level must reschedule. The machine is the owner's
  // now, so end_attempt's try_start has no new slot to fill.
  const Attempt attempt = std::exchange(m.attempt, Attempt{});
  sim_.cancel(attempt.completion);
  util::log_debug("condor", "{}: preempted job {} after {:.0f}s", name(),
                  attempt.job->id, sim_.now() - attempt.started);
  end_attempt(attempt, FailureCause::kHostVanished, "preempted");
}

void CondorPool::owner_leaves(std::size_t machine) {
  machines_[machine].owner_busy = false;
  try_start();
}

void CondorPool::info_into(ResourceInfo& out) const {
  out.name = name();
  out.kind = ResourceKind::kCondorPool;
  out.total_slots = machines_.size();
  std::size_t free = 0;
  for (const Machine& m : machines_) {
    if (!m.owner_busy && m.attempt.job == nullptr) ++free;
  }
  out.free_slots = free;
  out.queued_jobs = queue_.size();
  out.node_memory_gb = Config::kMachineMemoryGb;
  out.platforms.assign(1, config_.platform);
  out.mpi_capable = false;
  out.software = config_.software;
  out.stable = false;
}

void CondorPool::enqueue(GridJob& job) {
  queue_.push_back(
      {&job, AdExpression::parse(condor_requirements_expression(job))});
}

GridJob* CondorPool::unqueue(std::uint64_t job_id) {
  const auto it =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const QueuedJob& q) { return q.job->id == job_id; });
  if (it == queue_.end()) return nullptr;
  GridJob* job = it->job;
  queue_.erase(it);
  return job;
}

QueuedResource::Attempt CondorPool::stop(std::uint64_t job_id) {
  for (Machine& machine : machines_) {
    if (machine.attempt.job != nullptr && machine.attempt.job->id == job_id) {
      return std::exchange(machine.attempt, Attempt{});
    }
  }
  return {};
}

void CondorPool::drain(std::vector<GridJob*>& queued,
                       std::vector<Attempt>& running) {
  for (const QueuedJob& entry : queue_) queued.push_back(entry.job);
  queue_.clear();
  for (Machine& machine : machines_) {
    if (machine.attempt.job == nullptr) continue;
    running.push_back(std::exchange(machine.attempt, Attempt{}));
  }
}

grid::ClassAd CondorPool::machine_ad(std::size_t machine) const {
  const Machine& m = machines_[machine];
  ClassAd ad;
  switch (config_.platform.os) {
    case OsType::kLinux: ad["OpSys"] = std::string("LINUX"); break;
    case OsType::kWindows: ad["OpSys"] = std::string("WINDOWS"); break;
    case OsType::kMacOS: ad["OpSys"] = std::string("OSX"); break;
  }
  switch (config_.platform.arch) {
    case Arch::kX86: ad["Arch"] = std::string("INTEL"); break;
    case Arch::kX86_64: ad["Arch"] = std::string("X86_64"); break;
    case Arch::kPowerPC: ad["Arch"] = std::string("PPC"); break;
  }
  ad["Memory"] = m.memory_gb * 1024.0;  // MB, as Condor advertises
  ad["KFlops"] = m.speed * 1e6;
  return ad;
}

void CondorPool::try_start() {
  if (outage()) return;
  // Condor-style matchmaking: each queued job (FIFO priority) is matched
  // against the idle machines' ClassAds using the job's requirements
  // expression; a job with no eligible idle machine does not block the
  // jobs behind it. Only idle machines can take a job, so the pass scans
  // them, in machine order, and a placed job's machine leaves the list.
  idle_.clear();
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    if (!machines_[m].owner_busy && machines_[m].attempt.job == nullptr) {
      idle_.push_back(m);
    }
  }
  for (std::size_t q = 0; q < queue_.size() && !idle_.empty();) {
    GridJob* job = queue_[q].job;
    const AdExpression& requirements = queue_[q].requirements;
    bool placed = false;
    for (std::size_t i = 0; i < idle_.size(); ++i) {
      const std::size_t m = idle_[i];
      if (!requirements.matches(machine_ads_[m])) continue;
      idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(i));
      Machine& machine = machines_[m];
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(q));
      machine.attempt = start_attempt(*job);
      const double duration =
          config_.job_overhead_seconds +
          (job->input_mb + job->output_mb) / Config::kStageMbPerSecond +
          job->true_reference_runtime / machine.speed;
      machine.attempt.completion = sim_.after(duration, [this, m] {
        end_attempt(std::exchange(machines_[m].attempt, Attempt{}),
                    FailureCause::kNone, "completed");
      });
      placed = true;
      break;
    }
    if (!placed) ++q;
  }
}

}  // namespace lattice::grid
