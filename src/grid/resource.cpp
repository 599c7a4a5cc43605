#include "grid/resource.hpp"

#include <algorithm>
#include <cassert>

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

void LocalResource::notify(GridJob& job, const JobOutcome& outcome) {
  if (callback_) callback_(job, outcome);
}

namespace {
// Local-queue wait buckets shared by every LRM: 1 min .. 1 week.
std::vector<double> queue_wait_bounds() {
  return {60.0, 600.0, 3600.0, 6.0 * 3600.0, 86400.0, 7.0 * 86400.0};
}
}  // namespace

// ---------------------------------------------------------------------------
// BatchQueueResource

BatchQueueResource::BatchQueueResource(sim::Simulation& sim, std::string name,
                                       Config config)
    : LocalResource(sim, std::move(name)), config_(config) {
  assert(config_.nodes > 0 && config_.cores_per_node > 0);
  assert(config_.node_speed > 0.0);
  on_observability();
}

void BatchQueueResource::on_observability() {
  obs::MetricsRegistry& m = metrics();
  obs_started_ =
      &m.counter("grid.attempts_started", "attempts",
                 "job attempts started on a local resource", name());
  obs_completed_ = &m.counter("grid.attempts_completed", "attempts",
                              "job attempts that ran to completion", name());
  obs_walltime_kills_ =
      &m.counter("grid.walltime_kills", "attempts",
                 "attempts killed by the LRM walltime limit", name());
  obs_cancelled_ = &m.counter("grid.attempts_cancelled", "attempts",
                              "attempts removed by cancellation", name());
  obs_outage_kills_ =
      &m.counter("grid.outage_kills", "attempts",
                 "attempts lost to a resource-level outage", name());
  obs_queue_wait_ =
      &m.histogram("grid.queue_wait_s", queue_wait_bounds(), "s",
                   "local-queue wait from acceptance to start", name());
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

void BatchQueueResource::submit(GridJob& job) {
  job.resource = name();
  if (outage_) {
    // The LRM front end is down: the submission bounces immediately and
    // the grid level reschedules (or backs off) on kOutage.
    job.state = JobState::kFailed;
    obs_outage_kills_->inc();
    notify(job, JobOutcome{FailureCause::kOutage, 0.0, "outage"});
    return;
  }
  job.state = JobState::kQueued;
  job.queued_time = sim_.now();
  queue_.push_back(&job);
  try_start();
}

void BatchQueueResource::set_outage(bool down) {
  if (down == outage_) return;
  outage_ = down;
  if (down) {
    fail_all_for_outage();
  } else {
    try_start();
  }
}

void BatchQueueResource::fail_all_for_outage() {
  // Move the held jobs aside first: notify() can synchronously resubmit.
  std::deque<GridJob*> queued;
  queued.swap(queue_);
  std::vector<Running> running;
  running.swap(running_);
  for (Running& entry : running) sim_.cancel(entry.completion);
  for (GridJob* job : queued) {
    job->state = JobState::kFailed;
    obs_outage_kills_->inc();
    notify(*job, JobOutcome{FailureCause::kOutage, 0.0, "outage"});
  }
  for (Running& entry : running) {
    GridJob& job = *entry.job;
    const double cpu = sim_.now() - entry.started;
    job.state = JobState::kFailed;
    job.wasted_cpu_seconds += cpu;
    obs_outage_kills_->inc();
    tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                       {{"reason", "outage"}});
    notify(job, JobOutcome{FailureCause::kOutage, cpu, "outage"});
  }
}

void BatchQueueResource::try_start() {
  if (outage_) return;
  const std::size_t slots = config_.nodes * config_.cores_per_node;
  while (!queue_.empty() && running_.size() < slots) {
    GridJob* job = queue_.front();
    queue_.pop_front();
    job->state = JobState::kRunning;
    job->start_time = sim_.now();
    job->attempts += 1;
    obs_started_->inc();
    obs_queue_wait_->observe(sim_.now() - job->queued_time);
    tracer().async_begin("attempt", "grid.attempt", job->id, sim_.now(),
                         {{"resource", name()}});

    const double staging =
        (job->input_mb + job->output_mb) / config_.stage_mb_per_second;
    const double wall = config_.job_overhead_seconds + staging +
                        job->true_reference_runtime / config_.node_speed;
    const bool walltime_killed =
        config_.max_walltime > 0.0 && wall > config_.max_walltime;
    const double duration =
        walltime_killed ? config_.max_walltime : wall;
    const std::uint64_t id = job->id;
    Running entry{job, {}, sim_.now()};
    entry.completion = sim_.after(
        duration, [this, id, walltime_killed] { finish(id, walltime_killed); });
    running_.push_back(entry);
  }
}

void BatchQueueResource::finish(std::uint64_t job_id, bool walltime_killed) {
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const Running& r) { return r.job->id == job_id; });
  if (it == running_.end()) return;
  GridJob& job = *it->job;
  const double cpu = sim_.now() - it->started;
  running_.erase(it);

  JobOutcome outcome;
  outcome.cpu_seconds = cpu;
  if (walltime_killed) {
    job.state = JobState::kFailed;
    job.wasted_cpu_seconds += cpu;
    outcome.cause = FailureCause::kDeadlineMiss;
    outcome.reason = "walltime";
    obs_walltime_kills_->inc();
  } else {
    job.state = JobState::kCompleted;
    job.finish_time = sim_.now();
    outcome.cause = FailureCause::kNone;
    outcome.reason = "completed";
    obs_completed_->inc();
  }
  tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                     {{"reason", outcome.reason}});
  try_start();
  notify(job, outcome);
}

void BatchQueueResource::cancel(std::uint64_t job_id) {
  const auto queued =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const GridJob* j) { return j->id == job_id; });
  if (queued != queue_.end()) {
    GridJob& job = **queued;
    queue_.erase(queued);
    job.state = JobState::kCancelled;
    obs_cancelled_->inc();
    notify(job, JobOutcome{FailureCause::kCancelled, 0.0, "cancelled"});
    return;
  }
  const auto it =
      std::find_if(running_.begin(), running_.end(),
                   [&](const Running& r) { return r.job->id == job_id; });
  if (it == running_.end()) return;
  GridJob& job = *it->job;
  const double cpu = sim_.now() - it->started;
  sim_.cancel(it->completion);
  running_.erase(it);
  job.state = JobState::kCancelled;
  job.wasted_cpu_seconds += cpu;
  obs_cancelled_->inc();
  tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                     {{"reason", "cancelled"}});
  try_start();
  notify(job, JobOutcome{FailureCause::kCancelled, cpu, "cancelled"});
}

// ---------------------------------------------------------------------------
// CondorPool

CondorPool::CondorPool(sim::Simulation& sim, std::string name, Config config)
    : LocalResource(sim, std::move(name)),
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
            ? config_.machine_memory_gb *
                  rng_.lognormal(-0.5 * config_.memory_sigma *
                                     config_.memory_sigma,
                                 config_.memory_sigma)
            : config_.machine_memory_gb;
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

void CondorPool::on_observability() {
  obs::MetricsRegistry& m = metrics();
  obs_started_ =
      &m.counter("grid.attempts_started", "attempts",
                 "job attempts started on a local resource", name());
  obs_completed_ = &m.counter("grid.attempts_completed", "attempts",
                              "job attempts that ran to completion", name());
  obs_preemptions_ =
      &m.counter("grid.preemptions", "attempts",
                 "attempts lost to owner-return preemption", name());
  obs_cancelled_ = &m.counter("grid.attempts_cancelled", "attempts",
                              "attempts removed by cancellation", name());
  obs_outage_kills_ =
      &m.counter("grid.outage_kills", "attempts",
                 "attempts lost to a resource-level outage", name());
  obs_queue_wait_ =
      &m.histogram("grid.queue_wait_s", queue_wait_bounds(), "s",
                   "local-queue wait from acceptance to start", name());
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
  if (m.job == nullptr) return;
  // Vanilla-universe preemption: the job's progress on this machine is
  // lost and the grid level must reschedule.
  GridJob& job = *m.job;
  const double cpu = sim_.now() - m.job_started;
  sim_.cancel(m.completion);
  m.job = nullptr;
  job.state = JobState::kFailed;
  job.wasted_cpu_seconds += cpu;
  obs_preemptions_->inc();
  tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                     {{"reason", "preempted"}});
  util::log_debug("condor", "{}: preempted job {} after {:.0f}s", name(),
                  job.id, cpu);
  notify(job, JobOutcome{FailureCause::kHostVanished, cpu, "preempted"});
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
    if (!m.owner_busy && m.job == nullptr) ++free;
  }
  out.free_slots = free;
  out.queued_jobs = queue_.size();
  out.node_memory_gb = config_.machine_memory_gb;
  out.platforms.assign(1, config_.platform);
  out.mpi_capable = false;
  out.software = config_.software;
  out.stable = false;
}

void CondorPool::submit(GridJob& job) {
  if (outage_) {
    // The pool's central manager is down: reject immediately so the grid
    // level can retry elsewhere instead of queueing into a black hole.
    job.resource = name();
    job.state = JobState::kFailed;
    obs_outage_kills_->inc();
    notify(job, JobOutcome{FailureCause::kOutage, 0.0, "outage"});
    return;
  }
  job.state = JobState::kQueued;
  job.resource = name();
  job.queued_time = sim_.now();
  queue_.push_back(
      {&job, AdExpression::parse(condor_requirements_expression(job))});
  try_start();
}

void CondorPool::set_outage(bool down) {
  if (down == outage_) return;
  outage_ = down;
  if (down) {
    fail_all_for_outage();
  } else {
    try_start();
  }
}

void CondorPool::fail_all_for_outage() {
  // Collect first, notify after: notify() can synchronously resubmit, and a
  // resubmission during an outage must see the queue already emptied.
  std::deque<QueuedJob> queued;
  queued.swap(queue_);
  std::vector<std::pair<GridJob*, double>> interrupted;
  for (Machine& machine : machines_) {
    if (machine.job == nullptr) continue;
    GridJob& job = *machine.job;
    const double cpu = sim_.now() - machine.job_started;
    sim_.cancel(machine.completion);
    machine.job = nullptr;
    job.state = JobState::kFailed;
    job.wasted_cpu_seconds += cpu;
    interrupted.emplace_back(&job, cpu);
  }
  for (QueuedJob& entry : queued) {
    GridJob& job = *entry.job;
    job.state = JobState::kFailed;
    obs_outage_kills_->inc();
    notify(job, JobOutcome{FailureCause::kOutage, 0.0, "outage"});
  }
  for (auto& [job, cpu] : interrupted) {
    obs_outage_kills_->inc();
    tracer().async_end("attempt", "grid.attempt", job->id, sim_.now(),
                       {{"reason", "outage"}});
    notify(*job, JobOutcome{FailureCause::kOutage, cpu, "outage"});
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
  if (outage_) return;
  // Condor-style matchmaking: each queued job (FIFO priority) is matched
  // against the idle machines' ClassAds using the job's requirements
  // expression; a job with no eligible idle machine does not block the
  // jobs behind it. Only idle machines can take a job, so the pass scans
  // them, in machine order, and a placed job's machine leaves the list.
  idle_.clear();
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    if (!machines_[m].owner_busy && machines_[m].job == nullptr) {
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
      machine.job = job;
      machine.job_started = sim_.now();
      job->state = JobState::kRunning;
      job->start_time = sim_.now();
      job->attempts += 1;
      obs_started_->inc();
      obs_queue_wait_->observe(sim_.now() - job->queued_time);
      tracer().async_begin("attempt", "grid.attempt", job->id, sim_.now(),
                           {{"resource", name()}});
      const double duration =
          config_.job_overhead_seconds +
          (job->input_mb + job->output_mb) / config_.stage_mb_per_second +
          job->true_reference_runtime / machine.speed;
      machine.completion =
          sim_.after(duration, [this, m] { complete(m); });
      placed = true;
      break;
    }
    if (!placed) ++q;
  }
}

void CondorPool::complete(std::size_t machine) {
  Machine& m = machines_[machine];
  if (m.job == nullptr) return;
  GridJob& job = *m.job;
  const double cpu = sim_.now() - m.job_started;
  m.job = nullptr;
  job.state = JobState::kCompleted;
  job.finish_time = sim_.now();
  obs_completed_->inc();
  tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                     {{"reason", "completed"}});
  try_start();
  notify(job, JobOutcome{FailureCause::kNone, cpu, "completed"});
}

void CondorPool::cancel(std::uint64_t job_id) {
  const auto queued =
      std::find_if(queue_.begin(), queue_.end(),
                   [&](const QueuedJob& q) { return q.job->id == job_id; });
  if (queued != queue_.end()) {
    GridJob& job = *queued->job;
    queue_.erase(queued);
    job.state = JobState::kCancelled;
    obs_cancelled_->inc();
    notify(job, JobOutcome{FailureCause::kCancelled, 0.0, "cancelled"});
    return;
  }
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    Machine& machine = machines_[m];
    if (machine.job == nullptr || machine.job->id != job_id) continue;
    GridJob& job = *machine.job;
    const double cpu = sim_.now() - machine.job_started;
    sim_.cancel(machine.completion);
    machine.job = nullptr;
    job.state = JobState::kCancelled;
    job.wasted_cpu_seconds += cpu;
    obs_cancelled_->inc();
    tracer().async_end("attempt", "grid.attempt", job.id, sim_.now(),
                       {{"reason", "cancelled"}});
    try_start();
    notify(job, JobOutcome{FailureCause::kCancelled, cpu, "cancelled"});
    return;
  }
}

}  // namespace lattice::grid
