#include "boinc/server.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

#include "net/model.hpp"
#include "util/log.hpp"

namespace lattice::boinc {

namespace {
/// Far-band bucket width for the host-churn calendar. The two-band
/// queue's pop order is window-invariant (sim/band_queue.hpp), so this is
/// purely a cache-size constant: a bucket holds roughly hosts · window /
/// mean flip interval entries, and each is sorted once, slice by slice,
/// when the lookahead barrier reaches it. Sizing the window for at most
/// ~16k entries (the width rounds down to a power of two) keeps a
/// released bucket and the run it is sorted into under 1 MB, inside a
/// server core's L2, while only ~2% of re-arms land below the threshold
/// in the near heap. On the recovery_500k and volunteer_1m benchmark
/// workloads (4-core avx512 Xeon, GCC 12.2, Release), targets from 4k to
/// 32k entries ran within noise of each other; 16k had the lowest peak
/// RSS.
double churn_far_window(const BoincPoolConfig& config) {
  constexpr double kMaxWindow = 8.0 * 3600.0;  // the kernel default
  constexpr double kMinWindow = 900.0;
  constexpr double kTargetBucketEntries = 16384.0;
  if (config.hosts == 0) return kMaxWindow;
  // A host flips on/off once per mean_on + once per mean_off hours.
  const double mean_flip_seconds =
      (config.mean_on_hours + config.mean_off_hours) * 3600.0 / 2.0;
  const double window = mean_flip_seconds * kTargetBucketEntries /
                        static_cast<double>(config.hosts);
  return std::clamp(window, kMinWindow, kMaxWindow);
}
}  // namespace

BoincServer::BoincServer(sim::Simulation& sim, std::string name,
                         BoincPoolConfig config)
    : grid::LocalResource(sim, std::move(name)),
      config_(config),
      rng_(config.seed),
      calendar_(churn_far_window(config)) {
  assert(config_.hosts > 0);
  // The transfer model draws no randomness (class assignment is a pure
  // function of the host key), so constructing it here leaves the host
  // RNG stream below untouched.
  if (config_.network.enabled) {
    network_ = std::make_unique<net::NetworkModel>(sim_, config_.network);
  }
  calendar_.ensure_keys(config_.hosts);
  // Pool-uniform churn distributions: fold the mean-preserving Weibull
  // normalization (E[X] = scale · Γ(1 + 1/shape)) into the scales once,
  // instead of once per flip. Shape 1.0 keeps the exponential model with
  // the identical draw sequence (Γ(2) = 1).
  churn_shape_ = config_.churn_weibull_shape;
  const double gamma_norm =
      churn_shape_ == 1.0 ? 1.0 : std::tgamma(1.0 + 1.0 / churn_shape_);
  churn_on_scale_ = config_.mean_on_hours * 3600.0 / gamma_norm;
  churn_off_scale_ = config_.mean_off_hours * 3600.0 / gamma_norm;
  churn_life_scale_ = config_.mean_lifetime_days * 86400.0 / gamma_norm;
  const double on_fraction =
      config_.mean_on_hours / (config_.mean_on_hours + config_.mean_off_hours);
  churn_state_.reserve(config_.hosts);
  for (std::size_t h = 0; h < config_.hosts; ++h) {
    VolunteerHost& host = hosts_.emplace_back();
    const double sigma = config_.speed_sigma;
    host.speed =
        config_.mean_speed * rng_.lognormal(-0.5 * sigma * sigma, sigma);
    // One class draw per host: flaky hosts take both the corruption and
    // the compute-error rate of their class (compute-error rates are 0
    // unless a fault plan sets them, so the baseline draw sequence holds).
    host.flaky = rng_.bernoulli(config_.flaky_host_fraction);
    // Host ids are assigned densely (h + 1), which makes both per-host
    // records a direct index by key (id - 1).
    churn_state_.push_back(ChurnState{rng_.split()});
    start(static_cast<std::uint32_t>(h), rng_.bernoulli(on_fraction));
  }
  transitioner_ = std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + config_.transitioner_period,
      config_.transitioner_period, [this] { transition(); });
  on_observability();
}

void BoincServer::on_observability() {
  obs::MetricsRegistry& m = metrics();
  obs_wu_created_ = &m.counter("boinc.workunits_created", "workunits",
                               "workunits accepted from the grid level",
                               name());
  obs_wu_validated_ =
      &m.counter("boinc.workunits_validated", "workunits",
                 "workunits that reached quorum with a canonical result",
                 name());
  obs_wu_failed_ = &m.counter(
      "boinc.workunits_failed", "workunits",
      "workunits abandoned (errors or result cap exhausted)", name());
  obs_results_issued_ =
      &m.counter("boinc.results_issued", "results",
                 "result instances created (initial replication plus "
                 "reissues)",
                 name());
  obs_results_sent_ = &m.counter("boinc.results_sent", "results",
                                 "result instances handed to a host", name());
  obs_results_success_ =
      &m.counter("boinc.results_success", "results",
                 "result instances reported back successfully", name());
  obs_results_error_ = &m.counter("boinc.results_error", "results",
                                  "result instances that failed on the host",
                                  name());
  obs_results_timed_out_ =
      &m.counter("boinc.results_timed_out", "results",
                 "result instances timed out by the transitioner", name());
  obs_results_reissued_ =
      &m.counter("boinc.results_reissued", "results",
                 "replacement result instances issued after "
                 "timeouts/errors/split votes",
                 name());
  obs_deadline_misses_ = &m.counter(
      "boinc.deadline_misses", "results",
      "results whose report deadline passed before a report arrived",
      name());
  obs_deadline_slack_ = &m.histogram(
      "boinc.deadline_slack_s",
      {-7.0 * 86400.0, -86400.0, 0.0, 3600.0, 6.0 * 3600.0, 86400.0,
       3.0 * 86400.0, 7.0 * 86400.0, 14.0 * 86400.0},
      "s", "deadline minus report time at success (negative = late)",
      name());
  obs_dispatch_wait_ = &m.histogram(
      "boinc.queue_wait_s",
      {60.0, 600.0, 3600.0, 6.0 * 3600.0, 86400.0, 3.0 * 86400.0,
       7.0 * 86400.0},
      "s", "wait from workunit creation to a result being sent", name());
  obs_reports_dropped_ = &m.counter(
      "fault.reports_dropped", "reports",
      "finished-result reports lost on the report path (fault injection)",
      name());
  obs_reports_delayed_ = &m.counter(
      "fault.reports_delayed", "reports",
      "finished-result reports deferred on the report path (fault injection)",
      name());
  if (network_ != nullptr) network_->bind_metrics(m, name());
}

void BoincServer::observe_result_end(const Result& result,
                                     std::string_view reason) {
  // Guarded: the attribute vector would otherwise allocate per result
  // even on the null tracer, and this runs for every result instance.
  if (!tracer().enabled()) return;
  tracer().async_end("result", "boinc.result", result.id, sim_.now(),
                     {{"reason", std::string(reason)}});
}

BoincServer::~BoincServer() = default;

void BoincServer::advance_pool() {
  // An idle flip touches exactly one churn record; the prefetch
  // hook pulls upcoming records of the due batch into cache ahead of
  // the fire cursor (the batch order is (when, seq) — effectively random
  // in key space, so at 10⁵–10⁶ hosts every record is a DRAM miss
  // without it).
  calendar_.advance(
      sim_.now(),
      [this](std::uint32_t key, sim::SimTime) { flip(key); },
      [this](std::uint32_t key) {
        __builtin_prefetch(&churn_state_[key], 1 /* for write */);
      });
}

std::size_t BoincServer::online_hosts() const {
  // Observation point: bring the lazy census up to now() first. The
  // object is never actually const-qualified; info_into shares the cast.
  const_cast<BoincServer*>(this)->advance_pool();
  return online_count_;
}

BoincServer::Census BoincServer::census_recount() const {
  Census census;
  for (const ChurnState& st : churn_state_) {
    if (st.departed != 0) {
      ++census.departed;
    } else if (st.online != 0) {
      ++census.online;
      if (st.has_task == 0) ++census.free;
    }
  }
  return census;
}

void BoincServer::info_into(grid::ResourceInfo& out) const {
  // Census read = cross-pool interaction: advance the host calendar to
  // the barrier so the incremental counts are exact at this instant.
  const_cast<BoincServer*>(this)->advance_pool();
  out.name = name();
  out.kind = grid::ResourceKind::kBoincPool;
  // Incremental census: both counts are maintained by host state-change
  // hooks (sync_census), not a scan of the host table.
  out.total_slots = hosts_.size() - departed_count_;
  out.free_slots = free_count_;
  out.queued_jobs = feeder_.size();
  out.node_memory_gb = 2.0;
  out.platforms.assign(1, config_.platform);
  out.mpi_capable = false;
  out.software.clear();
  out.stable = false;
}

void BoincServer::submit(grid::GridJob& job) {
  double delay_bound = config_.default_delay_bound;
  if (network_ != nullptr) {
    // Transfer-aware default bound: a deadline that was achievable on a
    // compute-only pool can be structurally unmeetable for a slow-link
    // cohort, so the expected (uncontended, population-weighted) staging
    // time rides on top. Estimate-derived bounds handle this through
    // DeadlinePolicy::typical_mbps instead.
    delay_bound +=
        network_->expected_staging_seconds(job.input_mb, job.output_mb);
  }
  submit(job, delay_bound);
}

void BoincServer::submit(grid::GridJob& job, double delay_bound) {
  accept(job);

  Workunit& wu = workunits_.emplace_back();
  wu.id = workunits_.size();
  wu.grid_job = &job;
  wu.created = sim_.now();
  wu.delay_bound = delay_bound;
  if (job.id >= live_workunits_.size()) live_workunits_.resize(job.id + 1);
  live_workunits_[job.id] = &wu;
  obs_wu_created_->inc();
  if (tracer().enabled()) {
    tracer().async_begin("workunit", "boinc.wu", wu.id, sim_.now(),
                         {{"grid_job", std::to_string(job.id)}});
  }
  for (int i = 0; i < config_.target_nresults; ++i) issue_result(wu);
  try_dispatch();
}

void BoincServer::issue_result(Workunit& wu) {
  if (static_cast<int>(wu.result_count) >= config_.max_total_results) return;
  // Link the new result behind the workunit's last (a chain of at most
  // max_total_results).
  Result* last = nullptr;
  for (Result& sibling : chain(wu)) last = &sibling;
  Result& result = results_.emplace_back();
  result.id = results_.size();
  result.workunit_id = wu.id;
  if (last == nullptr) {
    wu.first_result = result.id;
  } else {
    assert(result.id - last->id <= UINT32_MAX);
    last->next_gap = static_cast<std::uint32_t>(result.id - last->id);
  }
  ++wu.result_count;
  feeder_.enqueue(result.id);
  obs_results_issued_->inc();
}

void BoincServer::try_dispatch() {
  // Dispatch = cross-pool interaction: apply every idle-host flip due by
  // now before handing out work, so no host is assigned from stale state.
  advance_pool();
  dispatch_scratch_.clear();
  while (!feeder_.empty() && !idle_hosts_.empty()) {
    const std::uint32_t key = idle_hosts_.back();
    idle_hosts_.pop_back();
    ChurnState& st = churn_state_[key];
    st.idle_listed = 0;
    // Eligibility from the record alone (online, not departed, taskless);
    // the cold record is read only for an actual work request.
    if (st.online == 0 || st.departed != 0 || st.has_task != 0) continue;
    if (!request_work(key)) {
      // Every remaining unsent result is unsuitable for this host (the
      // one-result-per-host rule). With no backoff polls the host must
      // stay poke-able, and another idle host may still be eligible —
      // set it aside and keep trying the rest of the stack this round.
      dispatch_scratch_.push_back(key);
    }
  }
  for (const std::uint32_t key : dispatch_scratch_) {
    register_idle(key, churn_state_[key]);
  }
  dispatch_scratch_.clear();
}

bool BoincServer::request_work(std::uint32_t key) {
  const std::uint64_t host_id = std::uint64_t{key} + 1;
  // Feeder scan: FIFO over unsent results, dropping stale entries on
  // encounter and skipping (but retaining) results this host may not take.
  // The verdict sequence is exactly the seed's mid-deque scan; see
  // boinc/feeder.hpp.
  return feeder_.scan([&](std::uint64_t result_id) {
    Result* result = find_result(result_id);
    if (result == nullptr || result->state != ResultState::kUnsent) {
      return FeederQueue::Probe::kDrop;  // stale (workunit decided)
    }
    Workunit* wu = workunit_of_result(result_id);
    if (wu == nullptr || wu->state != WorkunitState::kActive) {
      return FeederQueue::Probe::kDrop;
    }
    // BOINC's "one result per user per workunit" rule: replicas of the
    // same workunit must land on distinct hosts, or a single flawed host
    // could satisfy the quorum with two copies of the same wrong answer.
    for (const Result& sibling : chain(*wu)) {
      if (sibling.host_id == host_id &&
          sibling.state != ResultState::kUnsent) {
        return FeederQueue::Probe::kSkip;
      }
    }
    result->state = ResultState::kInProgress;
    result->host_id = host_id;
    result->sent_time = sim_.now();
    result->deadline = sim_.now() + wu->delay_bound;
    // Every dispatch arms exactly one deadline-heap entry (a result's
    // deadline is set once and the state machine never re-enters
    // kInProgress), so entries need no removal — just lazy invalidation.
    deadline_heap_.push_back({result->deadline, result->id});
    std::push_heap(deadline_heap_.begin(), deadline_heap_.end(),
                   std::greater<>{});
    obs_results_sent_->inc();
    obs_dispatch_wait_->observe(sim_.now() - wu->created);
    if (tracer().enabled()) {
      tracer().async_begin("result", "boinc.result", result->id, sim_.now(),
                           {{"host", std::to_string(host_id)},
                            {"workunit", std::to_string(wu->id)}});
    }
    grid::GridJob& job = *wu->grid_job;
    if (job.state == grid::JobState::kQueued) begin_attempt(job);
    // The per-result overhead and data staging are wall-clock on the host,
    // so they enter the work ledger scaled by host speed. With the transfer
    // model on, staging leaves the ledger entirely (zero free staging) and
    // becomes contended download/upload events around the compute phase.
    double staging = 0.0;
    if (network_ == nullptr) {
      staging = (job.input_mb + job.output_mb) /
                BoincPoolConfig::kHostMbPerSecond;
    }
    assign(key, result->id,
           job.true_reference_runtime +
               (BoincPoolConfig::kResultOverheadSeconds + staging) *
                   hosts_[key].speed,
           job.input_mb, job.output_mb);
    return FeederQueue::Probe::kTake;
  });
}

void BoincServer::start(std::uint32_t key, bool initially_online) {
  ChurnState& st = churn_state_[key];
  // Permanent departure clock runs regardless of the on/off cycle; drawn
  // first, then the first availability interval (stable draw order).
  st.lifetime_end =
      sim_.now() + churn_draw(st.rng, churn_shape_, churn_life_scale_);
  if (initially_online) {
    st.online = 1;
    sync_census(st);
    register_idle(key, st);
  }
  st.next_transition =
      sim_.now() + churn_draw(st.rng, churn_shape_,
                              initially_online ? churn_on_scale_
                                               : churn_off_scale_);
  arm_churn(key);
}

void BoincServer::depart(std::uint32_t key) {
  ChurnState& st = churn_state_[key];
  if (st.departed != 0) return;
  st.departed = 1;
  if (st.has_task != 0) {
    const Task& task = task_of(st).task;
    if (task.phase == TaskPhase::kCompute && st.online != 0) pause(key);
    if (task.transfer != 0) network_->cancel(task.transfer);
    // The host will never report; the transitioner handles the reissue
    // when the deadline passes (exactly the paper's motivation for
    // accurate deadlines — a departed host otherwise stalls the batch).
    util::log_debug("boinc", "host departed holding result {}",
                    task.result_id);
    release_task_slot(st);
  }
  st.online = 0;
  sync_census(st);
  calendar_.cancel(key);
}

void BoincServer::seek_work(std::uint32_t key) {
  ChurnState& st = churn_state_[key];
  if (st.online == 0 || st.departed != 0 || st.has_task != 0) return;
  if (!request_work(key)) register_idle(key, st);
}

HostTask& BoincServer::take_task_slot(ChurnState& st) {
  if (free_task_slots_.empty()) {
    st.task_slot = static_cast<std::uint32_t>(task_slots_.size());
    task_slots_.emplace_back();
  } else {
    st.task_slot = free_task_slots_.back();
    free_task_slots_.pop_back();
  }
  st.has_task = 1;
  HostTask& slot = task_of(st);
  slot = HostTask{};
  return slot;
}

void BoincServer::release_task_slot(ChurnState& st) {
  sim_.cancel(task_of(st).timer);
  free_task_slots_.push_back(st.task_slot);
  st.has_task = 0;
}

void BoincServer::assign(std::uint32_t key, std::uint64_t result_id,
                         double reference_work, double input_mb,
                         double output_mb) {
  ChurnState& st = churn_state_[key];
  assert(st.online != 0 && st.departed == 0 && st.has_task == 0);
  Task& task = take_task_slot(st).task;
  task.result_id = result_id;
  task.remaining_work = reference_work;
  sync_census(st);
  // Taking a task: churn leaves the calendar for the host's kernel timer.
  calendar_.cancel(key);
  if (network_ != nullptr) {
    arm_churn(key);
    // Stage the input through the contended downlink first; compute starts
    // from the transfer callback. The upload size waits in the task.
    task.phase = TaskPhase::kDownload;
    task.output_mb = output_mb;
    task.link_class = network_->config().class_of_host(key);
    task.transfer = network_->start(
        net::Direction::kDown, task.link_class, input_mb,
        [this, key, result_id] { on_download_complete(key, result_id); });
    return;
  }
  resume(key);
  arm_churn(key);
}

void BoincServer::on_download_complete(std::uint32_t key,
                                       std::uint64_t result_id) {
  const ChurnState& st = churn_state_[key];
  if (st.has_task == 0) return;  // stale delivery: the task moved on
  Task& task = task_of(st).task;
  if (task.result_id != result_id || task.phase != TaskPhase::kDownload) {
    return;  // stale delivery: another task, or this one moved on
  }
  task.transfer = 0;
  task.phase = TaskPhase::kCompute;
  // Finished while the host is off: park as a checkpointed compute task;
  // the next online flip resumes it.
  if (st.online != 0) {
    resume(key);
    arm_churn(key);
  }
}

void BoincServer::resume(std::uint32_t key) {
  HostTask& slot = task_of(churn_state_[key]);
  slot.compute_started = sim_.now();
  slot.completion_at =
      sim_.now() +
      std::max(slot.task.remaining_work / hosts_[key].speed, 0.0);
}

void BoincServer::pause(std::uint32_t key) {
  HostTask& slot = task_of(churn_state_[key]);
  const double elapsed = sim_.now() - slot.compute_started;
  slot.task.remaining_work -= elapsed * hosts_[key].speed;
  slot.task.cpu_spent += elapsed;
  slot.completion_at = HostTask::kNever;
}

void BoincServer::complete(std::uint32_t key) {
  ChurnState& st = churn_state_[key];
  const VolunteerHost& host = hosts_[key];
  HostTask& slot = task_of(st);
  Task& task = slot.task;
  task.cpu_spent += sim_.now() - slot.compute_started;
  slot.completion_at = HostTask::kNever;
  const std::uint64_t result_id = task.result_id;
  const double cpu = task.cpu_spent;
  // Fault injection: outright compute failure, reported through the error
  // path (gated so an unconfigured host draws nothing and the baseline RNG
  // stream is untouched). Error reports carry metadata, not output — they
  // skip the upload stage even with the transfer model on.
  const double compute_error = host.flaky
                                   ? config_.flaky_compute_error_probability
                                   : config_.host_compute_error_probability;
  if (compute_error > 0.0 && st.rng.bernoulli(compute_error)) {
    clear_task(key);
    report_error(result_id, cpu);
    seek_work(key);
    return;
  }
  const bool flawed = st.rng.bernoulli(host.flaky
                                           ? config_.flaky_error_probability
                                           : config_.host_error_probability);
  // A flawed host perturbs the output fingerprint; the validator's quorum
  // comparison is what catches it.
  const std::uint64_t hash = flawed ? 0xbad0000 + std::uint64_t{key} + 1 : 0;
  if (network_ != nullptr) {
    // Return the output through the contended uplink; the report fires on
    // upload completion and the host stays busy until then (matching a
    // client that cannot fetch new work while its result is in flight).
    // The timer that fired was the completion; it goes back to the flip.
    task.phase = TaskPhase::kUpload;
    task.pending_hash = hash;
    task.transfer = network_->start(
        net::Direction::kUp, task.link_class, task.output_mb,
        [this, key, result_id] { on_upload_complete(key, result_id); });
    arm_churn(key);
    return;
  }
  clear_task(key);
  report_result(result_id, cpu, hash);
  seek_work(key);
}

void BoincServer::on_upload_complete(std::uint32_t key,
                                     std::uint64_t result_id) {
  const ChurnState& st = churn_state_[key];
  if (st.has_task == 0) return;  // stale delivery
  const Task& task = task_of(st).task;
  if (task.result_id != result_id || task.phase != TaskPhase::kUpload) {
    return;  // stale delivery
  }
  const double cpu = task.cpu_spent;
  const std::uint64_t hash = task.pending_hash;
  clear_task(key);
  report_result(result_id, cpu, hash);
  seek_work(key);
}

void BoincServer::abort_task(std::uint32_t key, std::uint64_t result_id) {
  const ChurnState& st = churn_state_[key];
  if (st.has_task == 0) return;
  const Task& task = task_of(st).task;
  if (task.result_id != result_id) return;
  // Account the partial progress of the in-flight slice as well.
  if (task.phase == TaskPhase::kCompute && st.online != 0) pause(key);
  if (task.transfer != 0) network_->cancel(task.transfer);
  discarded_cpu_ += task.cpu_spent;
  clear_task(key);
  seek_work(key);
}

void BoincServer::clear_task(std::uint32_t key) {
  ChurnState& st = churn_state_[key];
  release_task_slot(st);
  sync_census(st);
  if (st.departed != 0) return;
  arm_churn(key);
}

Result* BoincServer::find_result(std::uint64_t result_id) {
  if (result_id == 0 || result_id > results_.size()) return nullptr;
  return &results_[result_id - 1];
}

Workunit* BoincServer::workunit_of_result(std::uint64_t result_id) {
  const Result* result = find_result(result_id);
  return result == nullptr ? nullptr : workunit_of(result->workunit_id);
}

int BoincServer::outstanding(const Workunit& wu) const {
  int n = 0;
  for (const Result& r : results_of(wu)) {
    if (r.state == ResultState::kUnsent ||
        r.state == ResultState::kInProgress) {
      ++n;
    }
  }
  return n;
}

Workunit* BoincServer::workunit_of(std::uint64_t workunit_id) {
  if (workunit_id == 0 || workunit_id > workunits_.size()) return nullptr;
  return &workunits_[workunit_id - 1];
}

void BoincServer::report_result(std::uint64_t result_id, double cpu_seconds,
                                std::uint64_t output_hash) {
  // Fault injection on the report path (both gates draw nothing when their
  // probability is 0, keeping the baseline RNG stream intact). A dropped
  // report leaves the result kInProgress; the transitioner's deadline heap
  // eventually times it out and reissues — exactly the recovery mechanism
  // the paper's deadline work motivates.
  if (config_.report_drop_probability > 0.0 &&
      rng_.bernoulli(config_.report_drop_probability)) {
    obs_reports_dropped_->inc();
    total_cpu_ += cpu_seconds;
    discarded_cpu_ += cpu_seconds;
    util::log_debug("boinc", "report for result {} dropped", result_id);
    return;
  }
  if (config_.report_delay_probability > 0.0 &&
      rng_.bernoulli(config_.report_delay_probability)) {
    obs_reports_delayed_->inc();
    sim_.after(config_.report_delay_seconds,
               [this, result_id, cpu_seconds, output_hash] {
                 deliver_report(result_id, cpu_seconds, output_hash);
               });
    return;
  }
  deliver_report(result_id, cpu_seconds, output_hash);
}

void BoincServer::deliver_report(std::uint64_t result_id, double cpu_seconds,
                                 std::uint64_t output_hash) {
  Result* result = find_result(result_id);
  if (result == nullptr) return;
  total_cpu_ += cpu_seconds;
  const bool was_in_progress = result->state == ResultState::kInProgress;
  Workunit* wu = workunit_of_result(result_id);
  assert(wu != nullptr);
  if (wu->state != WorkunitState::kActive) {
    // Straggler for an already-decided workunit: wasted duplication.
    result->state = ResultState::kAborted;
    wasted_duplicate_ += cpu_seconds;
    if (was_in_progress) observe_result_end(*result, "straggler");
    return;
  }
  result->state = ResultState::kSuccess;
  result->received_time = sim_.now();
  result->cpu_seconds = cpu_seconds;
  result->output_hash = output_hash;
  obs_results_success_->inc();
  if (was_in_progress) {
    observe_result_end(*result, "success");
    // Positive slack = reported ahead of the deadline; a late report that
    // beat the transitioner still counts as a deadline miss.
    obs_deadline_slack_->observe(result->deadline - sim_.now());
    if (sim_.now() > result->deadline) obs_deadline_misses_->inc();
  }
  validate(*wu);
}

void BoincServer::report_error(std::uint64_t result_id, double cpu_seconds) {
  Result* result = find_result(result_id);
  if (result == nullptr) return;
  total_cpu_ += cpu_seconds;
  const bool was_in_progress = result->state == ResultState::kInProgress;
  result->state = ResultState::kError;
  obs_results_error_->inc();
  if (was_in_progress) observe_result_end(*result, "error");
  Workunit* wu = workunit_of_result(result_id);
  if (wu != nullptr && wu->state == WorkunitState::kActive) {
    ++reissued_;
    obs_results_reissued_->inc();
    issue_result(*wu);
    try_dispatch();
    if (outstanding(*wu) == 0) {
      finish_workunit(*wu, "too many errors");
    }
  }
}

void BoincServer::time_out_result(Result& result) {
  observe_result_end(result, "timeout");
  result.state = ResultState::kTimedOut;
  ++timeouts_;
  obs_results_timed_out_->inc();
  obs_deadline_misses_->inc();
  // Tell the holder to drop the task. This can synchronously hand the
  // freed host a new unsent result.
  abort_task(host_key(result), result.id);
}

void BoincServer::reissue_after_timeouts(Workunit& wu) {
  if (outstanding(wu) >= config_.min_quorum) return;
  ++reissued_;
  obs_results_reissued_->inc();
  issue_result(wu);
  if (static_cast<int>(wu.result_count) >= config_.max_total_results &&
      outstanding(wu) == 0) {
    finish_workunit(wu, "result cap exhausted");
  }
}

void BoincServer::transition() {
  // Transitioner tick = cross-pool interaction barrier.
  advance_pool();
  if (transitioner_full_sweep_) {
    transition_full_sweep();
    return;
  }
  // Deadline heap: pop the overdue prefix (lazily discarding entries whose
  // result already left kInProgress), then replay the timeouts in the full
  // sweep's visit order — workunit-major, issuance order within a
  // workunit — because a timeout's synchronous host abort can trigger an
  // immediate dispatch, making processing order observable. Result ids
  // increase with issuance, so (workunit id, result id) is that order.
  overdue_scratch_.clear();
  while (!deadline_heap_.empty() &&
         deadline_heap_.front().deadline < sim_.now()) {
    std::pop_heap(deadline_heap_.begin(), deadline_heap_.end(),
                  std::greater<>{});
    const DeadlineEntry entry = deadline_heap_.back();
    deadline_heap_.pop_back();
    Result* result = find_result(entry.result_id);
    if (result == nullptr || result->state != ResultState::kInProgress) {
      continue;  // lazily deleted: reported/aborted since dispatch
    }
    overdue_scratch_.emplace_back(result->workunit_id, entry.result_id);
  }
  std::sort(overdue_scratch_.begin(), overdue_scratch_.end());
  for (std::size_t i = 0; i < overdue_scratch_.size();) {
    const std::uint64_t wu_id = overdue_scratch_[i].first;
    Workunit* wu = workunit_of(wu_id);
    const bool active = wu != nullptr && wu->state == WorkunitState::kActive;
    bool reissue_needed = false;
    for (; i < overdue_scratch_.size() && overdue_scratch_[i].first == wu_id;
         ++i) {
      if (!active) continue;
      Result* result = find_result(overdue_scratch_[i].second);
      // Re-check at visit time: processing an earlier workunit can change
      // this result's state (e.g. its workunit was finished meanwhile).
      if (result == nullptr || result->state != ResultState::kInProgress) {
        continue;
      }
      time_out_result(*result);
      reissue_needed = true;
    }
    if (active && reissue_needed) reissue_after_timeouts(*wu);
  }
  try_dispatch();
}

void BoincServer::transition_full_sweep() {
  // The seed implementation, retained as the oracle for the deadline-heap
  // path (tests/test_sched_index.cpp runs twin scenarios under both and
  // requires identical outcomes): sweep every workunit, every result.
  for (Workunit& wu : workunits_) {
    if (wu.state != WorkunitState::kActive) continue;
    bool reissue_needed = false;
    for (Result& result : chain(wu)) {
      if (result.state == ResultState::kInProgress &&
          sim_.now() > result.deadline) {
        time_out_result(result);
        reissue_needed = true;
      }
    }
    if (reissue_needed) reissue_after_timeouts(wu);
  }
  try_dispatch();
}

int BoincServer::host_valid_streak(std::uint64_t host_id) const {
  if (host_id == 0 || host_id > hosts_.size()) return 0;
  return hosts_[host_id - 1].valid_streak;
}

bool BoincServer::host_trusted(std::uint64_t host_id) const {
  return host_valid_streak(host_id) >= config_.trust_threshold;
}

void BoincServer::validate(Workunit& wu) {
  // Majority vote over output fingerprints among successful results; the
  // workunit validates when some fingerprint reaches the quorum. (Quorum 1
  // means any single return is trusted, the paper project's setting.)
  votes_scratch_.clear();
  for (const Result& result : results_of(wu)) {
    if (result.state == ResultState::kSuccess) tally_vote(result.output_hash);
  }
  // The canonical output is the hash with the maximal count; ties go to
  // the smallest hash, so the choice does not depend on tally order.
  int best = 0;
  std::uint64_t canonical = 0;
  for (const auto& [hash, count] : votes_scratch_) {
    if (count > best || (count == best && hash < canonical)) {
      best = count;
      canonical = hash;
    }
  }

  // Adaptive replication: a lone quorum-1 result from an unproven host
  // needs one agreeing replica before it validates.
  int required = config_.min_quorum;
  if (config_.adaptive_replication && config_.min_quorum == 1) {
    bool any_trusted_success = false;
    for (const Result& result : results_of(wu)) {
      if (result.state == ResultState::kSuccess &&
          host_trusted(result.host_id)) {
        any_trusted_success = true;
        break;
      }
    }
    if (!any_trusted_success) required = 2;
  }

  if (best >= required) {
    finish_workunit(wu, "validated", canonical);
    return;
  }
  // Not decidable yet (too few returns, or a split vote). If nothing is in
  // flight, issue another instance — or give up at the result cap.
  if (outstanding(wu) == 0) {
    if (static_cast<int>(wu.result_count) < config_.max_total_results) {
      ++reissued_;
      obs_results_reissued_->inc();
      issue_result(wu);
      try_dispatch();
    } else {
      finish_workunit(wu, "result cap exhausted");
    }
  }
}

double BoincServer::host_credit(std::uint64_t host_id) const {
  if (host_id == 0 || host_id > hosts_.size()) return 0.0;
  return hosts_[host_id - 1].credit;
}

double BoincServer::total_credit() const {
  // Ascending host id; uncredited hosts add an exact 0, so the total is
  // the sum over the credited hosts alone.
  double total = 0.0;
  for (const VolunteerHost& host : hosts_) total += host.credit;
  return total;
}

std::vector<std::pair<std::uint64_t, double>>
BoincServer::credit_leaderboard(std::size_t top_n) const {
  std::vector<std::pair<std::uint64_t, double>> board;
  for (std::size_t key = 0; key < hosts_.size(); ++key) {
    if (hosts_[key].credited) board.emplace_back(key + 1, hosts_[key].credit);
  }
  // (credit desc, host id asc) is a strict total order, so the board does
  // not depend on the sort's stability.
  std::sort(board.begin(), board.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (board.size() > top_n) board.resize(top_n);
  return board;
}

void BoincServer::finish_workunit(Workunit& wu, const std::string& why,
                                  std::optional<std::uint64_t> canonical) {
  const bool success = canonical.has_value();
  wu.state = success ? WorkunitState::kValidated : WorkunitState::kError;
  (success ? obs_wu_validated_ : obs_wu_failed_)->inc();
  if (tracer().enabled()) {
    tracer().async_end("workunit", "boinc.wu", wu.id, sim_.now(),
                       {{"outcome", why}});
  }
  if (success) {
    // Grant credit to hosts whose result carried the canonical output
    // fingerprint (the validator's majority hash).
    if (*canonical != 0) ++corrupted_;
    for (const Result& result : results_of(wu)) {
      if (result.state != ResultState::kSuccess) continue;
      VolunteerHost& host = hosts_[host_key(result)];
      if (result.output_hash == *canonical) {
        // Cobblestone-ish: reference CPU-seconds of validated work.
        host.credit += wu.grid_job->true_reference_runtime / 100.0;
        host.credited = true;
        ++host.valid_streak;
      } else {
        // A disagreeing return breaks the host's trust streak.
        host.valid_streak = 0;
      }
    }
  }
  abort_outstanding(wu, "aborted");
  grid::GridJob& job = *wu.grid_job;
  live_workunits_[job.id] = nullptr;
  double cpu = 0.0;
  for (const Result& result : results_of(wu)) cpu += result.cpu_seconds;
  grid::JobOutcome outcome;
  outcome.cpu_seconds = cpu;
  outcome.reason = why;
  if (!success) {
    // Classify the failure for the grid level's retry policy: successful
    // returns that never reached quorum mean the replicas disagreed
    // (corruption); otherwise timeouts mean hosts vanished past their
    // deadlines; otherwise every instance errored outright.
    bool any_success = false;
    bool any_timeout = false;
    for (const Result& result : results_of(wu)) {
      if (result.state == ResultState::kSuccess) any_success = true;
      if (result.state == ResultState::kTimedOut) any_timeout = true;
    }
    outcome.cause = any_success ? grid::FailureCause::kCorrupted
                    : any_timeout ? grid::FailureCause::kDeadlineMiss
                                  : grid::FailureCause::kComputeError;
  }
  finish(job, outcome);
}

void BoincServer::abort_outstanding(Workunit& wu, std::string_view reason) {
  for (Result& result : chain(wu)) {
    if (result.state == ResultState::kInProgress) {
      observe_result_end(result, reason);
      abort_task(host_key(result), result.id);
      result.state = ResultState::kAborted;
    } else if (result.state == ResultState::kUnsent) {
      result.state = ResultState::kAborted;
    }
  }
}

void BoincServer::cancel(std::uint64_t job_id) {
  if (job_id >= live_workunits_.size() ||
      live_workunits_[job_id] == nullptr) {
    return;
  }
  Workunit& wu = *std::exchange(live_workunits_[job_id], nullptr);
  wu.state = WorkunitState::kCancelled;
  if (tracer().enabled()) {
    tracer().async_end("workunit", "boinc.wu", wu.id, sim_.now(),
                       {{"outcome", "cancelled"}});
  }
  abort_outstanding(wu, "cancelled");
  finish(*wu.grid_job, grid::JobOutcome{grid::FailureCause::kCancelled, 0.0,
                                        "cancelled"});
}

}  // namespace lattice::boinc
