#include "boinc/server.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

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

std::string_view result_state_name(ResultState state) {
  switch (state) {
    case ResultState::kUnsent: return "unsent";
    case ResultState::kInProgress: return "in_progress";
    case ResultState::kSuccess: return "success";
    case ResultState::kTimedOut: return "timed_out";
    case ResultState::kAborted: return "aborted";
    case ResultState::kError: return "error";
  }
  return "?";
}

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
  // Reserve exactly: hosts hold references into churn_state_, so the
  // array must never reallocate after this point.
  churn_state_.reserve(config_.hosts);
  hosts_.reserve(config_.hosts);
  ledger_.resize(config_.hosts);
  for (std::size_t h = 0; h < config_.hosts; ++h) {
    HostParams params;
    const double sigma = config_.speed_sigma;
    params.speed =
        config_.mean_speed * rng_.lognormal(-0.5 * sigma * sigma, sigma);
    // One class draw per host: flaky hosts take both the corruption and
    // the compute-error rate of their class (compute-error rates are 0
    // unless a fault plan sets them, so the baseline draw sequence holds).
    const bool flaky = rng_.bernoulli(config_.flaky_host_fraction);
    params.error_probability = flaky ? config_.flaky_error_probability
                                     : config_.host_error_probability;
    params.compute_error_probability =
        flaky ? config_.flaky_compute_error_probability
              : config_.host_compute_error_probability;
    // Host ids are assigned densely (h + 1), which is what makes
    // host_by_id a direct vector index and the churn record a direct
    // index by key (id - 1).
    churn_state_.push_back(ChurnState{rng_.split()});
    auto host = std::make_unique<VolunteerHost>(sim_, *this, h + 1, params,
                                                churn_state_.back());
    host->start(rng_.bernoulli(on_fraction));
    hosts_.push_back(std::move(host));
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

void BoincServer::cancel_transfer(std::uint64_t transfer_id) {
  if (network_ != nullptr) network_->cancel(transfer_id);
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
  // churn_fire touches exactly one churn record per flip; the prefetch
  // hook pulls upcoming records of the due batch into cache ahead of
  // the fire cursor (the batch order is (when, seq) — effectively random
  // in key space, so at 10⁵–10⁶ hosts every record is a DRAM miss
  // without it).
  calendar_.advance(
      sim_.now(),
      [this](std::uint32_t key, sim::SimTime when) { churn_fire(key, when); },
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

void BoincServer::info_into(grid::ResourceInfo& out) const {
  // Census read = cross-pool interaction: advance the host calendar to
  // the barrier so the incremental counts are exact at this instant.
  const_cast<BoincServer*>(this)->advance_pool();
  out.name = name();
  out.kind = grid::ResourceKind::kBoincPool;
  // Incremental census: both counts are maintained by host state-change
  // hooks (VolunteerHost::sync_census), not a scan of the host table.
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
  job.state = grid::JobState::kQueued;
  job.resource = name();
  job.queued_time = sim_.now();

  Workunit wu;
  wu.id = next_workunit_id_++;
  wu.grid_job = &job;
  wu.reference_work = job.true_reference_runtime;
  wu.input_mb = job.input_mb;
  wu.output_mb = job.output_mb;
  wu.created = sim_.now();
  wu.target_nresults = config_.target_nresults;
  wu.min_quorum = config_.min_quorum;
  wu.max_total_results = config_.max_total_results;
  wu.delay_bound = delay_bound;

  auto [it, inserted] = workunits_.emplace(wu.id, std::move(wu));
  assert(inserted);
  obs_wu_created_->inc();
  if (tracer().enabled()) {
    tracer().async_begin("workunit", "boinc.wu", it->second.id, sim_.now(),
                         {{"grid_job", std::to_string(job.id)}});
  }
  for (int i = 0; i < it->second.target_nresults; ++i) {
    issue_result(it->second);
  }
  try_dispatch();
}

void BoincServer::issue_result(Workunit& wu) {
  if (static_cast<int>(wu.results.size()) >= wu.max_total_results) return;
  Result result;
  result.id = next_result_id_++;
  result.workunit_id = wu.id;
  wu.results.push_back(result);
  results_index_.push_back(
      {&wu, static_cast<std::uint32_t>(wu.results.size() - 1)});
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
    // the host object is dereferenced only for an actual work request.
    if (st.online == 0 || st.departed != 0 || st.has_task != 0) continue;
    if (!request_work(*hosts_[key])) {
      // Every remaining unsent result is unsuitable for this host (the
      // one-result-per-host rule). With no backoff polls the host must
      // stay poke-able, and another idle host may still be eligible —
      // set it aside and keep trying the rest of the stack this round.
      dispatch_scratch_.push_back(key);
    }
  }
  for (const std::uint32_t key : dispatch_scratch_) {
    register_idle_key(key, churn_state_[key]);
  }
  dispatch_scratch_.clear();
}

bool BoincServer::request_work(VolunteerHost& host) {
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
    for (const Result& sibling : wu->results) {
      if (sibling.host_id == host.id() &&
          sibling.state != ResultState::kUnsent) {
        return FeederQueue::Probe::kSkip;
      }
    }
    result->state = ResultState::kInProgress;
    result->host_id = host.id();
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
                           {{"host", std::to_string(host.id())},
                            {"workunit", std::to_string(wu->id)}});
    }
    if (wu->grid_job != nullptr &&
        wu->grid_job->state == grid::JobState::kQueued) {
      wu->grid_job->state = grid::JobState::kRunning;
      wu->grid_job->start_time = sim_.now();
      wu->grid_job->attempts += 1;
    }
    // The per-result overhead and data staging are wall-clock on the host,
    // so they enter the work ledger scaled by host speed. With the transfer
    // model on, staging leaves the ledger entirely (zero free staging) and
    // becomes contended download/upload events around the compute phase.
    double staging = 0.0;
    if (network_ == nullptr && wu->grid_job != nullptr) {
      staging = (wu->grid_job->input_mb + wu->grid_job->output_mb) /
                config_.host_mb_per_second;
    }
    host.assign(result->id,
                wu->reference_work +
                    (config_.result_overhead_seconds + staging) *
                        host.speed(),
                wu->input_mb, wu->output_mb);
    return FeederQueue::Probe::kTake;
  });
}

Result* BoincServer::find_result(std::uint64_t result_id) {
  if (result_id == 0 || result_id > results_index_.size()) return nullptr;
  const ResultLoc& loc = results_index_[result_id - 1];
  return &loc.workunit->results[loc.index];
}

Workunit* BoincServer::workunit_of_result(std::uint64_t result_id) {
  if (result_id == 0 || result_id > results_index_.size()) return nullptr;
  return results_index_[result_id - 1].workunit;
}

Workunit* BoincServer::workunit_of(std::uint64_t workunit_id) {
  const auto it = workunits_.find(workunit_id);
  return it == workunits_.end() ? nullptr : &it->second;
}

VolunteerHost* BoincServer::host_by_id(std::uint64_t host_id) {
  // Ids are dense (assigned h + 1 at construction) and hosts are never
  // removed from the table, so lookup is a direct index.
  if (host_id == 0 || host_id > hosts_.size()) return nullptr;
  return hosts_[host_id - 1].get();
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
    if (wu->outstanding() == 0) {
      finish_workunit(*wu, false, "too many errors");
    }
  }
}

void BoincServer::notify_departure(std::uint64_t result_id) {
  // The host will never report; the transitioner handles the reissue when
  // the deadline passes (exactly the paper's motivation for accurate
  // deadlines — a departed host otherwise stalls the batch).
  Result* result = find_result(result_id);
  if (result != nullptr) {
    util::log_debug("boinc", "host departed holding result {}", result_id);
  }
}

void BoincServer::time_out_result(Workunit& wu, Result& result) {
  (void)wu;
  observe_result_end(result, "timeout");
  result.state = ResultState::kTimedOut;
  ++timeouts_;
  obs_results_timed_out_->inc();
  obs_deadline_misses_->inc();
  // Tell the holder (if it still exists) to drop the task. This can
  // synchronously hand the freed host a new unsent result.
  VolunteerHost* host = host_by_id(result.host_id);
  if (host != nullptr) host->abort_task(result.id);
}

void BoincServer::reissue_after_timeouts(Workunit& wu) {
  if (wu.outstanding() >= wu.min_quorum) return;
  ++reissued_;
  obs_results_reissued_->inc();
  issue_result(wu);
  if (static_cast<int>(wu.results.size()) >= wu.max_total_results &&
      wu.outstanding() == 0) {
    finish_workunit(wu, false, "result cap exhausted");
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
      time_out_result(*wu, *result);
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
  for (auto& [id, wu] : workunits_) {
    if (wu.state != WorkunitState::kActive) continue;
    bool reissue_needed = false;
    for (Result& result : wu.results) {
      if (result.state == ResultState::kInProgress &&
          sim_.now() > result.deadline) {
        time_out_result(wu, result);
        reissue_needed = true;
      }
    }
    if (reissue_needed) reissue_after_timeouts(wu);
  }
  try_dispatch();
}

int BoincServer::host_valid_streak(std::uint64_t host_id) const {
  if (host_id == 0 || host_id > ledger_.size()) return 0;
  return ledger_[host_id - 1].valid_streak;
}

bool BoincServer::host_trusted(std::uint64_t host_id) const {
  return host_valid_streak(host_id) >= config_.trust_threshold;
}

void BoincServer::validate(Workunit& wu) {
  // Majority vote over output fingerprints among successful results; the
  // workunit validates when some fingerprint reaches the quorum. (Quorum 1
  // means any single return is trusted, the paper project's setting.)
  votes_scratch_.clear();
  for (const Result& result : wu.results) {
    if (result.state == ResultState::kSuccess) tally_vote(result.output_hash);
  }
  int best = 0;
  for (const auto& [hash, count] : votes_scratch_) {
    best = std::max(best, count);
  }

  // Adaptive replication: a lone quorum-1 result from an unproven host
  // needs one agreeing replica before it validates.
  int required = wu.min_quorum;
  if (config_.adaptive_replication && wu.min_quorum == 1) {
    bool any_trusted_success = false;
    for (const Result& result : wu.results) {
      if (result.state == ResultState::kSuccess &&
          host_trusted(result.host_id)) {
        any_trusted_success = true;
        break;
      }
    }
    if (!any_trusted_success) required = 2;
  }

  if (best >= required) {
    finish_workunit(wu, true, "validated");
    return;
  }
  // Not decidable yet (too few returns, or a split vote). If nothing is in
  // flight, issue another instance — or give up at the result cap.
  if (wu.outstanding() == 0) {
    if (static_cast<int>(wu.results.size()) < wu.max_total_results) {
      ++reissued_;
      obs_results_reissued_->inc();
      issue_result(wu);
      try_dispatch();
    } else {
      finish_workunit(wu, false, "result cap exhausted");
    }
  }
}

double BoincServer::host_credit(std::uint64_t host_id) const {
  if (host_id == 0 || host_id > ledger_.size()) return 0.0;
  return ledger_[host_id - 1].credit;
}

double BoincServer::total_credit() const {
  // Ascending host id; uncredited hosts add an exact 0, so the total is
  // the sum over the credited hosts alone.
  double total = 0.0;
  for (const HostLedger& host : ledger_) total += host.credit;
  return total;
}

std::vector<std::pair<std::uint64_t, double>>
BoincServer::credit_leaderboard(std::size_t top_n) const {
  std::vector<std::pair<std::uint64_t, double>> board;
  for (std::size_t key = 0; key < ledger_.size(); ++key) {
    if (ledger_[key].credited) board.emplace_back(key + 1, ledger_[key].credit);
  }
  // (credit desc, host id asc) is a strict total order, so the board does
  // not depend on the sort's stability.
  std::sort(board.begin(), board.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (board.size() > top_n) board.resize(top_n);
  return board;
}

void BoincServer::finish_workunit(Workunit& wu, bool success,
                                  const std::string& why) {
  wu.state = success ? WorkunitState::kValidated : WorkunitState::kError;
  wu.validated_time = sim_.now();
  (success ? obs_wu_validated_ : obs_wu_failed_)->inc();
  if (tracer().enabled()) {
    tracer().async_end("workunit", "boinc.wu", wu.id, sim_.now(),
                       {{"outcome", why}});
  }
  if (success) {
    // Grant credit to hosts whose result carried the canonical output
    // fingerprint (the validator's majority hash).
    votes_scratch_.clear();
    for (const Result& result : wu.results) {
      if (result.state == ResultState::kSuccess) {
        tally_vote(result.output_hash);
      }
    }
    // Smallest hash with the maximal count, matching the ascending-key
    // iteration of the std::map tally this flat scratch replaced.
    std::uint64_t canonical = 0;
    int best = 0;
    for (const auto& [hash, count] : votes_scratch_) {
      if (count > best || (count == best && best > 0 && hash < canonical)) {
        best = count;
        canonical = hash;
      }
    }
    if (canonical != 0) ++corrupted_;
    for (const Result& result : wu.results) {
      if (result.state != ResultState::kSuccess) continue;
      HostLedger& host = ledger_[result.host_id - 1];
      if (result.output_hash == canonical) {
        // Cobblestone-ish: reference CPU-seconds of validated work.
        host.credit += wu.reference_work / 100.0;
        host.credited = true;
        ++host.valid_streak;
      } else {
        // A disagreeing return breaks the host's trust streak.
        host.valid_streak = 0;
      }
    }
  }
  abort_outstanding(wu, "aborted");
  if (wu.grid_job == nullptr) return;
  grid::GridJob& job = *wu.grid_job;
  double cpu = 0.0;
  for (const Result& result : wu.results) cpu += result.cpu_seconds;
  grid::JobOutcome outcome;
  outcome.cpu_seconds = cpu;
  outcome.reason = why;
  if (success) {
    outcome.cause = grid::FailureCause::kNone;
    job.state = grid::JobState::kCompleted;
    job.finish_time = sim_.now();
  } else {
    // Classify the failure for the grid level's retry policy: successful
    // returns that never reached quorum mean the replicas disagreed
    // (corruption); otherwise timeouts mean hosts vanished past their
    // deadlines; otherwise every instance errored outright.
    bool any_success = false;
    bool any_timeout = false;
    for (const Result& result : wu.results) {
      if (result.state == ResultState::kSuccess) any_success = true;
      if (result.state == ResultState::kTimedOut) any_timeout = true;
    }
    outcome.cause = any_success ? grid::FailureCause::kCorrupted
                    : any_timeout ? grid::FailureCause::kDeadlineMiss
                                  : grid::FailureCause::kComputeError;
    job.state = grid::JobState::kFailed;
    job.wasted_cpu_seconds += cpu;
  }
  notify(job, outcome);
}

void BoincServer::abort_outstanding(Workunit& wu, std::string_view reason) {
  for (Result& result : wu.results) {
    if (result.state == ResultState::kInProgress) {
      observe_result_end(result, reason);
      VolunteerHost* host = host_by_id(result.host_id);
      if (host != nullptr) host->abort_task(result.id);
      result.state = ResultState::kAborted;
    } else if (result.state == ResultState::kUnsent) {
      result.state = ResultState::kAborted;
    }
  }
}

void BoincServer::cancel(std::uint64_t job_id) {
  for (auto& [id, wu] : workunits_) {
    if (wu.grid_job == nullptr || wu.grid_job->id != job_id) continue;
    if (wu.state != WorkunitState::kActive) return;
    grid::GridJob& job = *wu.grid_job;
    wu.state = WorkunitState::kCancelled;
    if (tracer().enabled()) {
      tracer().async_end("workunit", "boinc.wu", wu.id, sim_.now(),
                         {{"outcome", "cancelled"}});
    }
    abort_outstanding(wu, "cancelled");
    job.state = grid::JobState::kCancelled;
    notify(job, grid::JobOutcome{grid::FailureCause::kCancelled, 0.0,
                                 "cancelled"});
    return;
  }
}

}  // namespace lattice::boinc
