// The three grid workloads: volunteer_1m, recovery_500k and
// portal_1m_users. Each pass builds a LatticeSystem from the seed, issues
// the workload's portal submissions, drains the grid in one-simulated-hour
// slices, and reads the outcome back through public accessors.
//
// A traced pass additionally binds an obs::MetricsRegistry to the system
// (with the null tracer: per-job trace events would dominate memory at
// these sizes), records bench spans, and runs probes between slices. None
// of that may change a seed-determined output; the digest proves it.
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "boinc/server.hpp"
#include "core/estimator.hpp"
#include "core/inventory.hpp"
#include "core/lattice.hpp"
#include "core/metascheduler.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace lattice::bench {
namespace {

constexpr double kSliceSeconds = 3600.0;
constexpr double kHorizonSeconds = 400.0 * 86400.0;
/// choose() calls the scheduler probe times between two slices.
constexpr std::size_t kChooseProbesPerSlice = 16;
/// predict() calls the estimator probe times after set-up.
constexpr std::size_t kPredictProbes = 256;
/// The estimator: a 300-tree forest on a corpus of the paper's ~150 earlier
/// jobs, drawn as the repository's benches draw it.
constexpr std::size_t kTrees = 300;
constexpr std::size_t kCorpusSize = 150;
constexpr std::uint64_t kCorpusSeed = 4242;
/// The portal workload's demand: every batch's class, size, job and
/// arrival time.
constexpr std::uint64_t kDemandSeed = 41;

/// Everything that distinguishes one grid workload from another.
struct GridWorkload {
  core::LatticeConfig lattice;
  core::InventoryOptions inventory;
  core::PortalConfig portal;
  std::optional<fault::FaultPlan> plan;
  /// Submitted through Portal::submit before the clock starts.
  std::vector<core::SubmissionRequest> at_start;
  /// Open-loop arrivals, each fired as a sim event at its arrival time.
  std::vector<core::WorkloadEntry> arrivals;
};

/// Independent seeds for the separate random inputs of one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng();
}

core::SubmissionRequest investigator_batch(std::size_t index,
                                           std::size_t replicates,
                                           std::size_t taxa,
                                           std::size_t patterns,
                                           std::size_t genthresh) {
  core::SubmissionRequest request;
  request.user_email = util::format("investigator{}@umd.edu", index);
  request.user_id = core::user_id_from_email(request.user_email);
  request.user_class = core::UserClass::kRegistered;
  request.job.genthresh = genthresh;
  request.replicates = replicates;
  request.num_taxa = taxa;
  request.num_patterns = patterns;
  return request;
}

/// Owns one pass's system. Members are declared in dependency order so
/// destruction runs injector, portal, system, then the registry they
/// report into.
struct GridHarness {
  obs::MetricsRegistry registry;
  std::unique_ptr<core::LatticeSystem> system;
  std::unique_ptr<core::Portal> portal;
  std::unique_ptr<fault::FaultInjector> injector;
};

/// Mean of a histogram summed over the given labels ("" = unlabelled).
double histogram_mean(const obs::MetricsRegistry& registry,
                      std::string_view name,
                      const std::vector<std::string>& labels) {
  double sum = 0.0;
  double count = 0.0;
  for (const std::string& label : labels) {
    if (const obs::Histogram* h = registry.find_histogram(name, label)) {
      sum += h->sum();
      count += static_cast<double>(h->count());
    }
  }
  return count > 0.0 ? sum / count : 0.0;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// One pass of a grid workload. `make_inputs` generates the workload's
/// submissions (and fault plan) from the seed; it runs inside the timed
/// set-up, since a user of the simulator pays for it on every run.
PassResult run_grid(GridWorkload workload,
                    const std::function<void(GridWorkload&)>& make_inputs,
                    const PassConfig& config) {
  PassResult result;
  SpanLog* spans = config.spans;
  GridHarness h;
  std::vector<double> predict_us;

  const auto setup_start = Clock::now();
  std::optional<ScopedSpan> setup_span(std::in_place, spans, "setup");
  double inputs_s = 0.0;
  double inventory_s = 0.0;
  double calibrate_s = 0.0;
  double train_s = 0.0;
  {
    const auto start = Clock::now();
    ScopedSpan span(spans, "setup.inputs");
    make_inputs(workload);
    inputs_s = seconds_since(start);
  }
  {
    const auto start = Clock::now();
    ScopedSpan span(spans, "setup.inventory");
    h.system = std::make_unique<core::LatticeSystem>(workload.lattice);
    if (config.traced) {
      h.system->enable_observability(h.registry, obs::Tracer::null());
    }
    std::vector<core::ResourceSpec> specs =
        core::lattice_inventory(workload.inventory);
    if (workload.plan) {
      // Host-level faults rewrite the volunteer pool before it is built.
      for (core::ResourceSpec& spec : specs) {
        if (auto* pool = std::get_if<boinc::BoincPoolConfig>(&spec.config)) {
          fault::apply_fault_plan(*workload.plan, *pool);
        }
      }
    }
    core::build_inventory(*h.system, specs);
    if (workload.plan) {
      h.injector =
          std::make_unique<fault::FaultInjector>(*h.system, *workload.plan);
      if (config.traced) h.injector->set_observability(h.registry);
      h.injector->arm();
    }
    inventory_s = seconds_since(start);
  }
  {
    const auto start = Clock::now();
    ScopedSpan span(spans, "setup.calibrate");
    h.system->calibrate_speeds();
    calibrate_s = seconds_since(start);
  }
  {
    const auto start = Clock::now();
    ScopedSpan span(spans, "setup.train");
    core::RuntimeEstimator::Config estimator;
    estimator.forest.n_trees = kTrees;
    estimator.retrain_every = 0;  // a fixed model: no refits mid-drain
    h.system->estimator() = core::RuntimeEstimator(estimator);
    // The training corpus is the system's job history, fixed like the
    // inventory's shape: seeding it from the workload seed moved the one
    // estimate every job of a batch shares by up to 2x, which flipped
    // bundling, deadlines and volunteer routing between seeds.
    util::Rng rng(kCorpusSeed);
    h.system->estimator().train(core::generate_corpus(
        kCorpusSize, h.system->cost_model(), rng));
    train_s = seconds_since(start);
  }
  h.portal = std::make_unique<core::Portal>(*h.system, workload.portal);
  // The admission ledger is four counters; every pass binds them so the
  // ledger check runs untraced too.
  h.portal->set_observability(h.registry);
  setup_span.reset();
  const double setup_s = seconds_since(setup_start);
  if (config.setup_only) {
    result.end_to_end = {{"setup_s", setup_s, "s"}};
    return result;
  }

  if (config.traced) {
    // Estimator probe: predict() on the workload's own job features.
    ScopedSpan span(spans, "probe.predict");
    std::vector<core::GarliFeatures> features;
    for (const core::SubmissionRequest& request : workload.at_start) {
      features.push_back(core::features_from_job(
          request.job, request.num_taxa, request.num_patterns));
    }
    for (const core::WorkloadEntry& entry : workload.arrivals) {
      features.push_back(entry.features);
    }
    for (std::size_t i = 0; i < kPredictProbes && !features.empty(); ++i) {
      core::GarliFeatures f = features[i % features.size()];
      f.search_reps = 1;
      const auto start = Clock::now();
      const auto estimate = h.system->estimator().predict(f);
      predict_us.push_back(seconds_since(start) * 1e6);
      if (!estimate) result.problems.push_back("estimator untrained");
    }
  }

  core::LatticeSystem& system = *h.system;
  sim::Simulation& sim = system.simulation();
  std::vector<double> submit_us;
  std::uint64_t markers = 0;

  double submit_s = 0.0;
  double drain_s = 0.0;
  std::vector<double> slice_ms;
  std::vector<double> choose_us;
  {
    ScopedSpan phase_span(spans, "measure");
    {
      const auto start = Clock::now();
      ScopedSpan span(spans, "submit");
      for (const core::SubmissionRequest& request : workload.at_start) {
        ScopedSpan submit(spans, "portal.submit");
        const auto call_start = Clock::now();
        h.portal->submit(request);
        if (config.traced) {
          submit_us.push_back(seconds_since(call_start) * 1e6);
        }
      }
      if (!config.traced) {
        core::submit_portal_workload(*h.portal, workload.arrivals);
      } else {
        // Bracket each arrival with two bench events at its timestamp,
        // scheduled just before and just after its submit event: the
        // kernel's (when, seq) order puts exactly that submit between them.
        struct Bracket {
          Clock::time_point start;
          std::size_t span = 0;
        };
        auto bracket = std::make_shared<Bracket>();
        for (const core::WorkloadEntry& entry : workload.arrivals) {
          sim.at(entry.arrival_seconds, [bracket, spans] {
            bracket->span = spans->open("portal.submit");
            bracket->start = Clock::now();
          });
          core::submit_portal_workload(*h.portal, {entry});
          sim.at(entry.arrival_seconds, [bracket, spans, &submit_us] {
            submit_us.push_back(seconds_since(bracket->start) * 1e6);
            spans->close(bracket->span);
          });
          markers += 2;
        }
      }
      submit_s = seconds_since(start);
    }

    // The probe scheduler reads the live directory, speeds and fair-share
    // ledger but owns its round-robin cursor and counters, so its choices
    // never reach the run.
    std::optional<core::MetaScheduler> probe;
    std::vector<std::uint64_t> probe_jobs;
    if (config.traced) {
      probe.emplace(system.mds(), system.speeds(),
                    system.scheduler().policy());
      probe->set_fair_share(&system.fair_share());
    }
    std::size_t probe_cursor = 0;

    const double last_arrival = workload.arrivals.empty()
                                    ? 0.0
                                    : workload.arrivals.back().arrival_seconds;
    double until = 0.0;
    for (;;) {
      const core::LatticeMetrics& m = system.metrics();
      const bool drained =
          until >= last_arrival && m.completed + m.abandoned >= m.submitted;
      if (drained || until >= kHorizonSeconds || sim.empty()) break;
      until += kSliceSeconds;
      {
        ScopedSpan span(spans, "lattice.slice");
        const auto start = Clock::now();
        system.run(until);
        const double wall = seconds_since(start);
        drain_s += wall;
        slice_ms.push_back(wall * 1e3);
      }
      if (probe) {
        ScopedSpan span(spans, "probe.choose");
        if (probe_jobs.size() < system.metrics().submitted) {
          probe_jobs.clear();
          system.for_each_job([&probe_jobs](const grid::GridJob& job) {
            probe_jobs.push_back(job.id);
          });
        }
        for (std::size_t i = 0;
             i < kChooseProbesPerSlice && !probe_jobs.empty(); ++i) {
          const grid::GridJob* job =
              system.job(probe_jobs[probe_cursor++ % probe_jobs.size()]);
          const auto start = Clock::now();
          probe->choose(*job);
          choose_us.push_back(seconds_since(start) * 1e6);
        }
      }
    }
  }
  // Probes run between slices and stay outside the measured phase.
  const double phase_s = submit_s + drain_s;

  // ---- Outcome, read back through public accessors ----------------------
  const core::LatticeMetrics& m = system.metrics();
  const std::uint64_t events = sim.events_fired() - markers;
  std::vector<double> job_h;
  std::uint64_t completed_seen = 0;
  Digest digest;
  system.for_each_job([&](const grid::GridJob& job) {
    if (job.state != grid::JobState::kCompleted) return;
    ++completed_seen;
    const double turnaround = job.finish_time - job.submit_time;
    job_h.push_back(turnaround / 3600.0);
    digest.add(turnaround);
  });
  std::vector<double> batch_h;
  std::vector<double> eta_error;
  std::size_t unfinished_batches = 0;
  std::uint64_t batch_jobs = 0;
  for (const auto& [id, record] : h.portal->batches()) {
    batch_jobs += record.grid_jobs;
    if (!record.done) {
      ++unfinished_batches;
      continue;
    }
    const double actual = record.finished - record.submitted;
    batch_h.push_back(actual / 3600.0);
    digest.add(actual);
    if (record.eta_seconds && actual > 0.0) {
      eta_error.push_back(std::abs(*record.eta_seconds - actual) / actual);
    }
  }

  std::uint64_t corrupted = 0;
  double boinc_wasted = 0.0;
  for (const std::string& name : system.resource_names()) {
    if (auto* server =
            dynamic_cast<boinc::BoincServer*>(system.resource(name))) {
      corrupted += server->corrupted_validations();
      boinc_wasted += server->discarded_cpu_seconds() +
                      server->wasted_duplicate_cpu_seconds();
    }
  }
  const double wasted = m.wasted_cpu_seconds + boinc_wasted;
  const double useful_frac =
      ratio(m.useful_cpu_seconds, m.useful_cpu_seconds + wasted);

  const std::uint64_t accepted =
      h.registry.counter_total("portal.admit_accepted");
  const std::uint64_t rejected =
      h.registry.counter_total("portal.admit_rejected");
  const std::uint64_t denied =
      h.registry.counter_total("portal.admit_quota_denied");
  const std::uint64_t shed = h.registry.counter_total("portal.shed_guest");
  const std::uint64_t submissions =
      workload.at_start.size() + workload.arrivals.size();

  // ---- Correctness checks -------------------------------------------------
  auto& problems = result.problems;
  if (m.submitted != m.completed + m.abandoned) {
    problems.push_back(util::format(
        "job conservation: submitted {} != completed {} + abandoned {}",
        m.submitted, m.completed, m.abandoned));
  }
  if (completed_seen != m.completed || batch_jobs != m.submitted) {
    problems.push_back(util::format(
        "job records: {} completed jobs and {} batch members for {} "
        "completed of {} submitted",
        completed_seen, batch_jobs, m.completed, m.submitted));
  }
  if (accepted + rejected + denied + shed != submissions) {
    problems.push_back(util::format(
        "admission ledger: {} accepted + {} rejected + {} quota-denied + {} "
        "shed != {} submissions",
        accepted, rejected, denied, shed, submissions));
  }
  if (unfinished_batches != 0) {
    problems.push_back(
        util::format("{} accepted batches never finished", unfinished_batches));
  }
  if (workload.inventory.boinc_min_quorum >= 2 && corrupted != 0) {
    problems.push_back(util::format(
        "{} corrupted canonical results under quorum {}", corrupted,
        workload.inventory.boinc_min_quorum));
  }

  digest.add(m.completed);
  digest.add(m.abandoned);
  digest.add(m.failed_attempts);
  digest.add(events);
  digest.add(m.useful_cpu_seconds);
  digest.add(wasted);
  digest.add(corrupted);
  result.digest = digest.value();
  result.phase_s = phase_s;
  result.attempted = submissions + m.submitted;
  result.failed = rejected + denied + shed + m.abandoned;

  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"work_per_s", ratio(static_cast<double>(m.completed), phase_s), "1/s"},
      {"job_turnaround_p50_h", quantile(job_h, 0.50), "h"},
      {"job_turnaround_p99_h", quantile(job_h, 0.99), "h"},
      {"batch_turnaround_mean_h",
       ratio(std::accumulate(batch_h.begin(), batch_h.end(), 0.0),
             static_cast<double>(batch_h.size())),
       "h"},
      {"useful_cpu_frac", useful_frac, "ratio"},
      {"valid_result_frac",
       1.0 - ratio(static_cast<double>(corrupted),
                   static_cast<double>(m.completed)),
       "ratio"},
  };
  if (!config.traced) return result;

  // ---- Per-layer metrics (traced pass) ------------------------------------
  const obs::MetricsRegistry& r = h.registry;
  const auto total = [&r](std::string_view name) {
    return static_cast<double>(r.counter_total(name));
  };
  const std::vector<std::string>& labels = system.resource_names();
  double handler_us = 0.0;
  if (const obs::Histogram* handler = r.find_histogram("sim.handler_wall_us")) {
    handler_us = handler->sum();
  }
  const double decisions = total("sched.decisions");
  const double routed =
      total("sched.route_stable") + total("sched.route_unstable");
  const double started = total("grid.attempts_started");
  const double net_started = total("net.transfers_started");
  result.layers = {
      {"setup.inputs_s", inputs_s, "s"},
      {"setup.inventory_s", inventory_s, "s"},
      {"setup.calibrate_s", calibrate_s, "s"},
      {"setup.train_s", train_s, "s"},
      {"lattice.drain_s", drain_s, "s"},
      {"lattice.slice_ms_p50", quantile(slice_ms, 0.50), "ms"},
      {"lattice.slice_ms_p99", quantile(slice_ms, 0.99), "ms"},
      {"lattice.failed_attempts", static_cast<double>(m.failed_attempts),
       "count"},
      {"sim.events", static_cast<double>(events), "count"},
      {"sim.events_per_s", ratio(static_cast<double>(events), drain_s), "1/s"},
      {"sim.peak_pending", static_cast<double>(sim.peak_pending()), "count"},
      {"sim.handler_s", handler_us / 1e6, "s"},
      {"sim.kernel_self_s", drain_s - handler_us / 1e6, "s"},
      {"sched.decisions", decisions, "count"},
      {"sched.placement_yield",
       ratio(total("sched.fair_share_charges"), decisions), "ratio"},
      {"sched.candidates_per_decision",
       ratio(total("sched.match_candidates_scanned"), decisions), "count"},
      {"sched.choose_us_p50", quantile(choose_us, 0.50), "us"},
      {"sched.choose_us_p99", quantile(choose_us, 0.99), "us"},
      {"sched.route_unstable_frac",
       ratio(total("sched.route_unstable"), routed), "ratio"},
      {"sched.queue_wait_mean_s", histogram_mean(r, "sched.queue_wait_s", {""}),
       "s"},
      {"sched.predictor_abs_error_mean_s",
       histogram_mean(r, "sched.predictor_abs_error_s", {""}), "s"},
      {"sched.fair_share_reorders", total("sched.fair_share_reorders"),
       "count"},
      {"portal.submit_us_p50", quantile(submit_us, 0.50), "us"},
      {"portal.submit_us_p99", quantile(submit_us, 0.99), "us"},
      {"portal.admit_accepted", static_cast<double>(accepted), "count"},
      {"portal.admit_rejected", static_cast<double>(rejected), "count"},
      {"portal.admit_quota_denied", static_cast<double>(denied), "count"},
      {"portal.shed_guest", static_cast<double>(shed), "count"},
      {"portal.batch_turnaround_p50_h", quantile(batch_h, 0.50), "h"},
      {"portal.batch_turnaround_p99_h", quantile(batch_h, 0.99), "h"},
      {"portal.jobs_per_batch",
       ratio(static_cast<double>(batch_jobs), static_cast<double>(accepted)),
       "count"},
      {"estimator.predict_us_p50", quantile(predict_us, 0.50), "us"},
      {"estimator.eta_rel_error_p50", quantile(eta_error, 0.50), "ratio"},
      {"grid.attempts_started", started, "count"},
      {"grid.attempt_yield", ratio(total("grid.attempts_completed"), started),
       "ratio"},
      {"grid.preemptions", total("grid.preemptions"), "count"},
      {"grid.outage_kills", total("grid.outage_kills"), "count"},
      {"grid.queue_wait_mean_s", histogram_mean(r, "grid.queue_wait_s", labels),
       "s"},
      {"boinc.results_issued", total("boinc.results_issued"), "count"},
      {"boinc.result_yield",
       ratio(total("boinc.workunits_validated"), total("boinc.results_issued")),
       "ratio"},
      {"boinc.results_reissued", total("boinc.results_reissued"), "count"},
      {"boinc.results_timed_out", total("boinc.results_timed_out"), "count"},
      {"boinc.deadline_misses", total("boinc.deadline_misses"), "count"},
      {"boinc.queue_wait_mean_s",
       histogram_mean(r, "boinc.queue_wait_s", labels), "s"},
      {"boinc.corrupted_validations", static_cast<double>(corrupted), "count"},
      {"net.transfers_started", net_started, "count"},
      {"net.transfer_yield",
       ratio(total("net.transfers_completed"), net_started), "ratio"},
      {"net.mb_moved", (total("net.bytes_down") + total("net.bytes_up")) / 1e6,
       "MB"},
      {"net.transfer_wait_mean_s",
       histogram_mean(r, "net.transfer_wait_s", labels), "s"},
      {"fault.outages_begun", total("fault.outages_begun"), "count"},
      {"fault.reports_dropped", total("fault.reports_dropped"), "count"},
      {"fault.link_windows_begun", total("fault.link_windows_begun"), "count"},
      {"fault.uplink_outages_begun", total("fault.uplink_outages_begun"),
       "count"},
  };
  return result;
}

}  // namespace

PassResult run_volunteer_1m(const PassConfig& config) {
  GridWorkload w;
  w.lattice.seed = config.seed;
  w.inventory.boinc_hosts = 1000000;
  w.inventory.seed = config.seed;
  return run_grid(
      std::move(w),
      [](GridWorkload& w) {
        for (std::size_t i = 0; i < 150; ++i) {
          w.at_start.push_back(investigator_batch(i, 2000, 45, 300, 400));
        }
      },
      config);
}

PassResult run_recovery_500k(const PassConfig& config) {
  GridWorkload w;
  w.lattice.seed = config.seed;
  // The repository's recovery ladder: capped jittered backoff, demotion to
  // stable resources after repeated volunteer failures, a deeper retry cap.
  w.lattice.max_attempts = 24;
  w.lattice.retry.backoff_base_seconds = 30.0;
  w.lattice.retry.backoff_cap_seconds = 1800.0;
  w.lattice.retry.demote_after_failures = 3;
  w.inventory.boinc_hosts = 500000;
  w.inventory.seed = config.seed;
  w.inventory.boinc_min_quorum = 2;
  w.inventory.boinc_target_nresults = 2;
  w.inventory.boinc_network = net::NetConfig::volunteer_default();
  const std::string plan_path = config.fault_plan;
  const std::uint64_t seed = config.seed;
  return run_grid(
      std::move(w),
      [&plan_path, seed](GridWorkload& w) {
        w.plan = fault::load_fault_plan(plan_path);
        w.plan->seed = seed;
        for (std::size_t i = 0; i < 30; ++i) {
          w.at_start.push_back(investigator_batch(i, 2000, 100, 1000, 200));
        }
      },
      config);
}

PassResult run_portal_1m_users(const PassConfig& config) {
  GridWorkload w;
  w.lattice.seed = config.seed;
  w.lattice.scheduler_period = 300.0;
  w.lattice.scheduler.fair_share_weight = 0.5;
  w.lattice.fair_share.order_queue = true;
  w.lattice.fair_share.backlog_per_slot = 4.0;
  w.inventory.boinc_hosts = 5000;
  w.inventory.seed = config.seed;
  w.portal.quota_guest = {2, 100};
  w.portal.quota_registered = {10, 2000};
  w.portal.quota_power = {30, 10000};
  w.portal.shed_backlog_watermark = 50000;

  // 10^6 users split 90/9/1 guest/registered/power; the classes carry
  // 30/50/20% of ~600 batches per simulated day, so per-user rates shrink
  // as the population grows.
  constexpr std::size_t kUsers = 1000000;
  constexpr double kBatchesPerDay = 600.0;
  core::UserPopulationConfig pop;
  const std::size_t guests = kUsers * 90 / 100;
  const std::size_t registered = kUsers * 9 / 100;
  const std::size_t power = kUsers - guests - registered;
  pop.guests = {guests, 0.30 * kBatchesPerDay / static_cast<double>(guests),
                1.4, 1};
  pop.registered = {registered,
                    0.50 * kBatchesPerDay / static_cast<double>(registered),
                    1.3, 4};
  pop.power = {power, 0.20 * kBatchesPerDay / static_cast<double>(power), 1.8,
               50};
  pop.max_replicates = 2000;
  pop.max_expected_hours = 4.0;
  const std::uint64_t seed = derive_seed(config.seed, 2);
  return run_grid(
      std::move(w),
      [&pop, seed](GridWorkload& w) {
        // Demand and arrival times are one fixed draw from the population:
        // drawn per seed, the Pareto batch sizes carried 37k to 50k grid
        // jobs and the Poisson bursts moved the pump's backlog, so
        // throughput and tail turnaround swung 20-100% between seeds. The
        // seed draws which user of its class sends each batch (quotas and
        // fair-share act on that) and, through the system seeds, every
        // host, runtime and churn draw.
        const core::UserPopulation population(pop);
        util::Rng demand(kDemandSeed);
        w.arrivals = population.generate(
            1500, core::GarliCostModel(w.lattice.cost_params), demand);
        util::Rng rng(seed);
        for (core::WorkloadEntry& entry : w.arrivals) {
          core::UserId first = 1;
          std::size_t users = pop.guests.users;
          if (entry.user_class != core::UserClass::kGuest) {
            first += pop.guests.users;
            users = pop.registered.users;
          }
          if (entry.user_class == core::UserClass::kPower) {
            first += pop.registered.users;
            users = pop.power.users;
          }
          entry.user_id = first + rng.below(users);
        }
      },
      config);
}

}  // namespace lattice::bench
