// Desktop-grid scenario: a batch of phylogenetic jobs on a pure volunteer
// pool (the paper's BOINC side: 23,192 public desktop computers, churn,
// departures, checkpointing, deadlines, quorum validation). Shows the
// workunit lifecycle statistics a project operator watches.
//
// Flags: --metrics-out=FILE writes a metrics snapshot (.csv or .json),
//        --trace-out=FILE writes a Chrome trace_event JSON for Perfetto,
//        --pool-threads=N additionally runs the pooled-likelihood
//        determinism self-test on an N-thread pool (N=0: serial engine).
//        The self-test's log-likelihood and phylo.* counters must be
//        bit-identical for every N — scripts/determinism.sh asserts this
//        at the binary level (ctest test determinism_e2e).
//        --fault-plan=FILE instead runs the fault-injection recovery
//        scenario (docs/RESILIENCE.md): a small multi-resource grid under
//        the declarative fault plan, verified to recover end to end (all
//        jobs complete, zero corrupted canonical results under quorum).
//        --net-profile=FILE instead runs the transfer-aware scenario
//        (docs/NETWORKING.md): the volunteer pool stages workunit data
//        over per-host link classes from the INI profile, and the run
//        self-verifies the transfer contract — all jobs complete, every
//        dispatch staged real transfers (zero free staging), and
//        transfer-bound jobs were kept off volunteer hosts by the
//        staging-aware stability filter.
//        --portal-users=N instead runs the multi-tenant portal scenario
//        (DESIGN.md §15): a heavy-tailed workload from an N-user
//        guest/registered/power population flows through admission
//        control, per-user quotas, and fair-share queue ordering, and the
//        run self-verifies the admission ledger — every submission is
//        accounted (accepted + quota-denied + shed + rejected), every
//        accepted batch drains, and the fair-share odometer was charged.
// See docs/OBSERVABILITY.md for the metric catalog and trace schema.
#include <algorithm>
#include <charconv>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "boinc/server.hpp"
#include "core/cost_model.hpp"
#include "core/deadline.hpp"
#include "core/lattice.hpp"
#include "core/metascheduler.hpp"
#include "core/portal.hpp"
#include "core/speed.hpp"
#include "core/workload.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "core/inventory.hpp"
#include "grid/mds.hpp"
#include "net/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/simulate.hpp"
#include "sim/simulation.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

// The fault-injection recovery scenario: a stable cluster, a
// preemption-prone Condor pool, and a quorum-2 volunteer pool, all under
// the declarative plan from --fault-plan=FILE. The run self-verifies the
// recovery contract and exits nonzero when it is violated, so it doubles
// as the fault_smoke ctest; scripts/determinism.sh additionally asserts
// two identical invocations are bit-identical.
int run_fault_scenario(const std::string& plan_path,
                       const std::string& metrics_out,
                       const std::string& trace_out) {
  using namespace lattice;

  fault::FaultPlan plan;
  try {
    plan = fault::load_fault_plan(plan_path);
  } catch (const std::exception& error) {
    std::cerr << "fault plan: " << error.what() << "\n";
    return 2;
  }
  std::cout << "fault plan (" << plan_path << "):\n"
            << fault::fault_plan_summary(plan);

  core::LatticeConfig config;
  config.seed = plan.seed;
  config.max_attempts = 24;
  config.retry.backoff_base_seconds = 30.0;
  config.retry.backoff_cap_seconds = 1800.0;
  config.retry.backoff_jitter = 0.25;
  config.retry.demote_after_failures = 3;
  core::LatticeSystem system(config);

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  const bool observe = !metrics_out.empty() || !trace_out.empty();
  if (observe) {
    system.enable_observability(
        metrics, trace_out.empty() ? obs::Tracer::null() : tracer);
  }

  // Host-level faults rewrite the volunteer-pool config before the pool is
  // built; outage windows are armed on the running system below.
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 4;
  cluster.node_speed = 1.2;
  grid::CondorPool::Config condor;
  condor.machines = 16;
  condor.mean_idle_hours = 0.5;  // owners return often: preemption-prone
  condor.mean_busy_hours = 6.0;
  boinc::BoincPoolConfig volunteers;
  volunteers.hosts = 120;
  volunteers.mean_speed = 0.8;
  volunteers.speed_sigma = 0.6;
  volunteers.min_quorum = 2;  // cross-validation catches corruption
  volunteers.target_nresults = 2;
  volunteers.seed = 99;
  fault::apply_fault_plan(plan, volunteers);

  std::vector<core::ResourceSpec> specs;
  specs.push_back(core::ResourceSpec::cluster("stable-cluster", cluster));
  specs.push_back(core::ResourceSpec::condor("campus-condor", condor));
  specs.push_back(
      core::ResourceSpec::boinc_pool("lattice-boinc", volunteers));
  core::build_inventory(system, specs);
  system.calibrate_speeds();

  fault::FaultInjector injector(system, plan);
  if (observe) injector.set_observability(metrics);
  try {
    injector.arm();
  } catch (const std::exception& error) {
    std::cerr << "fault plan: " << error.what() << "\n";
    return 2;
  }

  constexpr std::size_t kJobs = 40;
  for (std::size_t i = 0; i < kJobs; ++i) {
    system.submit_job_with_runtime(core::GarliFeatures{}, 2.0 * 3600.0);
  }
  std::cout << util::format(
      "submitted {} jobs of 2.0 reference-hours across {} resources\n",
      kJobs, system.resource_names().size());

  system.run_until_drained(120.0 * 86400.0);

  const auto& m = system.metrics();
  auto* server =
      dynamic_cast<boinc::BoincServer*>(system.resource("lattice-boinc"));
  std::cout << util::format(
      "drained at {:.1f} days: {}/{} completed, {} abandoned, {} failed "
      "attempts\n",
      system.simulation().now() / 86400.0, m.completed, kJobs, m.abandoned,
      m.failed_attempts);
  std::cout << util::format(
      "volunteer pool: {} reissues, {} timeouts, {} corrupted canonical "
      "results; {} outage windows\n",
      server->reissued_results(), server->timed_out_results(),
      server->corrupted_validations(), injector.outages_begun());

  // The recovery contract this scenario exists to demonstrate.
  bool ok = true;
  if (m.completed != kJobs) {
    std::cerr << "FAIL: not every job recovered to completion\n";
    ok = false;
  }
  if (server->corrupted_validations() != 0) {
    std::cerr << "FAIL: a corrupted result became canonical under quorum\n";
    ok = false;
  }
  if (plan.active() && m.failed_attempts == 0) {
    std::cerr << "FAIL: active plan injected no failures to recover from\n";
    ok = false;
  }
  if (!plan.outages.empty() && injector.outages_begun() == 0) {
    std::cerr << "FAIL: planned outage windows never fired\n";
    ok = false;
  }

  if (!metrics_out.empty()) {
    if (!obs::write_metrics(metrics, metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << util::format(
        "metrics snapshot -> {} ({} retries scheduled, {} unstable->stable "
        "demotions)\n",
        metrics_out, metrics.counter_total("sched.retry_scheduled"),
        metrics.counter_total("sched.demote_unstable_stable"));
  }
  if (!trace_out.empty()) {
    if (!obs::write_trace(tracer, trace_out)) {
      std::cerr << "failed to write " << trace_out << "\n";
      return 1;
    }
    std::cout << util::format("chrome trace -> {} ({} events)\n", trace_out,
                              tracer.events());
  }
  std::cout << (ok ? "recovery contract holds\n"
                   : "recovery contract VIOLATED\n");
  return ok ? 0 : 1;
}

// The transfer-aware scenario: a small stable cluster plus a net-enabled
// volunteer pool whose hosts stage workunit data over the link classes in
// --net-profile=FILE. Two cohorts are submitted — ordinary jobs, and
// bulk-data jobs whose staging time alone exceeds the stability cutoff —
// and the run self-verifies the transfer contract, so it doubles as the
// slow_link_smoke ctest; scripts/determinism.sh additionally asserts two
// identical invocations are bit-identical.
int run_net_scenario(const std::string& profile_path,
                     const std::string& metrics_out,
                     const std::string& trace_out) {
  using namespace lattice;

  net::NetConfig profile;
  try {
    profile = net::load_net_profile(profile_path);
  } catch (const std::exception& error) {
    std::cerr << "net profile: " << error.what() << "\n";
    return 2;
  }
  std::cout << util::format("net profile ({}): {} link classes, uplink "
                            "{:.0f}/{:.0f} Mbps down/up\n",
                            profile_path, profile.classes.size(),
                            profile.server_down_mbps, profile.server_up_mbps);
  for (const net::LinkClassSpec& spec : profile.classes) {
    std::cout << util::format(
        "  class {}: {:.3f}/{:.3f} Mbps, {:.2f}s latency, fraction {:.2f}\n",
        spec.name, spec.down_mbps, spec.up_mbps, spec.latency_s,
        spec.fraction);
  }

  core::LatticeConfig config;
  config.seed = 20260808;
  config.max_attempts = 24;
  // The transfer-aware knobs under test: deadlines budget staging wall
  // time, and the stability filter charges staging against the cutoff.
  // The cutoff is widened so ordinary jobs stay volunteer-eligible on the
  // slow (availability-discounted) pool; bulk staging at 0.1 Mbps adds
  // ~56 h, which no cutoff survives.
  config.scheduler.stability_cutoff_hours = 48.0;
  config.deadline.typical_mbps = 0.5;
  config.scheduler.staging_mbps = 0.1;
  core::LatticeSystem system(config);

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  // Always observe: the contract below reads boinc.results_sent, and
  // observation never changes decisions or timing (tests/test_obs.cpp).
  system.enable_observability(
      metrics, trace_out.empty() ? obs::Tracer::null() : tracer);

  // Estimates drive both transfer-aware paths (deadline + stability), so
  // train the estimator up front from the cost model's synthetic corpus.
  {
    util::Rng corpus_rng(4242);
    system.estimator().train(
        core::generate_corpus(80, system.cost_model(), corpus_rng));
  }

  // Deliberately small and slow: once a handful of jobs back up on it,
  // the eta rank sends the rest to the (slower but wide) volunteer pool —
  // except the bulk cohort, which the staging-aware filter pins here.
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 1;
  cluster.cores_per_node = 2;
  cluster.node_speed = 0.6;
  boinc::BoincPoolConfig volunteers;
  volunteers.hosts = 150;
  volunteers.mean_speed = 0.8;
  volunteers.speed_sigma = 0.6;
  volunteers.seed = 99;
  volunteers.network = profile;

  std::vector<core::ResourceSpec> specs;
  specs.push_back(core::ResourceSpec::cluster("stable-cluster", cluster));
  specs.push_back(
      core::ResourceSpec::boinc_pool("lattice-boinc", volunteers));
  core::build_inventory(system, specs);
  system.calibrate_speeds();

  // Cohorts: ordinary jobs stage under a megabyte; bulk jobs carry a
  // supermatrix whose staging alone (2505 MB at the policy's 0.1 Mbps,
  // ~56 h) exceeds the 48 h stability cutoff, so the scheduler must keep
  // them on the stable cluster no matter how the volunteer pool ranks.
  constexpr std::size_t kNormalJobs = 24;
  constexpr std::size_t kBulkJobs = 4;
  const core::GarliFeatures features;  // ~0.45 reference-hours
  const core::GarliCostModel::DataSizes sizes =
      system.cost_model().data_sizes(features);
  std::vector<std::uint64_t> normal_ids;
  std::vector<std::uint64_t> bulk_ids;
  for (std::size_t i = 0; i < kNormalJobs; ++i) {
    normal_ids.push_back(system.submit_garli_job(
        features, {}, 0, core::JobData{sizes.input_mb, sizes.output_mb}));
  }
  for (std::size_t i = 0; i < kBulkJobs; ++i) {
    bulk_ids.push_back(system.submit_garli_job(
        features, {}, 0, core::JobData{2500.0, 5.0}));
  }
  std::cout << util::format(
      "submitted {} ordinary jobs ({:.1f} MB staged) and {} bulk jobs "
      "(2505.0 MB staged)\n",
      kNormalJobs, sizes.input_mb + sizes.output_mb, kBulkJobs);

  system.run_until_drained(120.0 * 86400.0);

  const auto& m = system.metrics();
  auto* server =
      dynamic_cast<boinc::BoincServer*>(system.resource("lattice-boinc"));
  const net::NetworkModel* network = server->network();
  const double results_sent = metrics.counter_total("boinc.results_sent");
  std::cout << util::format(
      "drained at {:.1f} days: {}/{} completed, {} failed attempts\n",
      system.simulation().now() / 86400.0, m.completed,
      kNormalJobs + kBulkJobs, m.failed_attempts);
  std::cout << util::format(
      "volunteer pool: {} results sent, {} transfers started / {} "
      "completed / {} cancelled, {:.1f} MB down, {:.1f} MB up\n",
      static_cast<std::uint64_t>(results_sent),
      network->transfers_started(), network->transfers_completed(),
      network->transfers_cancelled(),
      network->megabytes_moved(net::Direction::kDown),
      network->megabytes_moved(net::Direction::kUp));

  // The transfer contract this scenario exists to demonstrate.
  bool ok = true;
  if (m.completed != kNormalJobs + kBulkJobs) {
    std::cerr << "FAIL: not every job completed under the slow links\n";
    ok = false;
  }
  // Zero free staging: every volunteer dispatch must stage a real download
  // (uploads only follow successful computes, so started >= sent).
  if (results_sent <= 0.0 ||
      network->transfers_started() <
          static_cast<std::uint64_t>(results_sent)) {
    std::cerr << "FAIL: a volunteer dispatch skipped transfer staging\n";
    ok = false;
  }
  if (network->megabytes_moved(net::Direction::kDown) <= 0.0 ||
      network->megabytes_moved(net::Direction::kUp) <= 0.0) {
    std::cerr << "FAIL: no data moved through the link model\n";
    ok = false;
  }
  // Transfer-bound jobs stay off volunteer hosts: the staging-aware
  // stability filter must route every bulk job to the stable cluster.
  for (const std::uint64_t id : bulk_ids) {
    const grid::GridJob* job = system.job(id);
    if (job == nullptr || job->resource != "stable-cluster") {
      std::cerr << "FAIL: bulk job " << id
                << " was placed on volunteer hosts\n";
      ok = false;
    }
  }
  bool any_normal_on_volunteers = false;
  for (const std::uint64_t id : normal_ids) {
    const grid::GridJob* job = system.job(id);
    if (job != nullptr && job->resource == "lattice-boinc") {
      any_normal_on_volunteers = true;
    }
  }
  if (!any_normal_on_volunteers) {
    std::cerr << "FAIL: no ordinary job ran on the volunteer pool\n";
    ok = false;
  }
  // Transfer-aware deadlines: the policy must extend a bulk job's report
  // deadline beyond the data-free value.
  const double est = 0.45 * 3600.0;
  if (config.deadline.deadline_seconds(est, 2505.0) <=
      config.deadline.deadline_seconds(est, 0.0)) {
    std::cerr << "FAIL: deadline policy ignored the staged data\n";
    ok = false;
  }

  if (!metrics_out.empty()) {
    if (!obs::write_metrics(metrics, metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << util::format(
        "metrics snapshot -> {} ({:.0f} MB through net.bytes_down)\n",
        metrics_out, metrics.counter_total("net.bytes_down") / 1e6);
  }
  if (!trace_out.empty()) {
    if (!obs::write_trace(tracer, trace_out)) {
      std::cerr << "failed to write " << trace_out << "\n";
      return 1;
    }
    std::cout << util::format("chrome trace -> {} ({} events)\n", trace_out,
                              tracer.events());
  }
  std::cout << (ok ? "transfer contract holds\n"
                   : "transfer contract VIOLATED\n");
  return ok ? 0 : 1;
}

// The multi-tenant portal scenario: a heavy-tailed batch workload drawn
// from an N-user guest/registered/power population (core::UserPopulation)
// flows through the portal's admission control (per-user quotas, guest
// shedding) and the fair-share-ordered meta-scheduler queue. The run
// self-verifies the admission ledger and exits nonzero when it is
// violated; scripts/determinism.sh additionally asserts two identical
// invocations are bit-identical and that the portal.admit_* counters
// appear in the metrics snapshot.
int run_portal_scenario(std::size_t users, const std::string& metrics_out,
                        const std::string& trace_out) {
  using namespace lattice;

  core::LatticeConfig config;
  config.seed = 20260808;
  config.scheduler.mode = core::SchedulingMode::kEstimateAware;
  config.scheduler_period = 300.0;
  config.scheduler.fair_share_weight = 0.5;
  config.fair_share.order_queue = true;
  config.fair_share.backlog_per_slot = 2.0;
  core::LatticeSystem system(config);

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  // Always observe: the ledger contract below reads the portal.admit_*
  // counters, and observation never changes decisions or timing.
  system.enable_observability(
      metrics, trace_out.empty() ? obs::Tracer::null() : tracer);

  // Admission quotes and fair-share ordering both consume runtime
  // estimates, so train the estimator from the cost model's corpus.
  {
    util::Rng corpus_rng(4242);
    system.estimator().train(
        core::generate_corpus(80, system.cost_model(), corpus_rng));
  }

  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 16;
  cluster.cores_per_node = 4;
  cluster.node_speed = 1.0;
  std::vector<core::ResourceSpec> specs;
  specs.push_back(core::ResourceSpec::cluster("hpc-cluster", cluster));
  core::build_inventory(system, specs);
  system.calibrate_speeds();

  core::PortalConfig portal_config;
  portal_config.quota_guest = {2, 50};
  portal_config.quota_registered = {8, 400};
  portal_config.quota_power = {16, 2000};
  portal_config.shed_backlog_watermark = 2000;
  core::Portal portal(system, portal_config);
  portal.set_observability(metrics);

  // 90/9/1% population split with per-class heavy-tailed batch sizes;
  // per-user rates are set for ~600 batches/day in aggregate no matter
  // how large the population is, mirroring bench_portal_scale.
  core::UserPopulationConfig pop;
  pop.guests = {users * 90 / 100, 0.0, 1.2, 1};
  pop.registered = {users * 9 / 100, 0.0, 1.4, 2};
  pop.power = {users - pop.guests.users - pop.registered.users, 0.0, 1.8,
               8};
  pop.guests.batches_per_user_day =
      0.30 * 600.0 / static_cast<double>(pop.guests.users);
  pop.registered.batches_per_user_day =
      0.50 * 600.0 / static_cast<double>(pop.registered.users);
  pop.power.batches_per_user_day =
      0.20 * 600.0 / static_cast<double>(pop.power.users);
  pop.max_replicates = 30;
  pop.max_expected_hours = 8.0;
  core::UserPopulation population(pop);

  constexpr std::size_t kBatches = 80;
  util::Rng workload_rng(29);
  const auto trace =
      population.generate(kBatches, system.cost_model(), workload_rng);
  std::size_t trace_replicates = 0;
  for (const auto& entry : trace) trace_replicates += entry.replicates;
  std::cout << util::format(
      "portal population: {} users ({} guests / {} registered / {} "
      "power), {} batches over {:.1f} days, {} replicates total\n",
      population.total_users(), pop.guests.users, pop.registered.users,
      pop.power.users, trace.size(), trace.back().arrival_seconds / 86400.0,
      trace_replicates);

  core::submit_portal_workload(portal, trace);
  system.run(trace.back().arrival_seconds + 1.0);
  system.run_until_drained(400.0 * 86400.0);

  const double accepted = metrics.counter_total("portal.admit_accepted");
  const double rejected = metrics.counter_total("portal.admit_rejected");
  const double quota_denied =
      metrics.counter_total("portal.admit_quota_denied");
  const double shed = metrics.counter_total("portal.shed_guest");
  const double charges = metrics.counter_total("sched.fair_share_charges");
  std::size_t done_batches = 0;
  double total_turnaround_h = 0.0;
  for (const auto& [id, record] : portal.batches()) {
    if (record.done) {
      ++done_batches;
      total_turnaround_h += (record.finished - record.submitted) / 3600.0;
    }
  }
  std::cout << util::format(
      "admission ledger: {:.0f} accepted, {:.0f} quota-denied, {:.0f} "
      "guest-shed, {:.0f} rejected\n",
      accepted, quota_denied, shed, rejected);
  std::cout << util::format(
      "drained at {:.1f} days: {} batches done, {} grid jobs completed, "
      "{:.0f} fair-share charges, mean turnaround {:.2f} h\n",
      system.simulation().now() / 86400.0, done_batches,
      system.metrics().completed, charges,
      done_batches > 0
          ? total_turnaround_h / static_cast<double>(done_batches)
          : 0.0);

  // The admission-ledger contract this scenario exists to demonstrate.
  bool ok = true;
  if (accepted + rejected + quota_denied + shed !=
      static_cast<double>(trace.size())) {
    std::cerr << "FAIL: admission counters do not account for every "
                 "submission\n";
    ok = false;
  }
  if (accepted <= 0.0) {
    std::cerr << "FAIL: no submission was accepted\n";
    ok = false;
  }
  if (done_batches != static_cast<std::size_t>(accepted)) {
    std::cerr << "FAIL: an accepted batch never drained\n";
    ok = false;
  }
  if (charges <= 0.0) {
    std::cerr << "FAIL: the fair-share odometer was never charged\n";
    ok = false;
  }

  if (!metrics_out.empty()) {
    if (!obs::write_metrics(metrics, metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << util::format(
        "metrics snapshot -> {} ({} fair-share queue reorders)\n",
        metrics_out, metrics.counter_total("sched.fair_share_reorders"));
  }
  if (!trace_out.empty()) {
    if (!obs::write_trace(tracer, trace_out)) {
      std::cerr << "failed to write " << trace_out << "\n";
      return 1;
    }
    std::cout << util::format("chrome trace -> {} ({} events)\n", trace_out,
                              tracer.events());
  }
  std::cout << (ok ? "admission ledger holds\n"
                   : "admission ledger VIOLATED\n");
  return ok ? 0 : 1;
}

/// Parse a whole decimal flag value into `out`. False for anything else
/// ("abc", "4x", "", out of range), which main turns into the usage line.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, out);
  return error == std::errc{} && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lattice;

  std::string metrics_out;
  std::string trace_out;
  std::string fault_plan;
  std::string net_profile;
  std::size_t portal_users = 0;  // 0: portal scenario off
  int pool_threads = -1;  // -1: self-test off
  const auto usage = [] {
    std::cerr << "usage: volunteer_grid [--metrics-out=FILE] "
                 "[--trace-out=FILE] [--pool-threads=N] "
                 "[--fault-plan=FILE] [--net-profile=FILE] "
                 "[--portal-users=N]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg.rfind("--pool-threads=", 0) == 0) {
      if (!parse_number(arg.substr(15), pool_threads) || pool_threads < 0) {
        return usage();
      }
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      fault_plan = arg.substr(13);
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      fault_plan = argv[++i];
    } else if (arg.rfind("--net-profile=", 0) == 0) {
      net_profile = arg.substr(14);
    } else if (arg == "--net-profile" && i + 1 < argc) {
      net_profile = argv[++i];
    } else if (arg.rfind("--portal-users=", 0) == 0) {
      if (!parse_number(arg.substr(15), portal_users)) return usage();
    } else {
      return usage();
    }
  }

  if (!fault_plan.empty()) {
    return run_fault_scenario(fault_plan, metrics_out, trace_out);
  }
  if (!net_profile.empty()) {
    return run_net_scenario(net_profile, metrics_out, trace_out);
  }
  if (portal_users > 0) {
    return run_portal_scenario(portal_users, metrics_out, trace_out);
  }

  sim::Simulation sim;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::Tracer& bound_tracer =
      trace_out.empty() ? obs::Tracer::null() : tracer;
  const bool observe = !metrics_out.empty() || !trace_out.empty();
  if (observe) {
    sim.set_observability(&metrics,
                          trace_out.empty() ? nullptr : &tracer);
  }
  boinc::BoincPoolConfig config;
  config.hosts = 400;
  config.mean_speed = 0.8;      // volunteer PCs trail the reference cluster
  config.speed_sigma = 0.6;     // and vary widely
  config.mean_on_hours = 6.0;
  config.mean_off_hours = 18.0;
  config.mean_lifetime_days = 45.0;  // volunteers drift away for good
  config.host_error_probability = 0.02;
  config.min_quorum = 2;             // cross-validate results
  config.target_nresults = 2;
  config.seed = 99;
  boinc::BoincServer server(sim, "lattice-boinc", config);
  if (observe) server.set_observability(metrics, bound_tracer);

  std::size_t completed = 0;
  std::size_t failed = 0;
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome& outcome) {
        if (outcome.completed()) {
          ++completed;
        } else {
          ++failed;
        }
      });

  // Placement goes through the grid layer's matchmaking (MDS capability
  // index + meta-scheduler) rather than straight to the server, so the
  // determinism check covers the indexed scheduling path end to end. The
  // directory holds only the BOINC server, so every decision must land
  // there.
  grid::MdsDirectory mds(sim);
  mds.report(server.info());
  core::SpeedCalibrator speeds(3600.0);
  core::MetaScheduler scheduler(mds, speeds);
  if (observe) scheduler.set_observability(metrics);

  // 200 jobs of ~6 reference-hours each, with estimate-derived deadlines.
  core::DeadlinePolicy deadline_policy;
  std::vector<grid::GridJob> jobs(200);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i + 1;
    jobs[i].true_reference_runtime = 6.0 * 3600.0;
    jobs[i].estimated_reference_runtime = 6.3 * 3600.0;  // RF estimate
    const auto placement = scheduler.choose(jobs[i]);
    if (placement.value_or("") != "lattice-boinc") {
      std::cerr << "matchmaking did not place on lattice-boinc!\n";
      return 1;
    }
    server.set_delay_bound(
        jobs[i].id,
        deadline_policy.deadline_seconds(*jobs[i].estimated_reference_runtime));
    server.submit(jobs[i]);
  }
  std::cout << util::format(
      "matchmaking: {} placements via the capability index, all on "
      "lattice-boinc\n",
      jobs.size());

  std::cout << util::format("submitted {} workunits to {} volunteer hosts\n",
                            jobs.size(), config.hosts);
  std::cout << util::format(
      "deadline policy: {:.1f} days per result (slack {:.0f}x over a "
      "typical host)\n",
      deadline_policy.deadline_seconds(6.3 * 3600.0) / 86400.0,
      deadline_policy.slack);

  // Observe the pool weekly until the batch drains.
  for (int week = 1; week <= 12 && completed + failed < jobs.size();
       ++week) {
    sim.run(week * 7.0 * 86400.0);
    std::cout << util::format(
        "week {:2d}: {:3d} validated, {} online hosts, {} timeouts, "
        "{} reissues, {:.0f} wasted duplicate CPU-h\n",
        week, completed, server.online_hosts(), server.timed_out_results(),
        server.reissued_results(),
        server.wasted_duplicate_cpu_seconds() / 3600.0);
  }

  std::cout << util::format(
      "\nfinal: {}/{} validated ({} failed), total volunteer CPU: {:.0f} h\n",
      completed, jobs.size(), failed, server.total_cpu_seconds() / 3600.0);
  std::size_t results_issued = 0;
  for (const auto& [id, wu] : server.workunits()) {
    results_issued += wu.results.size();
  }
  std::cout << util::format(
      "workunits: {}, result instances issued: {} ({:.2f} per workunit "
      "with quorum {})\n",
      server.workunits().size(), results_issued,
      static_cast<double>(results_issued) /
          static_cast<double>(server.workunits().size()),
      config.min_quorum);

  // Pooled-likelihood determinism self-test: the same seeded dataset is
  // evaluated on a pool of the requested size, with a few incremental
  // branch-length perturbations to drive the dirty-partial path. Every
  // number printed here — and every phylo.* counter folded into the
  // metrics snapshot below — is independent of the pool size by
  // construction (DESIGN.md §7: tiles are disjoint, the reduction is
  // serial), which scripts/determinism.sh verifies end to end.
  if (pool_threads >= 0) {
    util::Rng rng(20260806);
    phylo::ModelSpec spec;
    spec.rate_het = phylo::RateHet::kGamma;
    spec.n_rate_categories = 4;
    const auto dataset = phylo::simulate_dataset(12, 240, spec, rng, 0.1);
    const phylo::PatternizedAlignment patterns(dataset.alignment);
    const phylo::SubstitutionModel model(spec);
    phylo::LikelihoodEngine engine(patterns);
    engine.enable_matrix_cache();
    if (observe) engine.set_observability(metrics, bound_tracer);
    util::ThreadPool pool(
        pool_threads > 0 ? static_cast<std::size_t>(pool_threads) : 1);
    if (pool_threads > 0) engine.set_thread_pool(&pool);

    phylo::Tree tree = dataset.tree;
    double sum = engine.log_likelihood(tree, model);
    for (int step = 0; step < 8; ++step) {
      const int node = static_cast<int>(
          (static_cast<std::size_t>(step) * 5) % tree.n_nodes());
      if (node != tree.root()) {
        tree.set_branch_length(
            node, std::clamp(tree.branch_length(node) * 1.1, 1e-8, 10.0));
      }
      sum += engine.log_likelihood(tree, model);
    }
    std::cout << util::format(
        "likelihood self-test: sum logL = {:.10f} ({} evaluations, {} "
        "partials recomputed)\n",
        sum, engine.evaluations(), engine.partials_recomputed());
  }

  if (!metrics_out.empty()) {
    if (!obs::write_metrics(metrics, metrics_out)) {
      std::cerr << "failed to write " << metrics_out << "\n";
      return 1;
    }
    std::cout << util::format(
        "metrics snapshot -> {} ({} deadline misses, {} results reissued)\n",
        metrics_out, metrics.counter_total("boinc.deadline_misses"),
        metrics.counter_total("boinc.results_reissued"));
  }
  if (!trace_out.empty()) {
    if (!obs::write_trace(tracer, trace_out)) {
      std::cerr << "failed to write " << trace_out << "\n";
      return 1;
    }
    std::cout << util::format(
        "chrome trace -> {} ({} events; open in Perfetto or "
        "chrome://tracing)\n",
        trace_out, tracer.events());
  }
  return 0;
}
