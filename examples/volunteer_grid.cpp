// Scenario runner for the simulated Lattice grid. One INI file describes a
// federated inventory (clusters, Condor pools, BOINC volunteer pools), the
// jobs and portal traffic it serves, and the faults and slow links it runs
// under. The runner builds it on core::LatticeSystem, drains it, and exits
// 1 unless the run-end audit (core::audit), the checks its inputs imply and
// its [expect] section all hold. scenarios/*.ini is the corpus: one ctest
// per file, and scripts/determinism.sh runs each twice.
//
// Usage: volunteer_grid --scenario=FILE [--metrics-out=FILE]
//                       [--trace-out=FILE]
// writes a metrics snapshot (.csv or .json) and a Chrome trace for Perfetto
// (docs/OBSERVABILITY.md). Any other flag prints the usage line and exits 2.
//
// Scenario schema; every key is optional unless noted. An unknown section
// or key, a bad kind or an unparsable value exits 2 naming file and line.
//   [lattice]  core::LatticeConfig: seed, max_attempts, scheduler_period,
//              stability_cutoff_hours, staging_mbps, typical_mbps,
//              backoff_base_seconds, backoff_cap_seconds,
//              demote_after_failures, fair_share_weight, fair_share_order,
//              backlog_per_slot; and train_corpus, the synthetic corpus
//              the estimator is first trained on (0: left untrained).
//   [resource.<name>]  a core::ResourceSpec of the required kind:
//              kind = cluster: nodes, cores_per_node, node_speed
//              kind = condor:  machines (a preemption-prone campus pool)
//              kind = boinc:   hosts, min_quorum (= target_nresults)
//   [jobs.<cohort>]  count jobs of the default GARLI features, staging
//              data_mb input MB (default: the cost model's), with a fixed
//              true runtime of runtime_hours (default: sampled).
//   [portal]   users (90/9/1% guest/registered/power), batches (drawn at
//              ~600 a day), <class>_batches and <class>_replicates quotas
//              per class, shed_watermark (core::PortalConfig, 0: no limit).
//   [expect]   stable = <cohort>: every job of it ran on a stable resource;
//              volunteer = <cohort>: some job of it ran on a BOINC pool.
//   The fault-plan sections (fault::fault_plan_from_ini, docs/RESILIENCE.md)
//   apply to every BOINC pool, and [net] with its [class.<name>] sections
//   (net::net_profile_from_ini, docs/NETWORKING.md) is their link profile.
// Values every scenario shares stay constants here: volunteer and Condor
// host behaviour, the pool seed, the population shape, the drain horizon.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "boinc/server.hpp"
#include "core/audit.hpp"
#include "core/inventory.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fmt.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace {

using namespace lattice;

struct Cohort {
  std::string name;
  std::size_t count = 0;
  std::optional<double> data_mb;
  std::optional<double> runtime_hours;
};

struct PortalSpec {
  std::size_t users = 0;
  std::size_t batches = 0;
  core::PortalConfig config;
};

struct Scenario {
  core::LatticeConfig config;
  std::size_t train_corpus = 0;
  fault::FaultPlan plan;
  bool net = false;
  std::vector<core::ResourceSpec> resources;
  std::vector<Cohort> cohorts;
  std::optional<PortalSpec> portal;
  std::string expect_stable;  // cohort names; empty: no such check
  std::string expect_volunteer;
};

std::size_t count(const util::IniFile& ini, const std::string& section,
                  const std::string& key, std::size_t fallback) {
  const long long value =
      ini.get_int(section, key, static_cast<long long>(fallback));
  if (value < 0) ini.fail(section, key, "must be >= 0");
  return static_cast<std::size_t>(value);
}

/// Parse and validate a scenario file; throws std::runtime_error naming
/// the file and line of the first problem.
Scenario load_scenario(const std::string& path) {
  const util::IniFile ini = util::IniFile::load(path);
  Scenario s;
  core::LatticeConfig& c = s.config;
  c.seed = count(ini, "lattice", "seed", c.seed);
  c.max_attempts = static_cast<int>(
      count(ini, "lattice", "max_attempts", c.max_attempts));
  c.retry.demote_after_failures = static_cast<int>(count(
      ini, "lattice", "demote_after_failures", c.retry.demote_after_failures));
  const auto real = [&ini](const char* key, double& field) {
    field = ini.get_double("lattice", key, field);
  };
  real("scheduler_period", c.scheduler_period);
  real("stability_cutoff_hours", c.scheduler.stability_cutoff_hours);
  real("staging_mbps", c.scheduler.staging_mbps);
  real("typical_mbps", c.deadline.typical_mbps);
  real("backoff_base_seconds", c.retry.backoff_base_seconds);
  real("backoff_cap_seconds", c.retry.backoff_cap_seconds);
  real("fair_share_weight", c.scheduler.fair_share_weight);
  real("backlog_per_slot", c.fair_share.backlog_per_slot);
  c.fair_share.order_queue = ini.get_bool("lattice", "fair_share_order",
                                          c.fair_share.order_queue);
  s.train_corpus = count(ini, "lattice", "train_corpus", 0);

  s.plan = fault::fault_plan_from_ini(ini);
  net::NetConfig profile;
  if (ini.has_section("net")) {
    profile = net::net_profile_from_ini(ini);
    s.net = profile.enabled;
  }

  for (const std::string& section : ini.section_names()) {
    if (section.rfind("resource.", 0) == 0) {
      const std::string name = section.substr(9);
      const std::string kind = ini.get_or(section, "kind", "");
      if (kind == "cluster") {
        grid::BatchQueueResource::Config cluster;
        cluster.nodes = count(ini, section, "nodes", cluster.nodes);
        cluster.cores_per_node =
            count(ini, section, "cores_per_node", cluster.cores_per_node);
        cluster.node_speed =
            ini.get_double(section, "node_speed", cluster.node_speed);
        s.resources.push_back(core::ResourceSpec::cluster(name, cluster));
      } else if (kind == "condor") {
        grid::CondorPool::Config condor;
        condor.machines = count(ini, section, "machines", condor.machines);
        condor.mean_idle_hours = 0.5;  // owners return often
        condor.mean_busy_hours = 6.0;
        s.resources.push_back(core::ResourceSpec::condor(name, condor));
      } else if (kind == "boinc") {
        boinc::BoincPoolConfig pool;
        pool.hosts = count(ini, section, "hosts", pool.hosts);
        pool.min_quorum =
            static_cast<int>(count(ini, section, "min_quorum", 1));
        if (pool.min_quorum < 1) {
          ini.fail(section, "min_quorum", "must be >= 1");
        }
        pool.target_nresults = pool.min_quorum;
        pool.mean_speed = 0.8;  // volunteer PCs trail the reference cluster
        pool.speed_sigma = 0.6;  // and vary widely
        pool.seed = 99;
        pool.network = profile;
        fault::apply_fault_plan(s.plan, pool);
        s.resources.push_back(core::ResourceSpec::boinc_pool(name, pool));
      } else {
        ini.fail(section, "kind", "must be cluster, condor or boinc");
      }
    } else if (section.rfind("jobs.", 0) == 0) {
      Cohort& cohort = s.cohorts.emplace_back();
      cohort.name = section.substr(5);
      cohort.count = count(ini, section, "count", 0);
      if (ini.has_key(section, "data_mb")) {
        cohort.data_mb = ini.get_double(section, "data_mb", 0.0);
      }
      if (ini.has_key(section, "runtime_hours")) {
        cohort.runtime_hours = ini.get_double(section, "runtime_hours", 0.0);
      }
    }
  }

  if (ini.has_section("portal")) {
    PortalSpec portal;
    portal.users = count(ini, "portal", "users", 0);
    portal.batches = count(ini, "portal", "batches", 0);
    if (portal.users == 0 || portal.batches == 0) {
      ini.fail("portal", "users", "a portal needs users > 0 and batches > 0");
    }
    const auto quota = [&ini](const std::string& user_class) {
      return core::UserQuota{
          count(ini, "portal", user_class + "_batches", 0),
          count(ini, "portal", user_class + "_replicates", 0)};
    };
    portal.config.quota_guest = quota("guest");
    portal.config.quota_registered = quota("registered");
    portal.config.quota_power = quota("power");
    portal.config.shed_backlog_watermark =
        count(ini, "portal", "shed_watermark", 0);
    s.portal = portal;
  }

  for (auto [key, cohort] : {std::pair{"stable", &s.expect_stable},
                             std::pair{"volunteer", &s.expect_volunteer}}) {
    *cohort = ini.get_or("expect", key, "");
    const bool known = std::any_of(
        s.cohorts.begin(), s.cohorts.end(),
        [&](const Cohort& candidate) { return candidate.name == *cohort; });
    if (!cohort->empty() && !known) {
      ini.fail("expect", key, "names no [jobs.<cohort>] section");
    }
  }
  ini.check_all_read();
  return s;
}

/// The portal's traffic: a 90/9/1% guest/registered/power population with
/// per-class heavy-tailed batch sizes and ~600 batches a day in aggregate
/// (30/50/20% by class), however large the population.
std::vector<core::WorkloadEntry> portal_traffic(const PortalSpec& spec,
                                                const core::GarliCostModel&
                                                    model) {
  core::UserPopulationConfig pop;
  pop.guests = {spec.users * 90 / 100, 0.0, 1.2, 1};
  pop.registered = {spec.users * 9 / 100, 0.0, 1.4, 2};
  pop.power = {spec.users - pop.guests.users - pop.registered.users, 0.0,
               1.8, 8};
  for (auto [mix, share] : {std::pair{&pop.guests, 0.30},
                            std::pair{&pop.registered, 0.50},
                            std::pair{&pop.power, 0.20}}) {
    if (mix->users > 0) {
      mix->batches_per_user_day =
          share * 600.0 / static_cast<double>(mix->users);
    }
  }
  pop.max_replicates = 30;
  pop.max_expected_hours = 8.0;
  util::Rng rng(29);
  return core::UserPopulation(pop).generate(spec.batches, model, rng);
}

struct Options {
  std::string scenario;
  std::string metrics_out;
  std::string trace_out;
};

int run(const Scenario& s, const Options& options) {
  core::LatticeSystem system(s.config);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::Tracer& bound_tracer =
      options.trace_out.empty() ? obs::Tracer::null() : tracer;
  // Always observed: the audit reads counters, and observation never
  // changes a decision or an event time (tests/test_obs.cpp).
  system.enable_observability(metrics, bound_tracer);
  if (s.train_corpus > 0) {
    util::Rng corpus_rng(4242);
    system.estimator().train(core::generate_corpus(
        s.train_corpus, system.cost_model(), corpus_rng));
  }
  core::build_inventory(system, s.resources);
  system.calibrate_speeds();

  if (s.plan.active()) std::cout << fault::fault_plan_summary(s.plan);
  fault::FaultInjector injector(system, s.plan);
  if (s.plan.active()) injector.set_observability(metrics);
  try {
    injector.arm();
  } catch (const std::exception& error) {
    std::cerr << options.scenario << ": " << error.what() << "\n";
    return 2;
  }

  std::unique_ptr<core::Portal> portal;
  std::vector<core::WorkloadEntry> traffic;
  if (s.portal) {
    portal = std::make_unique<core::Portal>(system, s.portal->config);
    portal->set_observability(metrics);
    traffic = portal_traffic(*s.portal, system.cost_model());
    core::submit_portal_workload(*portal, traffic);
  }
  const core::GarliFeatures features;  // ~0.45 reference-hours
  const auto sizes = system.cost_model().data_sizes(features);
  std::vector<std::vector<std::uint64_t>> cohort_ids;
  for (const Cohort& cohort : s.cohorts) {
    const core::JobData data{cohort.data_mb.value_or(sizes.input_mb),
                             sizes.output_mb};
    std::vector<std::uint64_t>& ids = cohort_ids.emplace_back();
    for (std::size_t i = 0; i < cohort.count; ++i) {
      ids.push_back(cohort.runtime_hours
                        ? system.submit_job_with_runtime(
                              features, *cohort.runtime_hours * 3600.0, {},
                              0, data)
                        : system.submit_garli_job(features, {}, 0, data));
    }
  }

  // Portal arrivals are future events; fire them all before draining.
  if (!traffic.empty()) system.run(traffic.back().arrival_seconds + 1.0);
  system.run_until_drained(400.0 * 86400.0);

  const core::LatticeMetrics& m = system.metrics();
  std::cout << util::format(
      "drained at {:.1f} days: {}/{} jobs completed, {} abandoned, {} "
      "failed attempts on {} resources\n",
      system.simulation().now() / 86400.0, m.completed, m.submitted,
      m.abandoned, m.failed_attempts, system.resource_names().size());
  for (const std::string& name : system.resource_names()) {
    const auto* pool =
        dynamic_cast<boinc::BoincServer*>(system.resource(name));
    if (pool == nullptr) continue;
    std::cout << util::format(
        "pool {}: {} reissues, {} timeouts, {} corrupted canonical results",
        name, pool->reissued_results(), pool->timed_out_results(),
        pool->corrupted_validations());
    if (const net::NetworkModel* network = pool->network()) {
      std::cout << util::format("; {} transfers, {:.1f} MB down, {:.1f} MB up",
                                network->transfers_started(),
                                network->megabytes_moved(net::Direction::kDown),
                                network->megabytes_moved(net::Direction::kUp));
    }
    std::cout << "\n";
  }
  const std::uint64_t accepted = metrics.counter_total("portal.admit_accepted");
  if (portal != nullptr) {
    std::cout << util::format(
        "portal: {} users, {} submissions: {} accepted, {} quota-denied, "
        "{} guest-shed, {} rejected\n",
        s.portal->users, traffic.size(), accepted,
        metrics.counter_total("portal.admit_quota_denied"),
        metrics.counter_total("portal.shed_guest"),
        metrics.counter_total("portal.admit_rejected"));
  }

  // The shared audit, then what this scenario's own inputs promise.
  std::vector<std::string> failures =
      core::audit(system, metrics, portal.get(), traffic.size());
  const auto require = [&failures](bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  };
  require(m.completed == m.submitted, "not every submitted job completed");
  require(!s.plan.active() || m.failed_attempts > 0,
          "the active fault plan injected no failures to recover from");
  for (auto [counter, planned] :
       {std::pair{"fault.outages_begun", s.plan.outages.size()},
        std::pair{"fault.link_windows_begun", s.plan.link_faults.size()},
        std::pair{"fault.uplink_outages_begun",
                  s.plan.uplink_outages.size()}}) {
    require(metrics.counter_total(counter) >= planned,
            util::format("{} planned windows but {} = {}", planned, counter,
                         metrics.counter_total(counter)));
  }
  // Silent corruption is only caught by cross-validation: keep the audit's
  // quorum >= 2 check from going vacuous on a pool the plan corrupts.
  const bool corrupts = s.plan.normal_hosts.corruption_probability > 0.0 ||
                        s.plan.flaky_hosts.corruption_probability > 0.0;
  for (const core::ResourceSpec& spec : s.resources) {
    const auto* pool = std::get_if<boinc::BoincPoolConfig>(&spec.config);
    require(!corrupts || pool == nullptr || pool->min_quorum >= 2,
            util::format("the fault plan corrupts results on {} but its "
                         "quorum cannot catch them",
                         spec.name));
  }
  std::vector<std::string> layers = {"sched.match_candidates_scanned",
                                     "sched.match_eligible"};
  if (s.plan.active()) layers.push_back("fault.outages_begun");
  if (s.net) layers.insert(layers.end(), {"net.bytes_down", "net.bytes_up"});
  if (portal != nullptr) layers.push_back("portal.admit_quota_denied");
  const std::string snapshot = metrics.snapshot_csv();
  for (const std::string& name : layers) {
    require(snapshot.find(name) != std::string::npos,
            util::format("metric {} missing from the snapshot", name));
  }
  require(portal == nullptr || accepted > 0, "the portal accepted nothing");
  for (std::size_t i = 0; i < s.cohorts.size(); ++i) {
    bool all_stable = true;
    bool any_volunteer = false;
    for (const std::uint64_t id : cohort_ids[i]) {
      const grid::LocalResource* where = system.job(id)->resource;
      if (where == nullptr) {
        all_stable = false;
        continue;
      }
      const grid::ResourceInfo info = where->info();
      all_stable = all_stable && info.stable;
      any_volunteer = any_volunteer ||
                      info.kind == grid::ResourceKind::kBoincPool;
    }
    const std::string& name = s.cohorts[i].name;
    require(name != s.expect_stable || all_stable,
            util::format("expect: a {} job ran off the stable resources",
                         name));
    require(name != s.expect_volunteer || any_volunteer,
            util::format("expect: no {} job ran on a volunteer pool", name));
  }

  require(options.metrics_out.empty() ||
              obs::write_metrics(metrics, options.metrics_out),
          "cannot write " + options.metrics_out);
  require(options.trace_out.empty() ||
              obs::write_trace(tracer, options.trace_out),
          "cannot write " + options.trace_out);
  for (const std::string& failure : failures) {
    std::cerr << "FAIL: " << failure << "\n";
  }
  std::cout << (failures.empty() ? "audit holds\n" : "audit VIOLATED\n");
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const auto usage = [] {
    std::cerr << "usage: volunteer_grid --scenario=FILE [--metrics-out=FILE] "
                 "[--trace-out=FILE]\n";
    return 2;
  };
  const std::pair<std::string_view, std::string*> flags[] = {
      {"--scenario", &options.scenario},
      {"--metrics-out", &options.metrics_out},
      {"--trace-out", &options.trace_out}};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const auto* flag = std::find_if(
        std::begin(flags), std::end(flags), [&](const auto& candidate) {
          return candidate.first == arg.substr(0, eq);
        });
    if (flag == std::end(flags) || eq == std::string_view::npos ||
        eq + 1 == arg.size()) {
      return usage();
    }
    *flag->second = arg.substr(eq + 1);
  }
  if (options.scenario.empty()) return usage();

  Scenario scenario;
  try {
    scenario = load_scenario(options.scenario);
  } catch (const std::exception& error) {
    std::cerr << "volunteer_grid: " << error.what() << "\n";
    return 2;
  }
  std::cout << "scenario " << options.scenario << "\n";
  return run(scenario, options);
}
