// Tests for lattice::fault: plan parsing, deterministic churn injection,
// corruption vs quorum validation, retry backoff bounds, unstable->stable
// demotion, and portal-visible graceful degradation under a total outage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "boinc/server.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ini.hpp"

namespace lattice::fault {
namespace {

// ---------------------------------------------------------------------------
// Plan parsing

TEST(FaultPlan, InertByDefaultAndParsesEverySection) {
  EXPECT_FALSE(FaultPlan{}.active());

  const std::string text = R"(
[plan]
seed = 42

[churn]
on_scale = 0.5
off_scale = 2.0
lifetime_scale = 0.25
weibull_shape = 0.7

[hosts]
flaky_fraction = 0.2
compute_error_probability = 0.01
corruption_probability = 0.02
flaky_compute_error_probability = 0.1
flaky_corruption_probability = 0.3

[report_path]
drop_probability = 0.05
delay_probability = 0.1
delay_seconds = 900

[outage.umd-deepthought]
start = 3600
duration = 7200
period = 86400
heartbeat_only = true
)";
  const FaultPlan plan = fault_plan_from_ini(util::IniFile::parse(text));
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.churn.on_scale, 0.5);
  EXPECT_DOUBLE_EQ(plan.churn.weibull_shape, 0.7);
  EXPECT_DOUBLE_EQ(plan.flaky_host_fraction, 0.2);
  EXPECT_DOUBLE_EQ(plan.normal_hosts.compute_error_probability, 0.01);
  EXPECT_DOUBLE_EQ(plan.flaky_hosts.corruption_probability, 0.3);
  EXPECT_DOUBLE_EQ(plan.report_path.drop_probability, 0.05);
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].resource, "umd-deepthought");
  EXPECT_DOUBLE_EQ(plan.outages[0].start, 3600.0);
  EXPECT_TRUE(plan.outages[0].heartbeat_only);

  // Applying the plan rewrites a pool config; an inactive plan does not.
  boinc::BoincPoolConfig pool;
  const boinc::BoincPoolConfig before = pool;
  apply_fault_plan(FaultPlan{}, pool);
  EXPECT_DOUBLE_EQ(pool.mean_on_hours, before.mean_on_hours);
  EXPECT_DOUBLE_EQ(pool.host_error_probability,
                   before.host_error_probability);
  apply_fault_plan(plan, pool);
  EXPECT_DOUBLE_EQ(pool.mean_on_hours, before.mean_on_hours * 0.5);
  EXPECT_DOUBLE_EQ(pool.churn_weibull_shape, 0.7);
  EXPECT_DOUBLE_EQ(pool.flaky_host_fraction, 0.2);
  EXPECT_DOUBLE_EQ(pool.host_error_probability, 0.02);
  EXPECT_DOUBLE_EQ(pool.flaky_error_probability, 0.3);
  EXPECT_DOUBLE_EQ(pool.report_drop_probability, 0.05);
}

TEST(FaultPlan, RejectsMalformedOutages) {
  EXPECT_THROW(fault_plan_from_ini(
                   util::IniFile::parse("[outage.x]\nstart = 10\n")),
               std::runtime_error);
  EXPECT_THROW(
      fault_plan_from_ini(util::IniFile::parse(
          "[outage.x]\nstart = 10\nduration = 100\nperiod = 50\n")),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Seeded churn determinism

struct RunStats {
  std::uint64_t completed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t failed_attempts = 0;
  double wasted_cpu = 0.0;
  double useful_cpu = 0.0;
  double turnaround = 0.0;
  double drained_at = 0.0;
  std::uint64_t reissued = 0;
  std::uint64_t timeouts = 0;
};

RunStats run_volunteer_scenario(const FaultPlan& plan, std::size_t jobs) {
  core::LatticeConfig config;
  config.seed = 7;
  config.retry.backoff_base_seconds = 15.0;
  core::LatticeSystem system(config);
  boinc::BoincPoolConfig pool;
  pool.hosts = 60;
  pool.mean_speed = 0.9;
  pool.speed_sigma = 0.4;
  pool.seed = 5;
  apply_fault_plan(plan, pool);
  auto& server = system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();
  FaultInjector injector(system, plan);
  injector.arm();
  for (std::size_t i = 0; i < jobs; ++i) {
    system.submit_job_with_runtime(core::GarliFeatures{}, 3600.0);
  }
  system.run_until_drained(60.0 * 86400.0);
  const auto& m = system.metrics();
  return RunStats{m.completed,
                  m.abandoned,
                  m.failed_attempts,
                  m.wasted_cpu_seconds,
                  m.useful_cpu_seconds,
                  m.total_turnaround_seconds,
                  system.simulation().now(),
                  server.reissued_results(),
                  server.timed_out_results()};
}

TEST(FaultInjection, SeededChurnIsBitDeterministic) {
  FaultPlan plan;
  plan.churn.on_scale = 0.4;
  plan.churn.off_scale = 0.8;
  plan.churn.weibull_shape = 0.7;
  plan.seed = 11;

  const RunStats a = run_volunteer_scenario(plan, 12);
  const RunStats b = run_volunteer_scenario(plan, 12);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  EXPECT_EQ(a.wasted_cpu, b.wasted_cpu);       // bit-identical, not near
  EXPECT_EQ(a.useful_cpu, b.useful_cpu);
  EXPECT_EQ(a.turnaround, b.turnaround);
  EXPECT_EQ(a.drained_at, b.drained_at);
  EXPECT_EQ(a.reissued, b.reissued);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.completed, 12u);  // accelerated churn still drains
}

TEST(FaultInjection, InactivePlanMatchesBaselineBitForBit) {
  const RunStats baseline = run_volunteer_scenario(FaultPlan{}, 12);
  FaultPlan inert;
  inert.seed = 999;  // plan-level seed alone must not perturb the stream
  const RunStats with_plan = run_volunteer_scenario(inert, 12);
  EXPECT_EQ(baseline.completed, with_plan.completed);
  EXPECT_EQ(baseline.failed_attempts, with_plan.failed_attempts);
  EXPECT_EQ(baseline.wasted_cpu, with_plan.wasted_cpu);
  EXPECT_EQ(baseline.useful_cpu, with_plan.useful_cpu);
  EXPECT_EQ(baseline.turnaround, with_plan.turnaround);
  EXPECT_EQ(baseline.drained_at, with_plan.drained_at);
}

// ---------------------------------------------------------------------------
// Corruption vs quorum

TEST(FaultInjection, QuorumStopsInjectedCorruption) {
  core::LatticeConfig config;
  config.seed = 3;
  core::LatticeSystem system(config);
  boinc::BoincPoolConfig pool;
  pool.hosts = 80;
  pool.min_quorum = 2;  // the recovery mechanism under test
  pool.target_nresults = 2;
  pool.seed = 17;
  FaultPlan plan;
  plan.flaky_host_fraction = 0.4;
  plan.normal_hosts.corruption_probability = 0.02;
  plan.flaky_hosts.corruption_probability = 0.5;
  apply_fault_plan(plan, pool);
  auto& server = system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();

  constexpr std::size_t kJobs = 15;
  for (std::size_t i = 0; i < kJobs; ++i) {
    system.submit_job_with_runtime(core::GarliFeatures{}, 3600.0);
  }
  system.run_until_drained(90.0 * 86400.0);

  // Corrupted returns carry per-result fingerprints, so they can never
  // agree with each other: validation reissues until two clean results
  // match, and no corrupted output ever becomes canonical.
  EXPECT_EQ(system.metrics().completed, kJobs);
  EXPECT_EQ(server.corrupted_validations(), 0u);
  EXPECT_GT(server.reissued_results(), 0u);  // corruption did fire
}

// ---------------------------------------------------------------------------
// Retry backoff bounds

TEST(RetryBackoff, GrowsDoublesAndCaps) {
  core::RetryPolicy policy;
  policy.backoff_base_seconds = 10.0;
  policy.backoff_cap_seconds = 100.0;
  EXPECT_DOUBLE_EQ(core::retry_backoff_seconds(policy, 1, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(core::retry_backoff_seconds(policy, 2, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(core::retry_backoff_seconds(policy, 3, 0.5), 40.0);
  EXPECT_DOUBLE_EQ(core::retry_backoff_seconds(policy, 4, 0.5), 80.0);
  EXPECT_DOUBLE_EQ(core::retry_backoff_seconds(policy, 5, 0.5), 100.0);
  EXPECT_DOUBLE_EQ(core::retry_backoff_seconds(policy, 50, 0.5), 100.0);
}

TEST(RetryBackoff, JitterStaysInsideTheBand) {
  core::RetryPolicy policy;
  policy.backoff_base_seconds = 60.0;
  policy.backoff_cap_seconds = 3600.0;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double mid = core::retry_backoff_seconds(policy, attempt, 0.5);
    for (const double draw : {0.0, 0.25, 0.5, 0.75, 0.999}) {
      const double delay =
          core::retry_backoff_seconds(policy, attempt, draw);
      EXPECT_GE(delay, mid * 0.75);
      EXPECT_LE(delay, mid * 1.25);
    }
  }
  // Monotone in the attempt count for a fixed draw.
  double previous = 0.0;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    const double delay = core::retry_backoff_seconds(policy, attempt, 0.25);
    EXPECT_GE(delay, previous);
    previous = delay;
  }
}

// ---------------------------------------------------------------------------
// Unstable -> stable demotion

TEST(FaultInjection, RepeatedPreemptionDemotesToStableResources) {
  core::LatticeConfig config;
  config.seed = 21;
  config.retry.backoff_base_seconds = 10.0;
  config.retry.demote_after_failures = 2;
  core::LatticeSystem system(config);
  obs::MetricsRegistry metrics;
  system.enable_observability(metrics, obs::Tracer::null());

  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 2;
  cluster.node_speed = 0.8;
  system.add_cluster("steady", cluster);
  grid::CondorPool::Config condor;
  condor.machines = 24;
  condor.mean_speed = 2.5;       // fast enough to be ranked first...
  condor.mean_idle_hours = 0.2;  // ...but owners return almost at once
  condor.mean_busy_hours = 12.0;
  system.add_condor_pool("flaky", condor);
  system.calibrate_speeds();

  constexpr std::size_t kJobs = 10;
  for (std::size_t i = 0; i < kJobs; ++i) {
    system.submit_job_with_runtime(core::GarliFeatures{}, 2.0 * 3600.0);
  }
  system.run_until_drained(60.0 * 86400.0);

  EXPECT_EQ(system.metrics().completed, kJobs);
  EXPECT_GT(metrics.counter_total("sched.demote_unstable_stable"), 0u);
  EXPECT_GT(metrics.counter_total("sched.retry_scheduled"), 0u);
  std::size_t demoted = 0;
  system.for_each_job([&](const grid::GridJob& job) {
    if (job.require_stable) ++demoted;
  });
  EXPECT_GT(demoted, 0u);
}

// ---------------------------------------------------------------------------
// Total outage: portal-visible graceful degradation, then recovery

TEST(FaultInjection, PortalDegradesDuringTotalOutageThenRecovers) {
  core::LatticeConfig config;
  config.seed = 13;
  core::LatticeSystem system(config);
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 8;
  cluster.cores_per_node = 4;
  system.add_cluster("only-cluster", cluster);
  system.calibrate_speeds();

  FaultPlan plan;
  plan.outages.push_back(
      ResourceOutage{"only-cluster", 0.0, 6.0 * 3600.0, 0.0, false});
  FaultInjector injector(system, plan);
  injector.arm();

  core::Portal portal(system);
  core::SubmissionRequest request;
  request.user_id = core::user_id_from_email("researcher@example.org");
  request.user_class = core::UserClass::kRegistered;
  request.user_email = "researcher@example.org";
  request.replicates = 6;
  request.num_taxa = 60;
  request.num_patterns = 300;
  const auto accepted = portal.submit(request);
  ASSERT_TRUE(accepted.accepted);
  ASSERT_GT(accepted.grid_jobs, 0u);

  // Mid-outage: the whole grid is dark, so every member job is held
  // pending at the portal rather than failed — degraded, not lost.
  system.run(3.0 * 3600.0);
  const auto mid = portal.progress(accepted.batch_id);
  EXPECT_EQ(mid.completed_jobs, 0u);
  EXPECT_EQ(mid.failed_jobs, 0u);
  EXPECT_EQ(mid.pending_jobs, accepted.grid_jobs);
  EXPECT_TRUE(mid.degraded);
  EXPECT_EQ(injector.outages_begun(), 1u);

  // After the window closes the resource re-announces itself and the held
  // jobs drain normally.
  system.run_until_drained(30.0 * 86400.0);
  const auto after = portal.progress(accepted.batch_id);
  EXPECT_EQ(after.completed_jobs, accepted.grid_jobs);
  EXPECT_EQ(after.pending_jobs, 0u);
  EXPECT_FALSE(after.degraded);
  EXPECT_EQ(system.metrics().completed, accepted.grid_jobs);
}

// Unknown resources in a plan are a configuration error, caught at arm().
TEST(FaultInjection, ArmRejectsUnknownResources) {
  core::LatticeSystem system;
  FaultPlan plan;
  plan.outages.push_back(ResourceOutage{"no-such-grid", 10.0, 60.0});
  FaultInjector injector(system, plan);
  EXPECT_THROW(injector.arm(), std::runtime_error);
}

}  // namespace
}  // namespace lattice::fault
