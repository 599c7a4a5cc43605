// The grid-level pump's run queue: LatticeSystem queues pending jobs as
// runs of consecutive same-class ids and decides a deferred run once. These
// tests hold it to the per-job reference pass (tests/pump_reference.hpp) —
// same dispatch order, same resources, same decision count — on workloads
// that split, merge and reorder runs, and check that cancelling a queued
// job splits its run with the ledgers left exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/cost_model.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pump_reference.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace lattice::core {
namespace {

using Runs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// Everything a pump decides, as seen from outside: every job's placement
/// and timeline, the full trace (attempt starts in each resource's FIFO
/// order) and the metrics snapshot minus its one wall-clock histogram.
struct Outcome {
  std::vector<std::string> jobs;
  std::string trace;
  std::string metrics;
  std::uint64_t decisions = 0;
};

Outcome outcome_of(const LatticeSystem& system,
                   const obs::MetricsRegistry& metrics,
                   const obs::Tracer& tracer) {
  Outcome out;
  system.for_each_job([&out](const grid::GridJob& job) {
    out.jobs.push_back(util::format(
        "job {} {} on '{}' attempts {} stable {} queued {} start {} end {}",
        job.id, grid::job_state_name(job.state), grid::resource_name(job),
        job.attempts,
        job.require_stable, job.queued_time, job.start_time,
        job.finish_time));
  });
  out.trace = tracer.to_json();
  std::istringstream json(metrics.snapshot_json());
  for (std::string line; std::getline(json, line);) {
    if (line.find("handler_wall_us") == std::string::npos) {
      out.metrics += line + '\n';
    }
  }
  out.decisions = metrics.counter_total("sched.decisions");
  return out;
}

void expect_same(const Outcome& run_pump, const Outcome& reference) {
  ASSERT_EQ(run_pump.jobs.size(), reference.jobs.size());
  for (std::size_t i = 0; i < run_pump.jobs.size(); ++i) {
    ASSERT_EQ(run_pump.jobs[i], reference.jobs[i]);
  }
  EXPECT_EQ(run_pump.decisions, reference.decisions);
  EXPECT_TRUE(run_pump.trace == reference.trace);
  EXPECT_EQ(run_pump.metrics, reference.metrics);
}

void train(LatticeSystem& system) {
  RuntimeEstimator::Config est;
  est.forest.n_trees = 30;
  est.retrain_every = 0;
  system.estimator() = RuntimeEstimator(est);
  util::Rng rng(3);
  system.estimator().train(generate_corpus(120, system.cost_model(), rng));
}

// Mixed portal workload: six users submit 48 batches over two days, short
// replicates arrive bundled (with a remainder bundle) and long ones as
// runs of identical jobs. A churning desktop pool preempts attempts, so
// failed jobs back off and re-enter one by one, and a first unstable
// failure demotes a job to stable resources (a new decision class). The
// clusters' backlog cap keeps most work deferred at the grid level, where
// fair-share order sorts it every pass.
LatticeConfig mixed_config(SchedulingMode mode) {
  LatticeConfig config;
  config.scheduler.mode = mode;
  config.scheduler.fair_share_weight = 0.5;
  config.scheduler_period = 60.0;
  config.fair_share.order_queue = true;
  config.fair_share.backlog_per_slot = 1.0;
  config.retry.backoff_base_seconds = 300.0;
  config.retry.demote_after_failures = 1;
  config.seed = 11;
  return config;
}

struct MixedRun {
  LatticeSystem system;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  std::unique_ptr<Portal> portal;
  std::vector<SubmitReceipt> receipts;

  MixedRun(SchedulingMode mode, bool reference)
      : system(mixed_config(mode)) {
    if (reference) PumpReference::install(system);
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 2;
    cluster.cores_per_node = 2;
    system.add_cluster("hpc", cluster);
    cluster.nodes = 1;
    cluster.node_speed = 0.7;
    system.add_cluster("old", cluster);
    grid::CondorPool::Config pool;
    pool.machines = 12;
    pool.mean_idle_hours = 1.5;
    pool.mean_busy_hours = 0.5;
    system.add_condor_pool("desktops", pool);
    system.enable_observability(metrics, tracer);
    system.calibrate_speeds();
    train(system);
    // Replicates the forest prices under 20 minutes are bundled toward an
    // hour; the small alignment below is, the large one is not.
    PortalConfig portal_config;
    portal_config.bundle_threshold_seconds = 1200.0;
    portal = std::make_unique<Portal>(system, portal_config);
    portal->set_observability(metrics);

    util::Rng rng(5);
    for (int i = 0; i < 48; ++i) {
      SubmissionRequest request;
      request.user_id = static_cast<UserId>(rng.uniform_int(1, 6));
      request.user_class = UserClass::kPower;
      request.user_email = util::format("user{}@lattice.example",
                                        request.user_id);
      const bool short_replicates = rng.bernoulli(0.3);
      request.num_taxa = short_replicates ? 12 : 60;
      request.num_patterns = short_replicates ? 80 : 900;
      request.replicates = static_cast<std::size_t>(
          short_replicates ? rng.uniform_int(40, 240) : rng.uniform_int(10, 40));
      const double at = rng.uniform() * 2.0 * 86400.0;
      system.simulation().at(at, [this, request] {
        receipts.push_back(portal->submit(request));
      });
    }
    system.run(2.0 * 86400.0);
    system.run_until_drained(60.0 * 86400.0);
  }

  Outcome outcome() const { return outcome_of(system, metrics, tracer); }
};

class PumpEquivalence : public ::testing::TestWithParam<SchedulingMode> {};

TEST_P(PumpEquivalence, RunPumpMatchesThePerJobReference) {
  MixedRun runs(GetParam(), /*reference=*/false);
  MixedRun reference(GetParam(), /*reference=*/true);
  expect_same(runs.outcome(), reference.outcome());

  // The workload reaches every path the run queue has to get right.
  bool remainder_bundle = false;
  for (const SubmitReceipt& receipt : runs.receipts) {
    ASSERT_TRUE(receipt.accepted);
    const auto* batch = runs.portal->batch(receipt.batch_id);
    if (receipt.bundle_size > 1 &&
        receipt.grid_jobs * receipt.bundle_size != batch->replicates) {
      remainder_bundle = true;
    }
  }
  EXPECT_TRUE(remainder_bundle);
  EXPECT_GT(runs.metrics.counter_total("sched.retry_scheduled"), 0u);
  EXPECT_GT(runs.metrics.counter_total("sched.demote_unstable_stable"), 0u);
  EXPECT_GT(runs.metrics.counter_total("sched.fair_share_reorders"), 0u);
  EXPECT_EQ(runs.system.metrics().completed, runs.system.metrics().submitted);
  EXPECT_EQ(audit(runs.system, runs.metrics, runs.portal.get(),
                  runs.receipts.size()),
            std::vector<std::string>{});
}

INSTANTIATE_TEST_SUITE_P(AllModes, PumpEquivalence,
                         ::testing::Values(SchedulingMode::kEstimateAware,
                                           SchedulingMode::kOracle,
                                           SchedulingMode::kLoadOnly,
                                           SchedulingMode::kRoundRobin));

// A pass defers a run whose ids directly follow a run it has yet to visit.
// Jobs 1-4 run on the cluster and fail on its walltime limit while 5-20
// wait, so 1-4 re-enter behind 5-20 as their own run. The cluster's
// heartbeats then stop, its directory entry goes stale and the next pass
// defers 5-20 whole: appending it may not grow the unvisited run 1-4, or
// the pass would visit 5-20 twice and drain 1-20 in id order.
struct WalltimeRun {
  LatticeSystem system;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;

  explicit WalltimeRun(bool reference) : system(config()) {
    if (reference) PumpReference::install(system);
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 1;
    cluster.cores_per_node = 4;
    cluster.max_walltime = 100.0;
    system.add_cluster("hpc", cluster);
    system.enable_observability(metrics, tracer);
    system.calibrate_speeds();
    for (int i = 0; i < 4; ++i) submit();
    system.simulation().at(61.0, [this] {
      system.mds().set_heartbeat_blackout("hpc", true);
      for (int i = 0; i < 16; ++i) submit();
    });
    system.simulation().at(1000.0, [this] {
      system.mds().set_heartbeat_blackout("hpc", false);
    });
  }

  static LatticeConfig config() {
    LatticeConfig config;
    config.scheduler.mode = SchedulingMode::kOracle;
    config.scheduler_period = 60.0;
    config.max_attempts = 2;
    return config;
  }

  void submit() {
    system.submit_job_with_runtime(GarliFeatures{}, 3600.0, {}, 0, {}, 7);
  }
};

TEST(PumpRuns, DeferredRunNeverGrowsARunThePassHasYetToVisit) {
  WalltimeRun runs(false);
  WalltimeRun reference(true);
  // Past the failures, before the first pass that sees them.
  runs.system.run(235.0);
  reference.system.run(235.0);
  ASSERT_EQ(PumpReference::runs(runs.system), (Runs{{5, 16}, {1, 4}}));
  EXPECT_EQ(PumpReference::queue(reference.system),
            PumpReference::queue(runs.system));

  runs.system.run(245.0);
  reference.system.run(245.0);
  EXPECT_EQ(PumpReference::runs(runs.system), (Runs{{5, 16}, {1, 4}}));
  EXPECT_EQ(PumpReference::queue(reference.system),
            PumpReference::queue(runs.system));

  runs.system.run_until_drained(30.0 * 86400.0);
  reference.system.run_until_drained(30.0 * 86400.0);
  expect_same(outcome_of(runs.system, runs.metrics, runs.tracer),
              outcome_of(reference.system, reference.metrics,
                         reference.tracer));
  EXPECT_EQ(runs.system.pending_jobs(), 0u);
}

// A run holds only jobs that present the same decision inputs: the same
// user (fair-share order and inflation), base estimate, requirements and
// staged data. (Demotion's require_stable is exercised by the mixed
// workload above.)
TEST(PumpRuns, RunsGroupOnlyJobsThatDecideAlike) {
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kOracle;
  LatticeSystem system(config);
  grid::JobRequirements big;
  big.min_memory_gb = 4.0;
  const GarliFeatures features;
  for (int i = 0; i < 3; ++i) {
    system.submit_job_with_runtime(features, 100.0, {}, 0, {}, 1);
  }
  system.submit_job_with_runtime(features, 100.0, {}, 0, {}, 2);
  system.submit_job_with_runtime(features, 200.0, {}, 0, {}, 2);
  system.submit_job_with_runtime(features, 200.0, big, 0, {}, 2);
  for (int i = 0; i < 2; ++i) {
    system.submit_job_with_runtime(features, 200.0, big, 0, {10.0, 1.0}, 2);
  }
  EXPECT_EQ(PumpReference::runs(system),
            (Runs{{1, 3}, {4, 1}, {5, 1}, {6, 1}, {7, 2}}));
  EXPECT_EQ(system.pending_jobs(), 8u);
}

// Cancelling a queued job splits its run; the queue, the backlog and the
// run-end audit stay exact whichever member goes.
struct CancelFixture {
  LatticeSystem system{LatticeConfig{}};
  obs::MetricsRegistry metrics;

  CancelFixture() {
    system.enable_observability(metrics, obs::Tracer::null());
    // No resources yet: everything stays queued.
    for (int i = 0; i < 10; ++i) {
      system.submit_job_with_runtime(GarliFeatures{}, 600.0, {}, 0, {}, 3);
    }
    system.run(600.0);
  }

  void drain_and_audit() {
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 2;
    system.add_cluster("hpc", cluster);
    system.calibrate_speeds();
    system.run_until_drained(30.0 * 86400.0);
    EXPECT_EQ(system.pending_jobs(), 0u);
    EXPECT_EQ(system.metrics().completed, 9u);
    EXPECT_EQ(audit(system, metrics, nullptr, 0), std::vector<std::string>{});
  }
};

TEST(PumpRuns, CancellingTheFirstMemberShrinksTheRun) {
  CancelFixture fx;
  ASSERT_EQ(PumpReference::runs(fx.system), (Runs{{1, 10}}));
  EXPECT_TRUE(fx.system.cancel_job(1));
  EXPECT_EQ(PumpReference::runs(fx.system), (Runs{{2, 9}}));
  EXPECT_EQ(fx.system.pending_jobs(), 9u);
  EXPECT_EQ(fx.system.grid_backlog(), 9u);
  fx.drain_and_audit();
}

TEST(PumpRuns, CancellingAMiddleMemberSplitsTheRun) {
  CancelFixture fx;
  EXPECT_TRUE(fx.system.cancel_job(4));
  EXPECT_EQ(PumpReference::runs(fx.system), (Runs{{1, 3}, {5, 6}}));
  EXPECT_EQ(fx.system.pending_jobs(), 9u);
  EXPECT_EQ(fx.system.grid_backlog(), 9u);
  EXPECT_FALSE(fx.system.cancel_job(4));
  EXPECT_EQ(fx.system.pending_jobs(), 9u);
  fx.drain_and_audit();
}

TEST(PumpRuns, CancellingTheLastMemberShrinksTheRun) {
  CancelFixture fx;
  EXPECT_TRUE(fx.system.cancel_job(10));
  EXPECT_EQ(PumpReference::runs(fx.system), (Runs{{1, 9}}));
  EXPECT_EQ(fx.system.pending_jobs(), 9u);
  EXPECT_EQ(fx.system.grid_backlog(), 9u);
  fx.drain_and_audit();
}

TEST(PumpRuns, CancellingASingletonRunRemovesIt) {
  CancelFixture fx;
  EXPECT_TRUE(fx.system.cancel_job(5));
  EXPECT_TRUE(fx.system.cancel_job(6));
  EXPECT_EQ(PumpReference::runs(fx.system), (Runs{{1, 4}, {7, 4}}));
  EXPECT_TRUE(fx.system.cancel_job(1));
  EXPECT_TRUE(fx.system.cancel_job(2));
  EXPECT_TRUE(fx.system.cancel_job(3));
  EXPECT_TRUE(fx.system.cancel_job(4));
  EXPECT_EQ(PumpReference::runs(fx.system), (Runs{{7, 4}}));
  EXPECT_EQ(fx.system.pending_jobs(), 4u);
}

// A terminal hook that cancels a later member of the run the pass is
// dispatching, and a member of a run the pass has yet to visit: neither
// cancelled job is placed, and every other job is still visited in order.
// The cluster is down, so every dispatch bounces and, with no attempts
// allowed, abandons its job synchronously.
TEST(PumpRuns, CancelFromInsideADispatchSkipsTheCancelledMembers) {
  LatticeConfig config;
  config.max_attempts = 0;
  LatticeSystem system(config);
  obs::MetricsRegistry metrics;
  system.enable_observability(metrics, obs::Tracer::null());
  system.add_cluster("hpc", grid::BatchQueueResource::Config{});
  system.calibrate_speeds();
  system.resource("hpc")->set_outage(true);
  grid::JobRequirements big;
  big.min_memory_gb = 4.0;
  for (int i = 0; i < 9; ++i) {
    system.submit_job_with_runtime(GarliFeatures{}, 600.0,
                                   i < 6 ? grid::JobRequirements{} : big, 0,
                                   {}, 3);
  }
  ASSERT_EQ(PumpReference::runs(system), (Runs{{1, 6}, {7, 3}}));
  std::vector<std::uint64_t> terminal;
  system.set_job_terminal_hook(
      [&](const grid::GridJob& job, bool /*completed*/) {
        terminal.push_back(job.id);
        if (job.id == 1) {
          EXPECT_TRUE(system.cancel_job(3));
          EXPECT_TRUE(system.cancel_job(8));
        }
      });
  system.run(61.0);
  EXPECT_EQ(terminal,
            (std::vector<std::uint64_t>{1, 3, 8, 2, 4, 5, 6, 7, 9}));
  EXPECT_EQ(system.job(3)->state, grid::JobState::kCancelled);
  EXPECT_EQ(system.job(8)->state, grid::JobState::kCancelled);
  EXPECT_EQ(metrics.counter_total("grid.outage_kills"), 7u);
  EXPECT_EQ(system.pending_jobs(), 0u);
  EXPECT_EQ(audit(system, metrics, nullptr, 0), std::vector<std::string>{});
}

}  // namespace
}  // namespace lattice::core
