// Tests for The Lattice Project core: the GARLI cost surface and
// featurization, the RF runtime estimator (accuracy + online update), speed
// calibration, the deadline policy, meta-scheduler filtering/ranking, the
// portal pipeline, and end-to-end LatticeSystem runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/deadline.hpp"
#include "core/estimator.hpp"
#include "core/lattice.hpp"
#include "core/metascheduler.hpp"
#include "core/portal.hpp"
#include "core/speed.hpp"
#include "core/status.hpp"
#include "net/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/simulate.hpp"
#include "util/stats.hpp"

namespace lattice::core {
namespace {

// ---------------------------------------------------------------------------
// Cost model

TEST(CostModel, MonotoneInTaxaAndPatterns) {
  GarliCostModel model;
  GarliFeatures f;
  const double base = model.expected_runtime(f);
  GarliFeatures more_taxa = f;
  more_taxa.num_taxa *= 4;
  EXPECT_GT(model.expected_runtime(more_taxa), base);
  GarliFeatures more_patterns = f;
  more_patterns.num_patterns *= 4;
  EXPECT_NEAR(model.expected_runtime(more_patterns), 4.0 * base, base * 0.01);
}

TEST(CostModel, RateHetDominatesCategoryCount) {
  GarliCostModel model;
  GarliFeatures none;
  none.rate_het_model = 0;
  none.num_rate_categories = 1;
  GarliFeatures gamma4 = none;
  gamma4.rate_het_model = 1;
  gamma4.num_rate_categories = 4;
  GarliFeatures gamma8 = gamma4;
  gamma8.num_rate_categories = 8;

  const double t_none = model.expected_runtime(none);
  const double t_g4 = model.expected_runtime(gamma4);
  const double t_g8 = model.expected_runtime(gamma8);
  EXPECT_GT(t_g4 / t_none, 3.0);        // turning gamma on is huge
  EXPECT_LT(t_g8 / t_g4, 1.1);          // doubling categories is tiny
}

TEST(CostModel, DataTypeOrdering) {
  GarliCostModel model;
  GarliFeatures f;
  f.data_type = 0;
  const double nuc = model.expected_runtime(f);
  f.data_type = 1;
  f.subst_model_params = 0;
  const double aa = model.expected_runtime(f);
  f.data_type = 2;
  f.subst_model_params = 2;
  const double codon = model.expected_runtime(f);
  EXPECT_GT(aa, nuc);
  EXPECT_GT(codon, aa);
}

TEST(CostModel, StartingTreeSpeedsUp) {
  GarliCostModel model;
  GarliFeatures f;
  const double without = model.expected_runtime(f);
  f.has_starting_tree = true;
  EXPECT_LT(model.expected_runtime(f), without);
}

TEST(CostModel, NoiseIsUnbiasedMultiplicative) {
  GarliCostModel model;
  GarliFeatures f;
  util::Rng rng(1);
  util::RunningStat stat;
  for (int i = 0; i < 20000; ++i) {
    stat.add(model.sample_runtime(f, rng));
  }
  EXPECT_NEAR(stat.mean(), model.expected_runtime(f),
              model.expected_runtime(f) * 0.02);
}

TEST(CostModel, FeaturizationRoundTrip) {
  phylo::GarliJob job;
  job.model.data_type = phylo::DataType::kCodon;
  job.model.rate_het = phylo::RateHet::kGammaInvariant;
  job.model.n_rate_categories = 6;
  job.search_replicates = 7;
  job.genthresh = 500;
  job.starting_tree = "(a,b,(c,d));";
  const GarliFeatures f = features_from_job(job, 120, 900);
  EXPECT_DOUBLE_EQ(f.num_taxa, 120.0);
  EXPECT_DOUBLE_EQ(f.num_patterns, 900.0);
  EXPECT_EQ(f.data_type, 2);
  EXPECT_EQ(f.rate_het_model, 2);
  EXPECT_DOUBLE_EQ(f.num_rate_categories, 6.0);
  EXPECT_DOUBLE_EQ(f.subst_model_params, 2.0);
  EXPECT_DOUBLE_EQ(f.search_reps, 7.0);
  EXPECT_DOUBLE_EQ(f.genthresh, 500.0);
  EXPECT_TRUE(f.has_starting_tree);
  const auto vec = to_feature_vector(f);
  EXPECT_EQ(vec.size(), garli_feature_specs().size());
}

TEST(CostModel, CategoryFeatureIsRawConfigValue) {
  // numratecats is featurized as the raw config field even when rate
  // heterogeneity is off (the engine ignores it then) — the independence
  // behind Figure 2's near-zero importance for the category count.
  phylo::GarliJob job;
  job.model.rate_het = phylo::RateHet::kNone;
  job.model.n_rate_categories = 6;
  const GarliFeatures f = features_from_job(job, 10, 100);
  EXPECT_DOUBLE_EQ(f.num_rate_categories, 6.0);
}

TEST(CostModel, RealEngineConfirmsSurfaceShape) {
  // Anchor the synthetic surface against genuine GA executions: gamma rate
  // heterogeneity must cost real wall-clock time, and more taxa must cost
  // more than fewer.
  util::Rng rng(5);
  phylo::ModelSpec spec;
  const auto small = phylo::simulate_dataset(6, 300, spec, rng, 0.15);
  const auto large = phylo::simulate_dataset(12, 300, spec, rng, 0.15);

  phylo::GarliJob job;
  job.genthresh = 25;
  job.max_generations = 400;
  job.seed = 3;

  const double t_small = measure_reference_runtime(job, small.alignment);
  const double t_large = measure_reference_runtime(job, large.alignment);
  EXPECT_GT(t_large, t_small);

  phylo::GarliJob gamma_job = job;
  gamma_job.model.rate_het = phylo::RateHet::kGamma;
  gamma_job.model.n_rate_categories = 4;
  const double t_gamma =
      measure_reference_runtime(gamma_job, small.alignment);
  EXPECT_GT(t_gamma, t_small * 1.5);
}

TEST(CostModel, CorpusGeneration) {
  GarliCostModel model;
  util::Rng rng(2);
  const auto corpus = generate_corpus(200, model, rng);
  EXPECT_EQ(corpus.size(), 200u);
  for (const auto& example : corpus) {
    EXPECT_GT(example.runtime, 0.0);
    EXPECT_GE(example.features.num_taxa, 8.0);
  }
  const auto data = corpus_to_dataset(corpus, true);
  EXPECT_EQ(data.n_rows(), 200u);
  EXPECT_EQ(data.n_features(), 9u);
}

// ---------------------------------------------------------------------------
// Estimator

TEST(Estimator, PredictsHeldOutJobsWell) {
  GarliCostModel model;
  util::Rng rng(3);
  RuntimeEstimator::Config config;
  config.forest.n_trees = 150;
  RuntimeEstimator estimator(config);
  estimator.train(generate_corpus(300, model, rng));

  std::vector<double> observed;
  std::vector<double> predicted;
  for (int i = 0; i < 100; ++i) {
    const GarliFeatures f = random_features(rng);
    observed.push_back(std::log(model.expected_runtime(f)));
    predicted.push_back(std::log(*estimator.predict(f)));
  }
  EXPECT_GT(util::r_squared(observed, predicted), 0.85);
}

TEST(Estimator, VarianceExplainedHigh) {
  GarliCostModel model;
  util::Rng rng(4);
  RuntimeEstimator::Config config;
  config.forest.n_trees = 200;
  RuntimeEstimator estimator(config);
  estimator.train(generate_corpus(150, model, rng));
  // The paper reports ~93% on its 150-job corpus in raw-runtime space;
  // log-space OOB variance explained is the stricter measure (raw-space
  // R^2 is inflated by the handful of week-long jobs dominating SS_tot —
  // bench_rf_accuracy reports both).
  EXPECT_GT(estimator.variance_explained(), 0.75);
}

TEST(Estimator, UntrainedReturnsNullopt) {
  RuntimeEstimator estimator;
  EXPECT_FALSE(estimator.predict(GarliFeatures{}).has_value());
  EXPECT_DOUBLE_EQ(estimator.variance_explained(), 0.0);
}

TEST(Estimator, OnlineObservationsTriggerRetrain) {
  GarliCostModel model;
  util::Rng rng(5);
  RuntimeEstimator::Config config;
  config.forest.n_trees = 60;
  config.retrain_every = 10;
  RuntimeEstimator estimator(config);
  estimator.train(generate_corpus(50, model, rng));
  const std::size_t before = estimator.corpus_size();
  for (int i = 0; i < 10; ++i) {
    const GarliFeatures f = random_features(rng);
    estimator.observe(f, model.sample_runtime(f, rng));
  }
  EXPECT_EQ(estimator.corpus_size(), before + 10);
  // After the retrain the new observations influence predictions (model
  // is rebuilt without throwing, corpus grew).
  EXPECT_TRUE(estimator.predict(GarliFeatures{}).has_value());
}

TEST(Estimator, ObserveKeepsNoCorpusWhenRetrainIsOff) {
  GarliCostModel model;
  util::Rng rng(5);
  RuntimeEstimator::Config config;
  config.forest.n_trees = 20;
  config.retrain_every = 0;
  RuntimeEstimator estimator(config);
  estimator.train(generate_corpus(50, model, rng));
  const std::size_t trained = estimator.corpus_size();
  const std::uint64_t model_id = estimator.model_id();
  const double before = *estimator.predict(GarliFeatures{});
  for (int i = 0; i < 100; ++i) {
    const GarliFeatures f = random_features(rng);
    estimator.observe(f, model.sample_runtime(f, rng));
  }
  EXPECT_EQ(estimator.corpus_size(), trained);
  EXPECT_EQ(estimator.model_id(), model_id);
  EXPECT_EQ(*estimator.predict(GarliFeatures{}), before);
}

TEST(Estimator, ImportanceRanksRateHetAndDataTypeHighest) {
  GarliCostModel model;
  util::Rng rng(6);
  RuntimeEstimator::Config config;
  config.forest.n_trees = 150;
  RuntimeEstimator estimator(config);
  estimator.train(generate_corpus(400, model, rng));
  util::Rng imp_rng(7);
  const auto importance = estimator.importance(imp_rng);
  ASSERT_EQ(importance.size(), 9u);
  double rate_het = 0.0;
  double categories = 0.0;
  for (const auto& entry : importance) {
    if (entry.feature == "rate_het_model") rate_het = entry.inc_mse_pct;
    if (entry.feature == "num_rate_categories") {
      categories = entry.inc_mse_pct;
    }
  }
  // Figure 2's headline ordering: the rate-het model matters enormously,
  // the category count barely at all.
  EXPECT_GT(rate_het, 10.0);
  EXPECT_GT(rate_het, 5.0 * std::max(categories, 0.5));
}

// ---------------------------------------------------------------------------
// Speed calibration

TEST(Speed, ComputesPaperFormula) {
  SpeedCalibrator calibrator(600.0);
  // Paper: "If the job runs in half the time ... speed 2.0 — in twice the
  // time, a speed of 0.5".
  calibrator.calibrate("fast", std::vector<double>{300.0});
  calibrator.calibrate("slow", std::vector<double>{1200.0});
  EXPECT_DOUBLE_EQ(*calibrator.speed("fast"), 2.0);
  EXPECT_DOUBLE_EQ(*calibrator.speed("slow"), 0.5);
}

TEST(Speed, AveragesMachineRuntimes) {
  SpeedCalibrator calibrator(100.0);
  calibrator.calibrate("pool", std::vector<double>{50.0, 150.0});
  EXPECT_DOUBLE_EQ(*calibrator.speed("pool"), 1.0);
}

TEST(Speed, ErrorsAndDefaults) {
  EXPECT_THROW(SpeedCalibrator(0.0), std::invalid_argument);
  SpeedCalibrator calibrator(100.0);
  EXPECT_THROW(calibrator.calibrate("x", std::vector<double>{}),
               std::invalid_argument);
  EXPECT_THROW(calibrator.calibrate("x", std::vector<double>{-1.0}),
               std::invalid_argument);
  EXPECT_FALSE(calibrator.speed("unknown").has_value());
  EXPECT_DOUBLE_EQ(calibrator.speed_or_default("unknown"), 1.0);
}

TEST(Speed, RejectsNonFiniteRuntimes) {
  // NaN slips through a plain `<= 0.0` check; a NaN or infinite speed
  // would reach the MDS eta rank keys, whose ordered index needs a strict
  // weak order.
  SpeedCalibrator calibrator(100.0);
  EXPECT_THROW(calibrator.calibrate(
                   "x", std::vector<double>{
                            std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(calibrator.calibrate(
                   "x", std::vector<double>{
                            50.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_FALSE(calibrator.speed("x").has_value());
}

// ---------------------------------------------------------------------------
// Deadline policy

TEST(Deadline, ScalesWithEstimateAndClamps) {
  DeadlinePolicy policy;
  const double short_deadline = policy.deadline_seconds(60.0);
  EXPECT_DOUBLE_EQ(short_deadline, policy.min_deadline_seconds);
  const double medium = policy.deadline_seconds(8.0 * 3600.0);
  EXPECT_GT(medium, policy.min_deadline_seconds);
  EXPECT_LT(medium, DeadlinePolicy::kMaxDeadlineSeconds);
  const double huge = policy.deadline_seconds(1e9);
  EXPECT_DOUBLE_EQ(huge, DeadlinePolicy::kMaxDeadlineSeconds);
}

TEST(Deadline, MoreSlackMeansLaterDeadline) {
  DeadlinePolicy tight;
  tight.slack = 2.0;
  DeadlinePolicy loose;
  loose.slack = 8.0;
  const double estimate = 6.0 * 3600.0;
  EXPECT_LT(tight.deadline_seconds(estimate),
            loose.deadline_seconds(estimate));
}

TEST(Deadline, StagedDataExtendsTheDeadline) {
  const double estimate = 0.45 * 3600.0;
  const double bulk_mb = 2505.0;
  DeadlinePolicy policy;
  policy.typical_mbps = 0.5;
  // Staging wall time at link speed joins the duty-cycled compute time
  // before the slack multiplier; both values sit inside the clamp here.
  const double compute = estimate / (DeadlinePolicy::kTypicalHostSpeed *
                                     DeadlinePolicy::kTypicalAvailability);
  EXPECT_DOUBLE_EQ(policy.deadline_seconds(estimate, bulk_mb),
                   policy.slack * (compute + bulk_mb * 8.0 / 0.5));
  EXPECT_GT(policy.deadline_seconds(estimate, bulk_mb),
            policy.deadline_seconds(estimate, 0.0));

  // typical_mbps == 0 is free staging: the data term is ignored.
  DeadlinePolicy free_staging;
  EXPECT_DOUBLE_EQ(free_staging.deadline_seconds(estimate, bulk_mb),
                   free_staging.deadline_seconds(estimate, 0.0));

  // The clamp bounds the transfer term too.
  EXPECT_DOUBLE_EQ(policy.deadline_seconds(estimate, 1e9),
                   DeadlinePolicy::kMaxDeadlineSeconds);
  EXPECT_DOUBLE_EQ(policy.deadline_seconds(60.0, 0.01),
                   policy.min_deadline_seconds);
}

// ---------------------------------------------------------------------------
// Meta-scheduler

struct SchedulerFixture {
  sim::Simulation sim;
  grid::MdsDirectory mds{sim, 300.0};
  SpeedCalibrator speeds{600.0};

  grid::ResourceInfo cluster(const std::string& name, std::size_t free,
                             std::size_t queued) {
    grid::ResourceInfo info;
    info.name = name;
    info.kind = grid::ResourceKind::kPbsCluster;
    info.total_slots = 64;
    info.free_slots = free;
    info.queued_jobs = queued;
    info.node_memory_gb = 16.0;
    info.platforms = {grid::PlatformSpec{}};
    info.mpi_capable = true;
    info.stable = true;
    return info;
  }

  grid::ResourceInfo pool(const std::string& name, std::size_t free) {
    grid::ResourceInfo info = cluster(name, free, 0);
    info.kind = grid::ResourceKind::kCondorPool;
    info.node_memory_gb = 2.0;
    info.mpi_capable = false;
    info.stable = false;
    return info;
  }
};

TEST(Scheduler, FiltersOfflineResources) {
  SchedulerFixture fx;
  fx.mds.report(fx.cluster("hpc", 10, 0));
  MetaScheduler scheduler(fx.mds);
  grid::GridJob job;
  job.estimated_reference_runtime = 100.0;
  EXPECT_EQ(scheduler.choose(job).value_or(""), "hpc");
  // Let the report go stale.
  fx.sim.at(301.0, [] {});
  fx.sim.run();
  EXPECT_FALSE(scheduler.choose(job).has_value());
}

TEST(Scheduler, MatchmakingFilters) {
  // Drives the shipped matchmaking path: the resource is (re-)reported
  // into a one-entry directory and must come back from match_online.
  SchedulerFixture fx;
  grid::ResourceInfo info = fx.cluster("hpc", 10, 0);
  grid::JobRequirements requirements;
  grid::GridJob job;
  job.requirements = &requirements;
  const auto matches = [&] {
    fx.mds.report(info);
    std::vector<const grid::MdsEntry*> eligible;
    fx.mds.match_online(*job.requirements, eligible);
    return eligible.size() == 1;
  };

  // Platform mismatch.
  requirements.platforms = {
      grid::PlatformSpec{grid::OsType::kWindows, grid::Arch::kX86}};
  EXPECT_FALSE(matches());
  requirements.platforms.clear();

  // Memory.
  requirements.min_memory_gb = 64.0;
  EXPECT_FALSE(matches());
  requirements.min_memory_gb = 1.0;

  // MPI.
  requirements.needs_mpi = true;
  info.mpi_capable = false;
  EXPECT_FALSE(matches());
  info.mpi_capable = true;
  EXPECT_TRUE(matches());

  // Software dependency.
  requirements.software = {"java"};
  EXPECT_FALSE(matches());
  info.software = {"java"};
  EXPECT_TRUE(matches());
  EXPECT_EQ(fx.mds.all().size(), 1u);
}

TEST(Scheduler, StabilityRoutesLongJobsToClusters) {
  SchedulerFixture fx;
  fx.mds.report(fx.cluster("hpc", 1, 50));  // stable but loaded
  fx.mds.report(fx.pool("condor", 60));     // unstable and empty
  SchedulerPolicy policy;
  policy.mode = SchedulingMode::kEstimateAware;
  policy.stability_cutoff_hours = 10.0;
  MetaScheduler scheduler(fx.mds, policy);

  grid::GridJob long_job;
  long_job.estimated_reference_runtime = 48.0 * 3600.0;
  EXPECT_EQ(scheduler.choose(long_job).value_or(""), "hpc");

  grid::GridJob short_job;
  short_job.estimated_reference_runtime = 600.0;
  EXPECT_EQ(scheduler.choose(short_job).value_or(""), "condor");
}

TEST(Scheduler, SpeedScalingChangesStabilityDecision) {
  SchedulerFixture fx;
  fx.mds.report(fx.cluster("hpc", 1, 50));
  fx.mds.report(fx.pool("condor", 60));
  fx.speeds.calibrate("condor", std::vector<double>{150.0});  // speed 4.0
  // Ranking reads speeds from the directory entry (what calibrate_speeds
  // publishes); mirror the calibration the way LatticeSystem does.
  fx.mds.set_speed("condor", fx.speeds.speed_or_default("condor"));
  SchedulerPolicy policy;
  policy.stability_cutoff_hours = 10.0;
  MetaScheduler scheduler(fx.mds, policy);
  // 30h of reference work is only ~7.5h on the fast pool: now allowed.
  grid::GridJob job;
  job.estimated_reference_runtime = 30.0 * 3600.0;
  EXPECT_EQ(scheduler.choose(job).value_or(""), "condor");
}

TEST(Scheduler, LoadBalancePrefersEmptierResource) {
  SchedulerFixture fx;
  fx.mds.report(fx.cluster("busy", 0, 100));
  fx.mds.report(fx.cluster("empty", 64, 0));
  SchedulerPolicy policy;
  policy.mode = SchedulingMode::kLoadOnly;
  MetaScheduler scheduler(fx.mds, policy);
  grid::GridJob job;
  EXPECT_EQ(scheduler.choose(job).value_or(""), "empty");
}

TEST(Scheduler, RoundRobinCycles) {
  SchedulerFixture fx;
  fx.mds.report(fx.cluster("a", 10, 0));
  fx.mds.report(fx.cluster("b", 10, 0));
  SchedulerPolicy policy;
  policy.mode = SchedulingMode::kRoundRobin;
  MetaScheduler scheduler(fx.mds, policy);
  grid::GridJob job;
  const std::string first = scheduler.choose(job).value_or("");
  const std::string second = scheduler.choose(job).value_or("");
  EXPECT_NE(first, second);
  EXPECT_EQ(scheduler.choose(job).value_or(""), first);
}

TEST(Scheduler, OracleUsesTrueRuntime) {
  SchedulerFixture fx;
  fx.mds.report(fx.cluster("hpc", 1, 50));
  fx.mds.report(fx.pool("condor", 60));
  SchedulerPolicy policy;
  policy.mode = SchedulingMode::kOracle;
  MetaScheduler scheduler(fx.mds, policy);
  grid::GridJob job;
  job.true_reference_runtime = 48.0 * 3600.0;
  job.estimated_reference_runtime = 60.0;  // wrong estimate is ignored
  EXPECT_EQ(scheduler.choose(job).value_or(""), "hpc");
}

// ---------------------------------------------------------------------------
// LatticeSystem end to end

LatticeConfig fast_config(SchedulingMode mode) {
  LatticeConfig config;
  config.scheduler.mode = mode;
  config.scheduler_period = 30.0;
  config.seed = 11;
  return config;
}

TEST(Lattice, CompletesWorkAcrossResourceMix) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 8;
  cluster.cores_per_node = 2;
  system.add_cluster("umd-hpc", cluster);
  grid::CondorPool::Config condor;
  condor.machines = 30;
  condor.seed = 5;
  system.add_condor_pool("umd-condor", condor);
  boinc::BoincPoolConfig boinc_config;
  boinc_config.hosts = 60;
  boinc_config.seed = 7;
  system.add_boinc_pool("lattice-boinc", boinc_config);
  system.calibrate_speeds();

  // Train the estimator so estimate-aware scheduling is live.
  GarliCostModel model;
  util::Rng rng(13);
  RuntimeEstimator::Config est_config;
  est_config.forest.n_trees = 60;
  est_config.retrain_every = 0;
  system.estimator() = RuntimeEstimator(est_config);
  system.estimator().train(generate_corpus(120, model, rng));

  for (int i = 0; i < 40; ++i) {
    GarliFeatures f = random_features(rng);
    f.num_taxa = std::min(f.num_taxa, 200.0);
    f.num_patterns = std::min(f.num_patterns, 1000.0);
    system.submit_garli_job(f);
  }
  system.run_until_drained(400.0 * 86400.0);
  EXPECT_EQ(system.metrics().completed + system.metrics().abandoned, 40u);
  EXPECT_GT(system.metrics().completed, 30u);
}

TEST(Lattice, JobsDeferredWithNoResources) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  GarliFeatures f;
  system.submit_garli_job(f);
  system.run(3600.0);
  EXPECT_EQ(system.pending_jobs(), 1u);
  EXPECT_EQ(system.metrics().completed, 0u);
}

TEST(Lattice, SpeedCalibrationApproximatesTrueSpeeds) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  grid::BatchQueueResource::Config fast;
  fast.node_speed = 2.0;
  system.add_cluster("fast", fast);
  grid::BatchQueueResource::Config slow;
  slow.node_speed = 0.5;
  system.add_cluster("slow", slow);
  system.calibrate_speeds(600.0, 0.02);
  EXPECT_NEAR(system.speeds().speed_or_default("fast"), 2.0, 0.15);
  EXPECT_NEAR(system.speeds().speed_or_default("slow"), 0.5, 0.05);
}

TEST(Lattice, FailedAttemptsAreRescheduled) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  grid::CondorPool::Config condor;
  condor.machines = 6;
  condor.mean_idle_hours = 0.5;  // aggressive preemption
  condor.mean_busy_hours = 0.5;
  condor.seed = 3;
  system.add_condor_pool("volatile", condor);
  GarliFeatures f;
  system.submit_job_with_runtime(f, 2.0 * 3600.0);
  system.run_until_drained(365.0 * 86400.0);
  EXPECT_EQ(system.metrics().completed + system.metrics().abandoned, 1u);
  // Preemptions should have occurred and been recorded.
  EXPECT_GT(system.metrics().failed_attempts +
                system.metrics().completed,
            1u);
}

TEST(Lattice, BoincDispatchTakesEstimateDeadlineOrPoolDefault) {
  LatticeConfig config = fast_config(SchedulingMode::kEstimateAware);
  config.deadline.typical_mbps = 2.0;  // the data term is live
  LatticeSystem system(config);
  boinc::BoincPoolConfig pool;
  pool.hosts = 20;
  pool.seed = 3;
  pool.network = net::NetConfig::volunteer_default();
  boinc::BoincServer& server = system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();

  const GarliFeatures features;
  const JobData data{40.0, 2.0};
  // Submitted while the estimator is untrained: no estimate.
  const std::uint64_t plain = system.submit_garli_job(features, {}, 0, data);
  GarliCostModel model;
  util::Rng rng(13);
  RuntimeEstimator::Config est_config;
  est_config.forest.n_trees = 40;
  est_config.retrain_every = 0;
  system.estimator() = RuntimeEstimator(est_config);
  system.estimator().train(generate_corpus(120, model, rng));
  const std::uint64_t priced = system.submit_garli_job(features, {}, 0, data);
  ASSERT_FALSE(system.job(plain)->estimated_reference_runtime.has_value());
  ASSERT_TRUE(system.job(priced)->estimated_reference_runtime.has_value());

  system.run(config.scheduler_period);  // one pump pass dispatches both
  std::map<std::uint64_t, double> bound_of_job;
  for (const boinc::Workunit& wu : server.workunits()) {
    bound_of_job[wu.grid_job->id] = wu.delay_bound;
  }
  ASSERT_EQ(bound_of_job.size(), 2u);
  ASSERT_NE(server.network(), nullptr);
  EXPECT_DOUBLE_EQ(bound_of_job.at(plain),
                   pool.default_delay_bound +
                       server.network()->expected_staging_seconds(
                           data.input_mb, data.output_mb));
  EXPECT_DOUBLE_EQ(bound_of_job.at(priced),
                   config.deadline.deadline_seconds(
                       *system.job(priced)->estimated_reference_runtime,
                       data.input_mb + data.output_mb));
  EXPECT_NE(bound_of_job.at(plain), bound_of_job.at(priced));
}

// ---------------------------------------------------------------------------
// Portal

struct PortalFixture {
  LatticeSystem system{fast_config(SchedulingMode::kEstimateAware)};
  Portal portal{system};

  PortalFixture() {
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 32;
    cluster.cores_per_node = 4;
    system.add_cluster("hpc", cluster);
    system.calibrate_speeds();
  }

  void train_estimator() {
    GarliCostModel model;
    util::Rng rng(21);
    RuntimeEstimator::Config config;
    config.forest.n_trees = 60;
    config.retrain_every = 0;
    system.estimator() = RuntimeEstimator(config);
    system.estimator().train(generate_corpus(150, model, rng));
  }
};

SubmissionRequest make_request(const std::string& email, UserClass user_class,
                               const phylo::GarliJob& job,
                               std::size_t replicates, std::size_t num_taxa,
                               std::size_t num_patterns,
                               const phylo::Alignment* alignment = nullptr) {
  SubmissionRequest request;
  request.user_id = email.empty() ? 0 : user_id_from_email(email);
  request.user_class = user_class;
  request.user_email = email;
  request.job = job;
  request.replicates = replicates;
  request.num_taxa = num_taxa;
  request.num_patterns = num_patterns;
  request.alignment = alignment;
  return request;
}

TEST(PortalTest, RejectsOversizedAndInvalid) {
  PortalFixture fx;
  phylo::GarliJob job;
  auto receipt = fx.portal.submit(
      make_request("user@example.org", UserClass::kGuest, job, 2001, 50, 500));
  EXPECT_FALSE(receipt.accepted);
  EXPECT_EQ(receipt.problems, std::vector<std::string>{
                                  "2001 replicates exceeds the limit of 2000"});

  receipt = fx.portal.submit(
      make_request("", UserClass::kGuest, job, 10, 50, 500));
  EXPECT_FALSE(receipt.accepted);

  receipt = fx.portal.submit(
      make_request("user@example.org", UserClass::kGuest, job, 0, 50, 500));
  EXPECT_FALSE(receipt.accepted);

  phylo::GarliJob bad;
  bad.model.kappa = -3.0;
  receipt = fx.portal.submit(
      make_request("user@example.org", UserClass::kGuest, bad, 10, 50, 500));
  EXPECT_FALSE(receipt.accepted);
}

TEST(PortalTest, ValidatesAgainstAlignment) {
  PortalFixture fx;
  util::Rng rng(22);
  const auto dataset = phylo::simulate_dataset(6, 200, phylo::ModelSpec{},
                                               rng, 0.15);
  phylo::GarliJob job;
  job.model.data_type = phylo::DataType::kAminoAcid;  // mismatch
  const auto receipt = fx.portal.submit(
      make_request("user@example.org", UserClass::kRegistered, job, 5, 0, 0,
                   &dataset.alignment));
  EXPECT_FALSE(receipt.accepted);
  ASSERT_FALSE(receipt.problems.empty());
}

TEST(PortalTest, AcceptsAndTracksBatch) {
  PortalFixture fx;
  phylo::GarliJob job;
  job.genthresh = 200;
  const auto outcome = fx.portal.submit(
      make_request("user@example.org", UserClass::kRegistered, job, 25, 40,
                   300));
  ASSERT_TRUE(outcome.accepted);
  const BatchRecord* record = fx.portal.batch(outcome.batch_id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->replicates, 25u);
  EXPECT_EQ(record->grid_jobs, outcome.grid_jobs);
  EXPECT_EQ(record->notifications.size(), 1u);
  EXPECT_EQ(record->notifications[0].kind, "submitted");
  EXPECT_TRUE(fx.portal.result_manifest(outcome.batch_id).empty());

  fx.system.run_until_drained(400.0 * 86400.0);
  EXPECT_TRUE(record->done);
  EXPECT_EQ(record->completed_jobs, record->grid_jobs);
  const std::vector<std::string> manifest =
      fx.portal.result_manifest(outcome.batch_id);
  ASSERT_EQ(manifest.size(), record->grid_jobs);
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    EXPECT_EQ(manifest[i],
              "job-" + std::to_string(record->job_ids[i]) + ".best_tree.tre");
  }
  EXPECT_EQ(record->notifications.back().kind, "completed");
}

TEST(PortalTest, ShortJobsAreBundled) {
  PortalFixture fx;
  fx.train_estimator();
  // The RF cannot predict below its training corpus's smallest jobs, so
  // use a bundling threshold covering the corpus's short tail.
  PortalConfig config;
  config.bundle_threshold_seconds = 2.0 * 3600.0;
  config.bundle_target_seconds = 8.0 * 3600.0;
  Portal portal(fx.system, config);
  phylo::GarliJob job;  // default small nucleotide job
  const auto outcome = portal.submit(
      make_request("user@example.org", UserClass::kGuest, job, 200, 10, 60));
  ASSERT_TRUE(outcome.accepted);
  // Tiny replicates (10 taxa x 60 patterns) should bundle aggressively.
  EXPECT_GT(outcome.bundle_size, 1u);
  EXPECT_LT(outcome.grid_jobs, 200u);
  EXPECT_TRUE(outcome.eta_seconds.has_value());
}

TEST(PortalTest, LongJobsAreNotBundled) {
  PortalFixture fx;
  fx.train_estimator();
  phylo::GarliJob job;
  job.model.rate_het = phylo::RateHet::kGamma;
  job.model.data_type = phylo::DataType::kCodon;
  job.model.n_rate_categories = 4;
  const auto outcome = fx.portal.submit(make_request(
      "user@example.org", UserClass::kGuest, job, 20, 800, 5000));
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.bundle_size, 1u);
  EXPECT_EQ(outcome.grid_jobs, 20u);
}

TEST(StatusReports, CoverResourcesJobsAndBatches) {
  PortalFixture fx;
  fx.train_estimator();
  phylo::GarliJob job;
  const auto outcome = fx.portal.submit(make_request(
      "user@example.org", UserClass::kRegistered, job, 5, 40, 300));
  ASSERT_TRUE(outcome.accepted);
  fx.system.run(3600.0);

  const std::string resources = resource_status_report(fx.system);
  EXPECT_NE(resources.find("hpc"), std::string::npos);
  EXPECT_NE(resources.find("stable"), std::string::npos);
  EXPECT_NE(resources.find("online"), std::string::npos);

  const std::string jobs = job_status_report(fx.system);
  EXPECT_NE(jobs.find("5 submitted"), std::string::npos);

  const std::string batches = batch_status_report(fx.portal);
  EXPECT_NE(batches.find("batch 1"), std::string::npos);
  EXPECT_NE(batches.find("user@example.org"), std::string::npos);

  fx.system.run_until_drained(200.0 * 86400.0);
  EXPECT_NE(batch_status_report(fx.portal).find("[COMPLETE]"),
            std::string::npos);
}

TEST(PortalTest, UntrainedEstimatorMeansNoEtaNoBundling) {
  PortalFixture fx;
  phylo::GarliJob job;
  const auto outcome = fx.portal.submit(
      make_request("user@example.org", UserClass::kGuest, job, 50, 10, 60));
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.bundle_size, 1u);
  EXPECT_FALSE(outcome.eta_seconds.has_value());
}

// ---------------------------------------------------------------------------
// Estimate memo and the dense job table

/// Bitwise equality, so a memo that returned a merely close value fails.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

RuntimeEstimator::Config small_forest(std::size_t retrain_every = 0) {
  RuntimeEstimator::Config config;
  config.forest.n_trees = 40;
  config.retrain_every = retrain_every;
  return config;
}

TEST(EstimateMemo, BatchOfIdenticalReplicatesEvaluatesTheForestOnce) {
  PortalFixture fx;
  fx.train_estimator();
  obs::MetricsRegistry metrics;
  fx.system.enable_observability(metrics, obs::Tracer::null());
  PortalConfig config;
  config.bundle_threshold_seconds = 0.0;  // bundle size 1: 2000 grid jobs
  Portal portal(fx.system, config);
  phylo::GarliJob job;
  const auto receipt = portal.submit(make_request(
      "user@example.org", UserClass::kRegistered, job, 2000, 40, 300));
  ASSERT_TRUE(receipt.accepted);
  ASSERT_EQ(receipt.bundle_size, 1u);
  ASSERT_EQ(receipt.grid_jobs, 2000u);

  const obs::Counter* predictions =
      metrics.find_counter("estimator.predictions");
  ASSERT_NE(predictions, nullptr);
  EXPECT_LE(predictions->value(), 2u);

  GarliFeatures features = features_from_job(job, 40, 300);
  features.search_reps = 1;
  const double expected = *fx.system.estimator().predict(features);
  for (const std::uint64_t id : portal.batch(receipt.batch_id)->job_ids) {
    const grid::GridJob* submitted = fx.system.job(id);
    ASSERT_NE(submitted, nullptr);
    ASSERT_TRUE(submitted->estimated_reference_runtime.has_value());
    EXPECT_TRUE(same_bits(*submitted->estimated_reference_runtime, expected))
        << "job " << id;
  }
}

TEST(EstimateMemo, ObserveTriggeredRebuildRepricesTheNextJob) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  GarliCostModel model;
  util::Rng rng(31);
  system.estimator() = RuntimeEstimator(small_forest(/*retrain_every=*/3));
  system.estimator().train(generate_corpus(60, model, rng));
  GarliFeatures features;
  features.num_taxa = 120;
  const double before = *system.estimator().predict(features);
  const std::uint64_t first = system.submit_garli_job(features);
  EXPECT_TRUE(
      same_bits(*system.job(first)->estimated_reference_runtime, before));

  const std::uint64_t old_model = system.estimator().model_id();
  for (int i = 0; i < 3; ++i) system.estimator().observe(features, 4.0e6);
  ASSERT_NE(system.estimator().model_id(), old_model);
  const double after = *system.estimator().predict(features);
  ASSERT_FALSE(same_bits(after, before));

  const std::uint64_t second = system.submit_garli_job(features);
  EXPECT_TRUE(
      same_bits(*system.job(second)->estimated_reference_runtime, after));
}

TEST(EstimateMemo, ReplacedEstimatorRepricesAndUntrainedGivesNoEstimate) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  GarliCostModel model;
  util::Rng rng(32);
  GarliFeatures features;
  features.num_patterns = 900;

  // Untrained from the start: no estimate.
  const std::uint64_t bare = system.submit_garli_job(features);
  EXPECT_FALSE(system.job(bare)->estimated_reference_runtime.has_value());

  system.estimator() = RuntimeEstimator(small_forest());
  system.estimator().train(generate_corpus(60, model, rng));
  const double first_model = *system.estimator().predict(features);
  const std::uint64_t a = system.submit_garli_job(features);
  EXPECT_TRUE(
      same_bits(*system.job(a)->estimated_reference_runtime, first_model));

  // A fresh estimator trained on a different corpus: its first fit gets a
  // new process-unique model id, so the memo cannot serve the old value.
  system.estimator() = RuntimeEstimator(small_forest());
  system.estimator().train(generate_corpus(80, model, rng));
  const double second_model = *system.estimator().predict(features);
  ASSERT_FALSE(same_bits(second_model, first_model));
  const std::uint64_t b = system.submit_garli_job(features);
  EXPECT_TRUE(
      same_bits(*system.job(b)->estimated_reference_runtime, second_model));

  // Replaced by an untrained estimator: back to no estimate.
  system.estimator() = RuntimeEstimator(small_forest());
  const std::uint64_t c = system.submit_garli_job(features);
  EXPECT_FALSE(system.job(c)->estimated_reference_runtime.has_value());
}

// A job remembers the resource of its latest placement: after failing on
// one cluster it reports the one that took it next, and cancel reaches it
// there.
TEST(Lattice, JobResourceFollowsTheLatestPlacement) {
  LatticeSystem system(fast_config(SchedulingMode::kRoundRobin));
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 2;
  system.add_cluster("east", cluster);
  system.add_cluster("west", cluster);
  const std::uint64_t id =
      system.submit_job_with_runtime(GarliFeatures{}, 40.0 * 3600.0);
  system.run(60.0);  // one pump places it
  const grid::GridJob& job = *system.job(id);
  ASSERT_EQ(job.state, grid::JobState::kRunning);
  const std::string first(grid::resource_name(job));
  const std::string second = first == "east" ? "west" : "east";
  ASSERT_EQ(job.resource, system.resource(first));

  // An outage fails the attempt; round-robin places the retry on the other
  // cluster.
  system.resource(first)->set_outage(true);
  EXPECT_EQ(job.last_failure, grid::FailureCause::kOutage);
  system.run(120.0);
  ASSERT_EQ(job.state, grid::JobState::kRunning);
  EXPECT_EQ(grid::resource_name(job), second);
  EXPECT_EQ(job.resource, system.resource(second));
  EXPECT_EQ(job.attempts, 2);

  EXPECT_TRUE(system.cancel_job(id));
  EXPECT_EQ(job.state, grid::JobState::kCancelled);
  EXPECT_EQ(grid::resource_name(job), second);
  const grid::ResourceInfo info = system.resource(second)->info();
  EXPECT_EQ(info.free_slots, info.total_slots);
}

// Jobs with equal requirements point at one interned record; different
// requirements get another, and demotion to stable-only resources keeps
// the requirements a job was submitted with.
TEST(Lattice, JobsOfABatchShareOneRequirementsRecord) {
  LatticeConfig config;
  config.seed = 21;
  config.retry.backoff_base_seconds = 10.0;
  config.retry.demote_after_failures = 2;
  LatticeSystem system(config);
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 2;
  cluster.node_speed = 0.8;
  system.add_cluster("steady", cluster);
  grid::CondorPool::Config condor;
  condor.machines = 24;
  condor.mean_speed = 2.5;       // ranked first...
  condor.mean_idle_hours = 0.2;  // ...but owners return almost at once
  condor.mean_busy_hours = 12.0;
  system.add_condor_pool("flaky", condor);
  system.calibrate_speeds();

  grid::JobRequirements small;
  small.min_memory_gb = 0.5;
  grid::JobRequirements large;
  large.min_memory_gb = 1.0;
  std::vector<std::uint64_t> batch;
  for (int i = 0; i < 9; ++i) {
    batch.push_back(system.submit_job_with_runtime(GarliFeatures{},
                                                   2.0 * 3600.0, small, 1));
  }
  const std::uint64_t other =
      system.submit_job_with_runtime(GarliFeatures{}, 2.0 * 3600.0, large, 2);
  const grid::JobRequirements* shared = system.job(batch[0])->requirements;
  EXPECT_EQ(*shared, small);
  for (const std::uint64_t id : batch) {
    EXPECT_EQ(system.job(id)->requirements, shared) << "job " << id;
  }
  EXPECT_NE(system.job(other)->requirements, shared);
  EXPECT_EQ(*system.job(other)->requirements, large);

  system.run_until_drained(60.0 * 86400.0);
  std::size_t demoted = 0;
  system.for_each_job([&](const grid::GridJob& job) {
    EXPECT_EQ(*job.requirements, job.id == other ? large : small)
        << "job " << job.id;
    if (job.require_stable) ++demoted;
  });
  EXPECT_GT(demoted, 0u);
  EXPECT_EQ(system.metrics().completed, batch.size() + 1);
}

TEST(Lattice, JobTableRejectsIdsOutsideTheTable) {
  LatticeSystem system(fast_config(SchedulingMode::kEstimateAware));
  EXPECT_EQ(system.job(0), nullptr);
  EXPECT_EQ(system.job(1), nullptr);
  EXPECT_FALSE(system.cancel_job(1));

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(system.submit_job_with_runtime(GarliFeatures{}, 600.0));
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(system.job(0), nullptr);
  EXPECT_EQ(system.job(4), nullptr);
  EXPECT_FALSE(system.cancel_job(0));
  EXPECT_FALSE(system.cancel_job(4));
  for (const std::uint64_t id : ids) {
    ASSERT_NE(system.job(id), nullptr);
    EXPECT_EQ(system.job(id)->id, id);
  }

  // Cancelling a pending job works once; visits stay in ascending id order.
  EXPECT_TRUE(system.cancel_job(2));
  EXPECT_FALSE(system.cancel_job(2));
  std::vector<std::uint64_t> visited;
  system.for_each_job(
      [&](const grid::GridJob& job) { visited.push_back(job.id); });
  EXPECT_EQ(visited, ids);
  EXPECT_EQ(system.job(2)->state, grid::JobState::kCancelled);
}

}  // namespace
}  // namespace lattice::core
