// Cross-module integration tests: the full portal -> meta-scheduler ->
// resources pipeline, form-driven submission through the app description,
// cancellation paths, online estimator improvement inside a running grid,
// and the BOINC deadline integration.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/appspec.hpp"
#include "core/audit.hpp"
#include "core/cost_model.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phylo/garli.hpp"
#include "phylo/simulate.hpp"
#include "util/stats.hpp"

namespace lattice::core {
namespace {

LatticeConfig quick_config() {
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kEstimateAware;
  config.scheduler_period = 30.0;
  config.seed = 99;
  return config;
}

void train(LatticeSystem& system, std::size_t corpus = 120) {
  RuntimeEstimator::Config est;
  est.forest.n_trees = 60;
  est.retrain_every = 0;
  system.estimator() = RuntimeEstimator(est);
  util::Rng rng(3);
  system.estimator().train(generate_corpus(corpus, system.cost_model(), rng));
}

TEST(Integration, FormToFinishedBatch) {
  // The Figure-1 flow: web form values -> validated config -> GarliJob ->
  // portal batch -> grid execution -> results manifest.
  const AppDescription& app = garli_app_description();
  const std::map<std::string, std::string> form{
      {"datatype", "nucleotide"},   {"ratematrix", "hky85"},
      {"ratehetmodel", "gamma"},    {"numratecats", "4"},
      {"searchreps", "1"},          {"genthreshfortopoterm", "250"},
      {"sequencefile", "data.fas"}, {"email", "user@example.org"}};
  ASSERT_TRUE(app.validate(form).empty());
  const phylo::GarliJob job =
      phylo::GarliJob::from_config(app.to_config(form).to_string());

  LatticeSystem system(quick_config());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 16;
  cluster.cores_per_node = 4;
  system.add_cluster("hpc", cluster);
  system.calibrate_speeds();
  train(system);

  Portal portal(system);
  SubmissionRequest request;
  request.user_id = user_id_from_email(form.at("email"));
  request.user_class = UserClass::kRegistered;
  request.user_email = form.at("email");
  request.job = job;
  request.replicates = 40;
  request.num_taxa = 60;
  request.num_patterns = 400;
  const auto outcome = portal.submit(request);
  ASSERT_TRUE(outcome.accepted);
  system.run_until_drained(120.0 * 86400.0);

  const BatchRecord* record = portal.batch(outcome.batch_id);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(record->done);
  EXPECT_EQ(record->completed_jobs, record->grid_jobs);
  EXPECT_EQ(record->notifications.back().kind, "completed");
  EXPECT_EQ(record->result_manifest.size(), record->grid_jobs);
  for (const std::string& entry : record->result_manifest) {
    EXPECT_NE(entry.find("best_tree"), std::string::npos);
  }
}

TEST(Integration, AuditBalancesADrainedRunAndCatchesBrokenLedgers) {
  LatticeSystem system(quick_config());
  obs::MetricsRegistry metrics;
  system.enable_observability(metrics, obs::Tracer::null());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  system.add_cluster("hpc", cluster);
  system.calibrate_speeds();
  train(system);
  Portal portal(system);
  portal.set_observability(metrics);
  WorkloadEntry batch;
  batch.user_id = 7;
  batch.replicates = 6;
  submit_portal_workload(portal, {batch});
  ASSERT_TRUE(system.cancel_job(system.submit_garli_job(GarliFeatures{})));
  system.run(1.0);
  system.run_until_drained(30.0 * 86400.0);
  ASSERT_EQ(portal.batches().size(), 1u);

  EXPECT_EQ(audit(system, metrics, &portal, 1), std::vector<std::string>{});
  // A submission the admission ledger never saw.
  EXPECT_EQ(audit(system, metrics, &portal, 2).size(), 1u);
  // A completion the counters missed breaks conservation and disagrees
  // with the job states.
  --system.metrics().completed;
  EXPECT_EQ(audit(system, metrics, &portal, 1).size(), 2u);
}

TEST(Integration, AuditReportsOpenBoincWorkunitsUntilTheRunDrains) {
  LatticeSystem system(quick_config());
  obs::MetricsRegistry metrics;
  system.enable_observability(metrics, obs::Tracer::null());
  boinc::BoincPoolConfig pool;
  pool.hosts = 30;
  pool.seed = 5;
  system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();
  train(system);
  for (int i = 0; i < 4; ++i) system.submit_garli_job(GarliFeatures{});
  system.run(600.0);  // placed and sent, far from finished
  ASSERT_FALSE(system.pool("boinc")->workunits().empty());

  bool open_reported = false;
  for (const std::string& failure : audit(system, metrics)) {
    if (failure.starts_with("boinc: boinc left")) open_reported = true;
  }
  EXPECT_TRUE(open_reported);

  system.run_until_drained(120.0 * 86400.0);
  EXPECT_EQ(audit(system, metrics), std::vector<std::string>{});
}

TEST(Integration, CancelPendingJob) {
  LatticeSystem system(quick_config());
  // No resources: jobs stay pending.
  GarliFeatures f;
  const std::uint64_t id = system.submit_garli_job(f);
  EXPECT_EQ(system.pending_jobs(), 1u);
  EXPECT_TRUE(system.cancel_job(id));
  EXPECT_EQ(system.pending_jobs(), 0u);
  EXPECT_EQ(system.job(id)->state, grid::JobState::kCancelled);
  EXPECT_FALSE(system.cancel_job(id));  // already terminal
  EXPECT_FALSE(system.cancel_job(424242));  // unknown
}

TEST(Integration, CancelRunningJobOnCluster) {
  LatticeSystem system(quick_config());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 1;
  cluster.cores_per_node = 1;
  system.add_cluster("hpc", cluster);
  system.calibrate_speeds();
  GarliFeatures f;
  const std::uint64_t id = system.submit_job_with_runtime(f, 100.0 * 3600.0);
  system.run(3600.0);  // pump places it; it starts running
  ASSERT_EQ(system.job(id)->state, grid::JobState::kRunning);
  EXPECT_TRUE(system.cancel_job(id));
  EXPECT_EQ(system.job(id)->state, grid::JobState::kCancelled);
  // The slot is free again for future work.
  EXPECT_EQ(system.resource("hpc")->info().free_slots, 1u);
}

TEST(Integration, CancelBatchStopsRemainingWork) {
  LatticeSystem system(quick_config());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 2;
  cluster.cores_per_node = 1;
  system.add_cluster("hpc", cluster);
  system.calibrate_speeds();
  train(system);

  Portal portal(system);
  phylo::GarliJob job;
  job.model.rate_het = phylo::RateHet::kGamma;
  SubmissionRequest request;
  request.user_id = user_id_from_email("user@example.org");
  request.user_class = UserClass::kRegistered;
  request.user_email = "user@example.org";
  request.job = job;
  request.replicates = 10;
  request.num_taxa = 80;
  request.num_patterns = 600;
  const auto outcome = portal.submit(request);
  ASSERT_TRUE(outcome.accepted);
  system.run(2.0 * 3600.0);
  const std::size_t cancelled = portal.cancel_batch(outcome.batch_id);
  EXPECT_GT(cancelled, 0u);
  system.run_until_drained(60.0 * 86400.0);
  const BatchRecord* record = portal.batch(outcome.batch_id);
  EXPECT_TRUE(record->done);
  EXPECT_EQ(record->completed_jobs + record->failed_jobs,
            record->grid_jobs);
  bool saw_cancel_note = false;
  for (const auto& note : record->notifications) {
    if (note.kind == "cancelled") saw_cancel_note = true;
  }
  EXPECT_TRUE(saw_cancel_note);
  EXPECT_EQ(portal.cancel_batch(outcome.batch_id), 0u);  // already done
}

TEST(Integration, OnlineObservationsImproveColdStartEstimator) {
  // Start the grid with NO trained model: early jobs get no estimates
  // (load-only routing); completions stream observations in; after enough
  // history the estimator comes online and predicts well.
  LatticeSystem system(quick_config());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 32;
  cluster.cores_per_node = 4;
  system.add_cluster("hpc", cluster);
  system.calibrate_speeds();
  RuntimeEstimator::Config est;
  est.forest.n_trees = 60;
  est.retrain_every = 20;
  system.estimator() = RuntimeEstimator(est);
  ASSERT_FALSE(system.estimator().trained());

  util::Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    GarliFeatures f = random_features(rng);
    system.submit_garli_job(f);
  }
  system.run_until_drained(200.0 * 86400.0);
  EXPECT_EQ(system.metrics().completed, 60u);
  EXPECT_TRUE(system.estimator().trained());
  EXPECT_GE(system.estimator().corpus_size(), 60u);

  // Predictions should now be in the right ballpark (within ~3x median).
  const GarliCostModel& model = system.cost_model();
  std::vector<double> log_errors;
  for (int i = 0; i < 30; ++i) {
    const GarliFeatures f = random_features(rng);
    const auto predicted = system.estimator().predict(f);
    ASSERT_TRUE(predicted.has_value());
    log_errors.push_back(
        std::abs(std::log(*predicted / model.expected_runtime(f))));
  }
  EXPECT_LT(util::median(log_errors), std::log(3.0));
}

TEST(Integration, BoincDeadlinesComeFromEstimates) {
  LatticeSystem system(quick_config());
  boinc::BoincPoolConfig pool;
  pool.hosts = 50;
  pool.mean_on_hours = 10000.0;
  pool.mean_off_hours = 0.001;
  pool.mean_lifetime_days = 1e6;
  pool.seed = 5;
  boinc::BoincServer& server = system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();
  train(system);

  GarliFeatures f;
  f.num_taxa = 60;
  f.num_patterns = 500;
  const std::uint64_t id = system.submit_garli_job(f);
  system.run(120.0);  // one pump
  ASSERT_EQ(server.workunits().size(), 1u);
  const boinc::Workunit& wu = server.workunits().begin()->second;
  const grid::GridJob* job = system.job(id);
  ASSERT_TRUE(job->estimated_reference_runtime.has_value());
  const double expected = system.config().deadline.deadline_seconds(
      *job->estimated_reference_runtime);
  EXPECT_DOUBLE_EQ(wu.delay_bound, expected);
  EXPECT_NE(wu.delay_bound, server.config().default_delay_bound);
  system.run_until_drained(60.0 * 86400.0);
}

TEST(Integration, MdsOutageStopsPlacementThenRecovers) {
  LatticeSystem system(quick_config());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 2;
  system.add_cluster("hpc", cluster);
  system.calibrate_speeds();
  train(system);

  // Knock the resource "offline" by backdating its MDS entry: queue a job
  // after the TTL has expired with no fresh report. Providers report every
  // mds_report_period, so instead verify the offline logic directly: a
  // resource that stops reporting is skipped by the scheduler.
  grid::ResourceInfo ghost;
  ghost.name = "ghost";
  ghost.kind = grid::ResourceKind::kPbsCluster;
  ghost.total_slots = 1000;
  ghost.free_slots = 1000;
  ghost.node_memory_gb = 999.0;
  ghost.platforms = {grid::PlatformSpec{}};
  ghost.stable = true;
  system.mds().report(ghost);  // reported once, then silence

  // After the TTL the ghost is gone and jobs land on the live cluster.
  system.simulation().at(system.config().mds_ttl + 1.0, [] {});
  system.simulation().run(system.config().mds_ttl + 1.0);
  GarliFeatures f;
  const std::uint64_t id = system.submit_garli_job(f);
  system.run_until_drained(90.0 * 86400.0);
  EXPECT_EQ(system.job(id)->resource, "hpc");
  EXPECT_EQ(system.metrics().completed, 1u);
}

TEST(Integration, MixedInventoryBatchWithChurnFinishes) {
  // The everything-at-once test: clusters + condor + boinc, preemptions,
  // deadline reissues, rescheduling, portal bookkeeping.
  LatticeSystem system(quick_config());
  grid::BatchQueueResource::Config cluster;
  cluster.nodes = 4;
  cluster.cores_per_node = 4;
  system.add_cluster("hpc", cluster);
  grid::CondorPool::Config condor;
  condor.machines = 25;
  condor.mean_idle_hours = 4.0;
  condor.mean_busy_hours = 4.0;
  condor.seed = 7;
  system.add_condor_pool("condor", condor);
  boinc::BoincPoolConfig pool;
  pool.hosts = 40;
  pool.seed = 11;
  system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();
  train(system);

  Portal portal(system);
  phylo::GarliJob job;
  SubmissionRequest request;
  request.user_id = user_id_from_email("user@example.org");
  request.user_class = UserClass::kGuest;
  request.user_email = "user@example.org";
  request.job = job;
  request.replicates = 60;
  request.num_taxa = 50;
  request.num_patterns = 350;
  const auto outcome = portal.submit(request);
  ASSERT_TRUE(outcome.accepted);
  system.run_until_drained(300.0 * 86400.0);
  const BatchRecord* record = portal.batch(outcome.batch_id);
  EXPECT_TRUE(record->done);
  EXPECT_GT(record->completed_jobs, record->grid_jobs * 8 / 10);
}

}  // namespace
}  // namespace lattice::core
