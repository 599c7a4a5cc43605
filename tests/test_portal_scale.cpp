// Multi-tenant portal at scale: admission quotas, guest load shedding,
// fair-share queue ordering, the pump pass's per-epoch deferral memo, the
// user-population workload generator, the per-user trace columns, and
// twin-run determinism plus a golden placement digest of a 10^4-user
// portal workload, and scale invariance of batch turnaround from 10^4 to
// 10^6 users under fixed demand (DESIGN.md §15).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/estimator.hpp"
#include "core/inventory.hpp"
#include "core/lattice.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace lattice::core {
namespace {

LatticeConfig scale_config() {
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kEstimateAware;
  config.scheduler_period = 30.0;
  config.seed = 17;
  return config;
}

SubmissionRequest request_for(UserId user, UserClass user_class,
                              std::size_t replicates) {
  SubmissionRequest request;
  request.user_id = user;
  request.user_class = user_class;
  request.user_email = util::format("user{}@lattice.example", user);
  request.replicates = replicates;
  request.num_taxa = 40;
  request.num_patterns = 300;
  return request;
}

struct ScaleFixture {
  LatticeSystem system;
  Portal portal;

  explicit ScaleFixture(PortalConfig portal_config = {},
                        LatticeConfig config = scale_config())
      : system(config), portal(system, portal_config) {
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 16;
    cluster.cores_per_node = 4;
    system.add_cluster("hpc", cluster);
    system.calibrate_speeds();
  }
};

TEST(PortalAdmission, EnforcesConcurrentBatchAndReplicateQuotas) {
  PortalConfig config;
  config.quota_registered.max_concurrent_batches = 2;
  config.quota_registered.max_replicates_in_flight = 50;
  ScaleFixture fx{config};

  const auto a = fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  ASSERT_TRUE(a.accepted);
  const auto b = fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  ASSERT_TRUE(b.accepted);
  EXPECT_EQ(fx.portal.active_batches(7), 2u);
  EXPECT_EQ(fx.portal.replicates_in_flight(7), 40u);

  // Third concurrent batch: over the batch quota (and 20 more replicates
  // would also breach the in-flight cap).
  const auto c = fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  EXPECT_FALSE(c.accepted);
  ASSERT_FALSE(c.problems.empty());

  // A different user is not affected by user 7's footprint.
  const auto other =
      fx.portal.submit(request_for(8, UserClass::kRegistered, 20));
  EXPECT_TRUE(other.accepted);

  // Quota capacity returns once the batches finish.
  fx.system.run_until_drained(400.0 * 86400.0);
  EXPECT_EQ(fx.portal.active_batches(7), 0u);
  EXPECT_EQ(fx.portal.replicates_in_flight(7), 0u);
  const auto later =
      fx.portal.submit(request_for(7, UserClass::kRegistered, 20));
  EXPECT_TRUE(later.accepted);
}

TEST(PortalAdmission, ReplicateQuotaCountsInFlightSum) {
  PortalConfig config;
  config.quota_power.max_replicates_in_flight = 100;
  ScaleFixture fx{config};

  ASSERT_TRUE(
      fx.portal.submit(request_for(3, UserClass::kPower, 80)).accepted);
  const auto over = fx.portal.submit(request_for(3, UserClass::kPower, 30));
  EXPECT_FALSE(over.accepted);
  const auto fits = fx.portal.submit(request_for(3, UserClass::kPower, 20));
  EXPECT_TRUE(fits.accepted);
}

TEST(PortalAdmission, ShedsGuestsAboveBacklogWatermark) {
  PortalConfig config;
  config.shed_backlog_watermark = 10;
  ScaleFixture fx{config};
  obs::MetricsRegistry metrics;
  fx.portal.set_observability(metrics);

  // Registered traffic fills the grid-level queue past the watermark
  // (nothing has been pumped yet, so every job is backlog).
  ASSERT_TRUE(fx.portal.submit(request_for(2, UserClass::kRegistered, 30))
                  .accepted);
  ASSERT_GE(fx.system.grid_backlog(), 10u);

  // Guests are shed; registered users still get in.
  const auto guest = fx.portal.submit(request_for(9, UserClass::kGuest, 2));
  EXPECT_FALSE(guest.accepted);
  ASSERT_FALSE(guest.problems.empty());
  EXPECT_NE(guest.problems[0].find("capacity"), std::string::npos);
  EXPECT_TRUE(fx.portal.submit(request_for(2, UserClass::kRegistered, 5))
                  .accepted);
  EXPECT_EQ(metrics.counter_total("portal.shed_guest"), 1u);

  // Once the backlog drains below the watermark guests are admitted again.
  fx.system.run_until_drained(400.0 * 86400.0);
  ASSERT_LT(fx.system.grid_backlog(), 10u);
  EXPECT_TRUE(
      fx.portal.submit(request_for(9, UserClass::kGuest, 2)).accepted);
  EXPECT_EQ(metrics.counter_total("portal.admit_accepted"), 3u);
  EXPECT_EQ(metrics.counter_total("portal.shed_guest"), 1u);
}

TEST(PortalAdmission, UnknownBatchIsDistinguishableFromRejected) {
  ScaleFixture fx;
  // A rejected submission never mints a batch id...
  const auto rejected =
      fx.portal.submit(request_for(4, UserClass::kRegistered, 5000));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_FALSE(rejected.problems.empty());
  // ...so querying a bogus id is a lookup miss, not a rejection echo.
  const BatchProgress bogus = fx.portal.progress(777);
  EXPECT_FALSE(bogus.found);
  EXPECT_EQ(bogus.grid_jobs, 0u);

  const auto accepted =
      fx.portal.submit(request_for(4, UserClass::kRegistered, 5));
  ASSERT_TRUE(accepted.accepted);
  const BatchProgress known = fx.portal.progress(accepted.batch_id);
  EXPECT_TRUE(known.found);
  EXPECT_EQ(known.grid_jobs, accepted.grid_jobs);
}

TEST(FairShare, LateLightUserOvertakesFloodWhenOrderingIsOn) {
  // User 1 floods the portal at t=0; user 2 submits one small batch an
  // hour later. Under FIFO the late batch drains behind the flood; with
  // fair-share queue ordering the flooder's decayed usage pushes their
  // backlog behind the light user's jobs.
  const auto turnaround_of_late_batch = [](bool order_queue) {
    LatticeConfig config = scale_config();
    config.fair_share.order_queue = order_queue;
    config.fair_share.backlog_per_slot = 1.0;
    ScaleFixture fx{PortalConfig{}, config};
    // Hours-long gamma searches so the flood actually piles up a queue.
    phylo::GarliJob heavy;
    heavy.model.rate_het = phylo::RateHet::kGamma;
    for (int batch = 0; batch < 12; ++batch) {
      SubmissionRequest flood = request_for(1, UserClass::kPower, 40);
      flood.job = heavy;
      flood.num_taxa = 200;
      flood.num_patterns = 900;
      EXPECT_TRUE(fx.portal.submit(flood).accepted)
          << "flood batch " << batch;
    }
    std::uint64_t late_id = 0;
    fx.system.simulation().at(3600.0, [&fx, &late_id, heavy] {
      SubmissionRequest late = request_for(2, UserClass::kRegistered, 4);
      late.job = heavy;
      late.num_taxa = 200;
      late.num_patterns = 900;
      const auto receipt = fx.portal.submit(late);
      ASSERT_TRUE(receipt.accepted);
      late_id = receipt.batch_id;
    });
    fx.system.run_until_drained(400.0 * 86400.0);
    const BatchRecord* record = fx.portal.batch(late_id);
    EXPECT_NE(record, nullptr);
    if (record == nullptr) return 0.0;
    EXPECT_TRUE(record->done);
    return record->finished - record->submitted;
  };

  const double fifo = turnaround_of_late_batch(false);
  const double fair = turnaround_of_late_batch(true);
  EXPECT_LT(fair, fifo * 0.5)
      << "fair-share ordering should cut the late batch's turnaround "
      << "(fifo " << fifo / 3600.0 << " h, fair " << fair / 3600.0 << " h)";
}

TEST(UserPopulation, PartitionsIdsAndRespectsReplicateCap) {
  UserPopulationConfig config;
  config.guests = {9000, 0.01, 1.05, 1};
  config.registered = {900, 0.2, 1.3, 5};
  config.power = {100, 2.0, 1.6, 200};
  config.max_replicates = 2000;
  UserPopulation population(config);
  EXPECT_EQ(population.total_users(), 10000u);
  EXPECT_EQ(population.class_of(1), UserClass::kGuest);
  EXPECT_EQ(population.class_of(9000), UserClass::kGuest);
  EXPECT_EQ(population.class_of(9001), UserClass::kRegistered);
  EXPECT_EQ(population.class_of(9900), UserClass::kRegistered);
  EXPECT_EQ(population.class_of(9901), UserClass::kPower);

  GarliCostModel model;
  util::Rng rng(5);
  const auto trace = population.generate(400, model, rng);
  ASSERT_EQ(trace.size(), 400u);
  bool saw_capped = false;
  double last_arrival = 0.0;
  for (const WorkloadEntry& entry : trace) {
    ASSERT_GE(entry.user_id, 1u);
    ASSERT_LE(entry.user_id, 10000u);
    EXPECT_EQ(entry.user_class, population.class_of(entry.user_id));
    ASSERT_GE(entry.replicates, 1u);
    ASSERT_LE(entry.replicates, 2000u);
    if (entry.replicates == 2000u) saw_capped = true;
    EXPECT_GT(entry.arrival_seconds, last_arrival);
    last_arrival = entry.arrival_seconds;
  }
  // The heavy tail must actually reach the web cap now and then.
  EXPECT_TRUE(saw_capped);
}

TEST(UserPopulation, RejectsNonFiniteRates) {
  // An empty class priced at 600/0 batches per user-day: 0 users * inf
  // would make the aggregate rate, and every arrival time, NaN.
  UserPopulationConfig config;
  config.registered = {0, std::numeric_limits<double>::infinity(), 1.3, 4};
  EXPECT_THROW(UserPopulation{config}, std::invalid_argument);
  config.registered = {90, std::nan(""), 1.3, 4};
  EXPECT_THROW(UserPopulation{config}, std::invalid_argument);
  config.registered = {0, 0.0, 1.3, 4};
  EXPECT_NO_THROW(UserPopulation{config});
}

TEST(UserPopulation, CsvRoundTripsUserColumns) {
  UserPopulation population;
  GarliCostModel model;
  util::Rng rng(6);
  const auto trace = population.generate(60, model, rng);
  const std::string csv = workload_to_csv(trace);
  const auto parsed = workload_from_csv(csv);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].arrival_seconds, trace[i].arrival_seconds);
    EXPECT_EQ(parsed[i].user_id, trace[i].user_id);
    EXPECT_EQ(parsed[i].user_class, trace[i].user_class);
    EXPECT_EQ(parsed[i].replicates, trace[i].replicates);
    EXPECT_EQ(parsed[i].features.num_taxa, trace[i].features.num_taxa);
  }
  // Round trip is exact, so re-serializing reproduces the bytes.
  EXPECT_EQ(workload_to_csv(parsed), csv);
}

TEST(UserPopulation, ParsesPrePortalTracesWithoutUserColumns) {
  const std::string legacy =
      "arrival_seconds,num_taxa,num_patterns,data_type,rate_het_model,"
      "num_rate_categories,subst_model_params,search_reps,genthresh,"
      "has_starting_tree,true_reference_runtime\n"
      "120.5,50,400,0,1,4,1,2,200,0,3600\n";
  const auto parsed = workload_from_csv(legacy);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].user_id, 0u);
  EXPECT_EQ(parsed[0].replicates, 0u);  // plain grid-level trace row
}

// Fair-share pump fixture: one 4-slot cluster, backpressure at one queued
// job per slot, and four users whose jobs interleave by id. Each user's
// jobs share a runtime (distinct across users), which the oracle mode
// ranks with, so a user's jobs share one decision key. Users are
// pre-charged so that usage order (4, 3, 2, 1) differs from id order.
// Building the fixture runs exactly one pump pass.
struct PumpFixture {
  static constexpr std::uint64_t kUsers = 4;
  static constexpr std::uint64_t kJobsPerUser = 5;
  static constexpr std::size_t kSlots = 4;

  LatticeSystem system;
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  std::vector<std::uint64_t> ids;

  explicit PumpFixture(SchedulingMode mode) : system(config(mode)) {
    grid::BatchQueueResource::Config cluster;
    cluster.nodes = 2;
    cluster.cores_per_node = 2;
    system.add_cluster("hpc", cluster);
    system.enable_observability(metrics, tracer);
    for (UserId user = 1; user <= kUsers; ++user) {
      system.fair_share().charge(
          user, 3600.0 * static_cast<double>(kUsers + 1 - user));
    }
    GarliFeatures features;
    for (std::uint64_t j = 0; j < kJobsPerUser; ++j) {
      for (UserId user = 1; user <= kUsers; ++user) {
        ids.push_back(system.submit_job_with_runtime(
            features, 7200.0 * static_cast<double>(user), {}, 0, {}, user));
      }
    }
    // One pump: the first fires at t = scheduler_period, long before any
    // job can finish.
    system.run(system.config().scheduler_period + 1.0);
  }

  static LatticeConfig config(SchedulingMode mode) {
    LatticeConfig config;
    config.scheduler.mode = mode;
    config.fair_share.order_queue = true;
    config.fair_share.backlog_per_slot = 1.0;
    return config;
  }

  UserId user_of(std::uint64_t id) const { return system.job(id)->user_id; }
};

TEST(FairSharePump, DispatchesInUsageOrderAndDecidesOncePerDeferredKey) {
  PumpFixture fx(SchedulingMode::kOracle);
  // The pump sorts by (usage, job id) before it charges anything. The
  // pre-charges make usage fall with the user id, so the expected order is
  // user 4's jobs by id, then user 3's, and so on.
  std::vector<std::uint64_t> order = fx.ids;
  std::sort(order.begin(), order.end(), [&fx](std::uint64_t a,
                                              std::uint64_t b) {
    const UserId ua = fx.user_of(a);
    const UserId ub = fx.user_of(b);
    if (ua != ub) return ua > ub;
    return a < b;
  });

  // The cluster runs the first kSlots jobs in pump order and queues the
  // next kSlots; its backlog cap then defers the rest.
  const std::size_t dispatched = 2 * PumpFixture::kSlots;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const grid::JobState expected =
        i < PumpFixture::kSlots ? grid::JobState::kRunning
        : i < dispatched        ? grid::JobState::kQueued
                                : grid::JobState::kPending;
    EXPECT_EQ(fx.system.job(order[i])->state, expected)
        << "position " << i << " (job " << order[i] << ", user "
        << fx.user_of(order[i]) << ")";
  }
  EXPECT_EQ(fx.metrics.counter_total("sched.fair_share_charges"),
            dispatched);
  EXPECT_EQ(fx.metrics.counter_total("sched.fair_share_reorders"), 1u);

  // Dispatches happen back to back, so the only epoch with deferrals is the
  // last one, where choose() runs once per distinct key (one per user).
  std::set<UserId> deferred_users;
  for (std::size_t i = dispatched; i < order.size(); ++i) {
    deferred_users.insert(fx.user_of(order[i]));
  }
  EXPECT_EQ(fx.metrics.counter_total("sched.decisions"),
            dispatched + deferred_users.size());
  EXPECT_EQ(fx.system.pending_jobs(), order.size() - dispatched);
}

TEST(FairSharePump, RoundRobinCallsChooseForEveryJobVisit) {
  // Every round-robin choose() advances the cursor, so the pump must not
  // skip any: one decision per visited job, dispatched or deferred.
  PumpFixture fx(SchedulingMode::kRoundRobin);
  EXPECT_EQ(fx.metrics.counter_total("sched.decisions"), fx.ids.size());
  EXPECT_EQ(fx.metrics.counter_total("sched.fair_share_charges"),
            2 * PumpFixture::kSlots);
}

struct TenThousandUserRun {
  std::string workload_csv;
  std::uint64_t completed = 0;
  std::uint64_t accepted = 0;
  std::uint64_t quota_denied = 0;
  std::uint64_t shed = 0;
  double last_completion = 0.0;
  double total_turnaround = 0.0;
  /// FNV-1a over (job id, resource, finish time bits) of every completed
  /// job in id order: pins where and when each job ran.
  std::uint64_t placement_digest = 0;
};

TenThousandUserRun run_ten_thousand_user_workload() {
  UserPopulationConfig pop_config;
  pop_config.guests = {9000, 0.02, 1.2, 1};
  pop_config.registered = {900, 0.3, 1.4, 2};
  pop_config.power = {100, 1.5, 1.8, 8};
  pop_config.max_replicates = 30;
  pop_config.max_expected_hours = 8.0;

  PortalConfig portal_config;
  portal_config.quota_guest = {2, 50};
  portal_config.quota_registered = {8, 400};
  portal_config.quota_power = {16, 2000};
  portal_config.shed_backlog_watermark = 2000;
  LatticeConfig config = scale_config();
  config.scheduler_period = 300.0;
  config.fair_share.order_queue = true;
  config.fair_share.backlog_per_slot = 2.0;
  config.scheduler.fair_share_weight = 0.5;
  ScaleFixture fx{portal_config, config};
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  fx.system.enable_observability(metrics, tracer);
  fx.portal.set_observability(metrics);

  UserPopulation population(pop_config);
  GarliCostModel model;
  util::Rng rng(29);
  const auto trace = population.generate(100, model, rng);
  submit_portal_workload(fx.portal, trace);
  // Arrivals are scheduled events: run past the last arrival so every
  // submission fires, then drain what was admitted.
  fx.system.run(trace.back().arrival_seconds + 1.0);
  fx.system.run_until_drained(600.0 * 86400.0);

  TenThousandUserRun result;
  result.workload_csv = workload_to_csv(trace);
  result.completed = fx.system.metrics().completed;
  result.accepted = metrics.counter_total("portal.admit_accepted");
  result.quota_denied = metrics.counter_total("portal.admit_quota_denied");
  result.shed = metrics.counter_total("portal.shed_guest");
  result.last_completion = fx.system.metrics().last_completion;
  result.total_turnaround = fx.system.metrics().total_turnaround_seconds;
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  fx.system.for_each_job([&mix](const grid::GridJob& job) {
    if (job.state != grid::JobState::kCompleted) return;
    mix(&job.id, sizeof job.id);
    const std::string_view resource = grid::resource_name(job);
    mix(resource.data(), resource.size());
    mix(&job.finish_time, sizeof job.finish_time);
  });
  result.placement_digest = hash;
  return result;
}

TEST(PortalScale, TenThousandUserWorkloadMatchesGoldenPlacementDigest) {
  // Frozen from the pump that stable-sorted the pending queue and called
  // choose() for every pending job: the decorated sort, the per-epoch
  // deferral memo and the cached backpressure test must not move any job.
  const TenThousandUserRun run = run_ten_thousand_user_workload();
  EXPECT_EQ(run.placement_digest, 0x5129e871510ebf42ull)
      << std::hex << "digest 0x" << run.placement_digest;
}

TEST(PortalScale, TwinRunsOfATenThousandUserWorkloadAreBitIdentical) {
  const TenThousandUserRun first = run_ten_thousand_user_workload();
  const TenThousandUserRun second = run_ten_thousand_user_workload();
  EXPECT_EQ(first.workload_csv, second.workload_csv);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.quota_denied, second.quota_denied);
  EXPECT_EQ(first.shed, second.shed);
  EXPECT_EQ(first.last_completion, second.last_completion);
  EXPECT_EQ(first.total_turnaround, second.total_turnaround);
  EXPECT_EQ(first.placement_digest, second.placement_digest);
  EXPECT_GT(first.completed, 0u);
  EXPECT_GT(first.accepted, 0u);
}

/// p99 batch turnaround, in simulated hours, of one fixed aggregate demand
/// spread across `users` portal users (90/9/1% guest/registered/power):
/// 1500 batches at ~600 a day with 30/50/20% class shares and heavy-tailed
/// sizes, on the paper inventory with a 5000-host volunteer pool. Per-user
/// rates scale inversely with the population, so a larger population adds
/// ledger entries (quota map, fair-share odometers), not work.
double p99_batch_turnaround_h(std::size_t users) {
  LatticeConfig config;
  config.scheduler.mode = SchedulingMode::kEstimateAware;
  config.seed = 9;
  config.scheduler_period = 300.0;
  config.scheduler.fair_share_weight = 0.5;
  config.fair_share.order_queue = true;
  config.fair_share.backlog_per_slot = 4.0;
  LatticeSystem system(config);
  InventoryOptions inventory;
  inventory.boinc_hosts = 5000;
  build_inventory(system, inventory);
  system.calibrate_speeds();
  RuntimeEstimator::Config estimator;
  estimator.forest.n_trees = 300;
  estimator.retrain_every = 0;
  system.estimator() = RuntimeEstimator(estimator);
  util::Rng corpus_rng(4242);
  system.estimator().train(
      generate_corpus(150, system.cost_model(), corpus_rng));

  PortalConfig portal_config;
  portal_config.quota_guest = {2, 100};
  portal_config.quota_registered = {10, 2000};
  portal_config.quota_power = {30, 10000};
  portal_config.shed_backlog_watermark = 50000;
  Portal portal(system, portal_config);

  UserPopulationConfig pop;
  pop.guests = {users * 90 / 100, 0.0, 1.4, 1};
  pop.registered = {users * 9 / 100, 0.0, 1.3, 4};
  pop.power = {users - pop.guests.users - pop.registered.users, 0.0, 1.8,
               50};
  for (auto [mix, share] : {std::pair{&pop.guests, 0.30},
                            std::pair{&pop.registered, 0.50},
                            std::pair{&pop.power, 0.20}}) {
    mix->batches_per_user_day =
        share * 600.0 / static_cast<double>(mix->users);
  }
  pop.max_replicates = PortalConfig::kMaxReplicates;
  pop.max_expected_hours = 4.0;
  util::Rng rng(41);
  const auto trace = UserPopulation(pop).generate(
      1500, GarliCostModel(config.cost_params), rng);
  submit_portal_workload(portal, trace);
  system.run(trace.back().arrival_seconds + 1.0);
  system.run_until_drained(400.0 * 86400.0);

  std::vector<double> turnaround_h;
  for (const auto& [id, record] : portal.batches()) {
    if (record.done) {
      turnaround_h.push_back((record.finished - record.submitted) / 3600.0);
    }
  }
  return turnaround_h.empty() ? 0.0 : util::quantile(turnaround_h, 0.99);
}

TEST(PortalScale, MillionUserP99TurnaroundStaysWithinThreeTimesTenThousand) {
  // Same demand, 100x the users: the portal layer must stay scale-
  // invariant. Both figures are simulated time, so the bound is exact.
  const double small = p99_batch_turnaround_h(10000);
  const double large = p99_batch_turnaround_h(1000000);
  ASSERT_GT(small, 0.0) << "no batch completed at 10^4 users";
  EXPECT_LE(large, 3.0 * small)
      << "p99 batch turnaround " << small << " h at 10^4 users, " << large
      << " h at 10^6 users";
}

}  // namespace
}  // namespace lattice::core
