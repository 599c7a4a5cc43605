// Tests for the service-grid substrate: platforms, RSL parsing, batch
// queue and Condor pool LRM behaviour, MDS TTL/offline semantics, and
// submit-descriptor rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <tuple>
#include <vector>

#include "grid/adapter.hpp"
#include "grid/classad.hpp"
#include "grid/job.hpp"
#include "grid/mds.hpp"
#include "grid/resource.hpp"
#include "grid/rsl.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace lattice::grid {
namespace {

GridJob make_job(std::uint64_t id, double runtime) {
  GridJob job;
  job.id = id;
  job.true_reference_runtime = runtime;
  return job;
}

TEST(Platform, NameRoundTrip) {
  for (OsType os : {OsType::kLinux, OsType::kWindows, OsType::kMacOS}) {
    for (Arch arch : {Arch::kX86, Arch::kX86_64, Arch::kPowerPC}) {
      const PlatformSpec spec{os, arch};
      const auto parsed = parse_platform(platform_name(spec));
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(*parsed, spec);
    }
  }
}

TEST(Platform, ParseRejectsGarbage) {
  EXPECT_FALSE(parse_platform("plan9-mips").has_value());
  EXPECT_FALSE(parse_platform("linux").has_value());
  EXPECT_FALSE(parse_platform("").has_value());
}

TEST(Rsl, ParsesFullDocument) {
  const RslDocument doc = parse_rsl(
      "&(executable=\"garli\")(platform=linux-x86_64)(platform=macos-x86)"
      "(memory>=2.5)(mpi=yes)(software=java)(runtime_estimate=3600)");
  EXPECT_EQ(doc.executable, "garli");
  ASSERT_EQ(doc.requirements.platforms.size(), 2u);
  EXPECT_DOUBLE_EQ(doc.requirements.min_memory_gb, 2.5);
  EXPECT_TRUE(doc.requirements.needs_mpi);
  ASSERT_EQ(doc.requirements.software.size(), 1u);
  EXPECT_EQ(doc.requirements.software[0], "java");
  EXPECT_DOUBLE_EQ(doc.runtime_estimate, 3600.0);
}

TEST(Rsl, WhitespaceTolerant) {
  const RslDocument doc =
      parse_rsl("  &  ( executable = garli )\n  ( memory >= 1 ) ");
  EXPECT_EQ(doc.executable, "garli");
  EXPECT_DOUBLE_EQ(doc.requirements.min_memory_gb, 1.0);
}

TEST(Rsl, Errors) {
  EXPECT_THROW(parse_rsl("(executable=garli)"), std::runtime_error);
  EXPECT_THROW(parse_rsl("&(bogus=1)"), std::runtime_error);
  EXPECT_THROW(parse_rsl("&(memory=2)"), std::runtime_error);
  EXPECT_THROW(parse_rsl("&(platform=plan9-mips)"), std::runtime_error);
  EXPECT_THROW(parse_rsl("&(executable=garli"), std::runtime_error);
  EXPECT_THROW(parse_rsl("&(memory>=abc)"), std::runtime_error);
}

TEST(Rsl, GenerateRoundTrip) {
  GridJob job = make_job(7, 100.0);
  JobRequirements requirements;
  requirements.platforms = {PlatformSpec{OsType::kLinux, Arch::kX86_64}};
  requirements.min_memory_gb = 4.0;
  requirements.needs_mpi = true;
  requirements.software = {"java"};
  job.requirements = &requirements;
  job.estimated_reference_runtime = 1234.5;
  const RslDocument doc = parse_rsl(to_rsl(job));
  EXPECT_EQ(doc.executable, "garli");
  EXPECT_EQ(doc.requirements.platforms.size(), 1u);
  EXPECT_DOUBLE_EQ(doc.requirements.min_memory_gb, 4.0);
  EXPECT_TRUE(doc.requirements.needs_mpi);
  EXPECT_NEAR(doc.runtime_estimate, 1234.5, 0.01);
}

// ---------------------------------------------------------------------------
// BatchQueueResource

TEST(BatchQueue, RunsJobsToCompletion) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 2;
  config.node_speed = 2.0;
  config.job_overhead_seconds = 0.0;
  BatchQueueResource cluster(sim, "hpc", config);

  int completed = 0;
  cluster.set_completion_callback(
      [&](GridJob& job, const JobOutcome& outcome) {
        EXPECT_TRUE(outcome.completed());
        EXPECT_EQ(job.state, JobState::kCompleted);
        ++completed;
      });

  auto a = make_job(1, 100.0);
  auto b = make_job(2, 200.0);
  cluster.submit(a);
  cluster.submit(b);
  sim.run();
  EXPECT_EQ(completed, 2);
  // Speed 2.0: the 100s job takes 50s of wall time.
  EXPECT_DOUBLE_EQ(a.finish_time, 50.0);
  EXPECT_DOUBLE_EQ(b.finish_time, 100.0);
}

TEST(BatchQueue, QueueWaitsForFreeSlot) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 1;
  config.node_speed = 1.0;
  config.job_overhead_seconds = 0.0;
  BatchQueueResource cluster(sim, "hpc", config);
  cluster.set_completion_callback([](GridJob&, const JobOutcome&) {});

  auto a = make_job(1, 100.0);
  auto b = make_job(2, 50.0);
  cluster.submit(a);
  cluster.submit(b);
  EXPECT_EQ(cluster.info().free_slots, 0u);
  EXPECT_EQ(cluster.info().queued_jobs, 1u);
  sim.run();
  EXPECT_DOUBLE_EQ(a.finish_time, 100.0);
  EXPECT_DOUBLE_EQ(b.finish_time, 150.0);  // FIFO behind a
}

TEST(BatchQueue, DataStagingAddsTransferTime) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 1;
  config.node_speed = 1.0;
  config.job_overhead_seconds = 10.0;
  BatchQueueResource cluster(sim, "hpc", config);
  cluster.set_completion_callback([](GridJob&, const JobOutcome&) {});
  auto job = make_job(1, 100.0);
  job.input_mb = 400.0;   // 8 s at 50 MB/s
  job.output_mb = 100.0;  // 2 s
  cluster.submit(job);
  sim.run();
  EXPECT_DOUBLE_EQ(job.finish_time, 100.0 + 10.0 + 8.0 + 2.0);
}

TEST(BatchQueue, WalltimeKillsLongJobs) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 1;
  config.max_walltime = 60.0;
  BatchQueueResource cluster(sim, "hpc", config);

  bool failed = false;
  cluster.set_completion_callback(
      [&](GridJob& job, const JobOutcome& outcome) {
        failed = !outcome.completed() && outcome.reason == "walltime";
        EXPECT_EQ(job.state, JobState::kFailed);
      });
  auto job = make_job(1, 1000.0);
  cluster.submit(job);
  sim.run();
  EXPECT_TRUE(failed);
  EXPECT_DOUBLE_EQ(job.wasted_cpu_seconds, 60.0);
}

TEST(BatchQueue, CancelQueuedAndRunning) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 1;
  BatchQueueResource cluster(sim, "hpc", config);
  std::vector<std::string> reasons;
  cluster.set_completion_callback(
      [&](GridJob&, const JobOutcome& outcome) {
        reasons.push_back(outcome.reason);
      });

  auto a = make_job(1, 100.0);
  auto b = make_job(2, 100.0);
  cluster.submit(a);
  cluster.submit(b);
  cluster.cancel(2);  // queued
  EXPECT_EQ(b.state, JobState::kCancelled);
  sim.after(10.0, [&] { cluster.cancel(1); });  // running
  sim.run();
  EXPECT_EQ(a.state, JobState::kCancelled);
  ASSERT_EQ(reasons.size(), 2u);
  EXPECT_EQ(reasons[0], "cancelled");
  EXPECT_EQ(reasons[1], "cancelled");
  EXPECT_DOUBLE_EQ(a.wasted_cpu_seconds, 10.0);
}

// The LRM outage protocol, which the cluster and the Condor pool share.
// Two slots: jobs 1 and 2 start at t=0 and jobs 3..5 queue; cancelling
// job 1 at t=10 starts job 3 in its slot. The outage at t=100 fails the
// queued jobs 4 and 5 first with no CPU, then the running attempts in the
// resource's own order (`running_order`), their CPU wasted. Job 4's
// resubmission from inside its callback bounces at once, and so does a
// fresh submission; once the outage ends, submitted work runs again.
void expect_outage_protocol(sim::Simulation& sim, LocalResource& lrm,
                            const std::vector<std::uint64_t>& running_order) {
  obs::MetricsRegistry metrics;
  lrm.set_observability(metrics, obs::Tracer::null());
  std::vector<GridJob> jobs;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    jobs.push_back(make_job(id, 1000.0));
  }
  using Ended = std::tuple<std::uint64_t, FailureCause, double>;
  std::vector<Ended> ended;
  bool resubmitted = false;
  lrm.set_completion_callback([&](GridJob& job, const JobOutcome& outcome) {
    ended.emplace_back(job.id, outcome.cause, outcome.cpu_seconds);
    if (outcome.cause == FailureCause::kOutage && !resubmitted) {
      resubmitted = true;
      lrm.submit(job);
    }
  });
  for (std::size_t i = 0; i < 5; ++i) lrm.submit(jobs[i]);
  sim.after(10.0, [&] { lrm.cancel(1); });
  sim.after(100.0, [&] { lrm.set_outage(true); });
  sim.run(200.0);

  const double cpu[] = {0.0, 10.0, 100.0, 90.0};  // by job id
  const std::vector<Ended> expected = {
      {1, FailureCause::kCancelled, 10.0},
      {4, FailureCause::kOutage, 0.0},
      {4, FailureCause::kOutage, 0.0},  // the resubmission bounced
      {5, FailureCause::kOutage, 0.0},
      {running_order[0], FailureCause::kOutage, cpu[running_order[0]]},
      {running_order[1], FailureCause::kOutage, cpu[running_order[1]]},
  };
  EXPECT_EQ(ended, expected);
  EXPECT_EQ(metrics.counter_total("grid.outage_kills"), 5u);
  EXPECT_EQ(metrics.counter_total("grid.attempts_cancelled"), 1u);
  for (std::size_t i = 0; i < 5; ++i) {
    const double wasted = i < 3 ? cpu[i + 1] : 0.0;
    EXPECT_DOUBLE_EQ(jobs[i].wasted_cpu_seconds, wasted) << "job " << i + 1;
  }
  EXPECT_EQ(lrm.info().queued_jobs, 0u);
  EXPECT_EQ(lrm.info().free_slots, 2u);

  // The killed attempts' completions were cancelled.
  sim.run(20000.0);
  EXPECT_EQ(ended.size(), expected.size());

  lrm.submit(jobs[5]);
  EXPECT_EQ(ended.back(), (Ended{6, FailureCause::kOutage, 0.0}));
  EXPECT_EQ(jobs[5].state, JobState::kFailed);
  EXPECT_EQ(jobs[5].resource, &lrm);
  EXPECT_EQ(metrics.counter_total("grid.outage_kills"), 6u);

  lrm.set_outage(false);
  for (std::size_t i = 3; i < 6; ++i) lrm.submit(jobs[i]);
  sim.run(40000.0);
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(jobs[i].state, JobState::kCompleted) << "job " << i + 1;
  }
  EXPECT_EQ(metrics.counter_total("grid.attempts_completed"), 3u);
}

// Cancelling most of a long local queue, which the cluster and the Condor
// pool share. One slot runs job 1 while jobs 2..2000 queue. Cancelling the
// odd queued jobs, then every fourth, cancels exactly those and keeps the
// queued count exact; the survivors then run in submission order.
void expect_batch_cancel(sim::Simulation& sim, LocalResource& lrm) {
  constexpr std::uint64_t kJobs = 2000;
  std::deque<GridJob> jobs;  // stable addresses
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    jobs.push_back(make_job(id, 10.0));
  }
  std::vector<std::uint64_t> completed;
  std::size_t cancelled = 0;
  lrm.set_completion_callback([&](GridJob& job, const JobOutcome& outcome) {
    if (outcome.completed()) completed.push_back(job.id);
    if (outcome.cause == FailureCause::kCancelled) ++cancelled;
  });
  for (GridJob& job : jobs) lrm.submit(job);
  ASSERT_EQ(jobs[0].state, JobState::kRunning);
  ASSERT_EQ(lrm.info().queued_jobs, kJobs - 1);

  for (GridJob& job : jobs) {
    if (job.id > 1 && job.id % 2 == 1) lrm.cancel(job.id);
  }
  EXPECT_EQ(cancelled, 999u);
  EXPECT_EQ(lrm.info().queued_jobs, 1000u);
  for (GridJob& job : jobs) {
    if (job.id % 4 == 0) lrm.cancel(job.id);
  }
  EXPECT_EQ(cancelled, 1499u);
  EXPECT_EQ(lrm.info().queued_jobs, 500u);
  lrm.cancel(3);  // already cancelled: a no-op
  EXPECT_EQ(cancelled, 1499u);
  EXPECT_EQ(jobs[0].state, JobState::kRunning);

  sim.run(1e6);
  std::vector<std::uint64_t> expected = {1};
  for (std::uint64_t id = 2; id <= kJobs; id += 4) expected.push_back(id);
  EXPECT_EQ(completed, expected);
  EXPECT_EQ(lrm.info().queued_jobs, 0u);
}

TEST(BatchQueue, CancelLargeQueuedBatchKeepsSurvivorOrder) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 1;
  BatchQueueResource cluster(sim, "hpc", config);
  expect_batch_cancel(sim, cluster);
}

TEST(BatchQueue, OutageFailsQueuedThenRunningInStartOrder) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 1;
  config.cores_per_node = 2;
  config.job_overhead_seconds = 0.0;
  BatchQueueResource cluster(sim, "hpc", config);
  expect_outage_protocol(sim, cluster, {2, 3});
}

TEST(BatchQueue, InfoReflectsConfig) {
  sim::Simulation sim;
  BatchQueueResource::Config config;
  config.nodes = 4;
  config.cores_per_node = 8;
  config.node_memory_gb = 64.0;
  config.mpi_capable = true;
  config.kind = ResourceKind::kSgeCluster;
  config.software = {"java"};
  BatchQueueResource cluster(sim, "sge1", config);
  const ResourceInfo info = cluster.info();
  EXPECT_EQ(info.total_slots, 32u);
  EXPECT_EQ(info.free_slots, 32u);
  EXPECT_EQ(info.kind, ResourceKind::kSgeCluster);
  EXPECT_TRUE(info.stable);
  EXPECT_TRUE(info.mpi_capable);
  EXPECT_DOUBLE_EQ(info.node_memory_gb, 64.0);
}

// ---------------------------------------------------------------------------
// CondorPool

TEST(Condor, CompletesShortJobs) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 10;
  config.mean_idle_hours = 1000.0;  // owners effectively never return
  config.mean_busy_hours = 0.001;
  config.seed = 3;
  CondorPool pool(sim, "condor", config);
  int completed = 0;
  pool.set_completion_callback(
      [&](GridJob&, const JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  std::vector<GridJob> jobs;
  jobs.reserve(10);
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 600.0));
  }
  for (auto& job : jobs) pool.submit(job);
  sim.run(72.0 * 3600.0);
  EXPECT_EQ(completed, 10);
}

TEST(Condor, PreemptsWhenOwnerReturns) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 4;
  config.mean_idle_hours = 0.5;  // owners come back quickly
  config.mean_busy_hours = 0.5;
  config.seed = 11;
  CondorPool pool(sim, "condor", config);
  int preemptions = 0;
  int completions = 0;
  pool.set_completion_callback(
      [&](GridJob& job, const JobOutcome& outcome) {
        if (outcome.completed()) {
          ++completions;
        } else if (outcome.reason == "preempted") {
          ++preemptions;
          EXPECT_GT(job.wasted_cpu_seconds, 0.0);
          // Requeue to keep pressure on the pool.
          if (job.attempts < 50) pool.submit(job);
        }
      });
  // Jobs of ~2h against ~30min idle windows: preemption is near certain.
  std::vector<GridJob> jobs;
  jobs.reserve(4);
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 7200.0));
  }
  for (auto& job : jobs) pool.submit(job);
  sim.run(400.0 * 3600.0);
  EXPECT_GT(preemptions, 0);
}

TEST(Condor, OutageFailsQueuedThenRunningInMachineOrder) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 2;
  config.speed_sigma = 0.0;
  config.mean_idle_hours = 1e6;  // owners effectively never return
  config.mean_busy_hours = 1e-6;
  CondorPool pool(sim, "condor", config);
  ASSERT_FALSE(pool.owner_busy(0) || pool.owner_busy(1));
  // Job 3 takes machine 0 after job 1's cancel, ahead of job 2's machine 1.
  expect_outage_protocol(sim, pool, {3, 2});
}

TEST(Condor, CancelLargeQueuedBatchKeepsSurvivorOrder) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 1;
  config.mean_idle_hours = 1e6;  // the owner effectively never returns
  config.mean_busy_hours = 1e-6;
  CondorPool pool(sim, "condor", config);
  ASSERT_FALSE(pool.owner_busy(0));
  expect_batch_cancel(sim, pool);
}

TEST(Condor, InfoCountsIdleMachines) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 20;
  config.seed = 5;
  CondorPool pool(sim, "condor", config);
  const ResourceInfo info = pool.info();
  EXPECT_EQ(info.total_slots, 20u);
  EXPECT_LE(info.free_slots, 20u);
  EXPECT_FALSE(info.stable);
  EXPECT_FALSE(info.mpi_capable);
}

TEST(Condor, MachineSpeedsAreHeterogeneous) {
  sim::Simulation sim;
  CondorPool::Config config;
  config.machines = 100;
  config.mean_speed = 1.0;
  config.speed_sigma = 0.4;
  config.seed = 7;
  CondorPool pool(sim, "condor", config);
  const auto speeds = pool.machine_speeds();
  double lo = speeds[0];
  double hi = speeds[0];
  for (double s : speeds) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  EXPECT_LT(lo, 0.8);
  EXPECT_GT(hi, 1.2);
}

// Every matchmaking pass is held to a full-scan first-fit reference: each
// queued job, in FIFO order, takes the first machine (in machine order)
// that was idle when the pass began and that its requirements accept. The
// pass's idle machines are the ones idle now plus the ones it just filled.
TEST(Condor, MatchmakingIsFirstFitOverIdleMachines) {
  std::size_t placements = 0;
  std::size_t skipped_idle = 0;  // placements past a non-matching idle machine
  for (const std::uint64_t seed : {3u, 17u, 29u, 41u}) {
    SCOPED_TRACE(seed);
    sim::Simulation sim;
    CondorPool::Config config;
    config.machines = 24;
    config.memory_sigma = 0.6;
    config.mean_idle_hours = 1.0;
    config.mean_busy_hours = 1.0;
    config.seed = seed;
    CondorPool pool(sim, "condor", config);

    std::deque<GridJob> jobs;      // stable addresses
    std::vector<GridJob*> queue;   // the pool's FIFO, as submitted
    const auto submit = [&](GridJob& job) {
      queue.push_back(&job);
      pool.submit(job);
    };
    pool.set_completion_callback(
        [&](GridJob& job, const JobOutcome& outcome) {
          if (outcome.reason == "preempted" && job.attempts < 20) submit(job);
        });

    const auto check = [&] {
      std::vector<std::size_t> idle;
      std::size_t running = 0;
      for (std::size_t m = 0; m < config.machines; ++m) {
        const GridJob* job = pool.running(m);
        if (job != nullptr) {
          ++running;
          ASSERT_EQ(job->state, JobState::kRunning);
        }
        const bool placed_now =
            job != nullptr &&
            std::find(queue.begin(), queue.end(), job) != queue.end();
        if (placed_now) {
          ASSERT_FALSE(pool.owner_busy(m));
        }
        if (placed_now || (job == nullptr && !pool.owner_busy(m))) {
          idle.push_back(m);
        }
      }
      std::size_t running_jobs = 0;
      for (const GridJob& job : jobs) {
        running_jobs += job.state == JobState::kRunning ? 1 : 0;
      }
      ASSERT_EQ(running, running_jobs);  // one machine per running job

      std::vector<GridJob*> still_queued;
      for (GridJob* job : queue) {
        const AdExpression requirements =
            AdExpression::parse(condor_requirements_expression(*job));
        const auto fit = std::find_if(
            idle.begin(), idle.end(), [&](std::size_t m) {
              return requirements.matches(pool.machine_ad(m));
            });
        if (fit == idle.end()) {
          ASSERT_EQ(job->state, JobState::kQueued);
          still_queued.push_back(job);
          continue;
        }
        ASSERT_EQ(pool.running(*fit), job);
        ++placements;
        if (fit != idle.begin()) ++skipped_idle;
        idle.erase(fit);
      }
      queue = std::move(still_queued);
      ASSERT_EQ(pool.info().queued_jobs, queue.size());
    };

    util::Rng rng(seed);
    const double memory_gb[] = {0.0, 0.0, 1.5, 2.0, 3.0, 4.0};
    JobRequirements by_memory[6];
    for (int i = 0; i < 6; ++i) by_memory[i].min_memory_gb = memory_gb[i];
    for (int round = 0; round < 400; ++round) {
      if (rng.bernoulli(0.3)) {
        jobs.push_back(make_job(jobs.size() + 1, rng.uniform(600.0, 7200.0)));
        jobs.back().requirements = &by_memory[rng.below(6)];
        submit(jobs.back());
      } else if (!sim.step()) {
        break;
      }
      check();
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(placements, 100u);
  EXPECT_GT(skipped_idle, 10u);
}

// ---------------------------------------------------------------------------
// MDS

TEST(Mds, ReportsExpireAfterTtl) {
  sim::Simulation sim;
  MdsDirectory mds(sim, 300.0);
  ResourceInfo info;
  info.name = "hpc";
  mds.report(info);
  EXPECT_TRUE(mds.is_online("hpc"));
  EXPECT_EQ(mds.online().size(), 1u);
  sim.at(301.0, [] {});
  sim.run();
  EXPECT_FALSE(mds.is_online("hpc"));
  EXPECT_TRUE(mds.online().empty());
  EXPECT_EQ(mds.all().size(), 1u);  // stale entry still visible to monitors
}

TEST(Mds, ProviderKeepsResourceOnline) {
  sim::Simulation sim;
  MdsDirectory mds(sim, 300.0);
  BatchQueueResource::Config config;
  BatchQueueResource cluster(sim, "hpc", config);
  mds.attach_provider(cluster, 120.0);
  sim.run(3600.0);
  EXPECT_TRUE(mds.is_online("hpc"));
}

TEST(Mds, SpeedAnnotation) {
  sim::Simulation sim;
  MdsDirectory mds(sim, 300.0);
  ResourceInfo info;
  info.name = "hpc";
  mds.report(info);
  mds.set_speed("hpc", 2.5);
  const auto entry = mds.find("hpc");
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->speed, 2.5);
}

TEST(Mds, UnknownResourceQueries) {
  sim::Simulation sim;
  MdsDirectory mds(sim);
  EXPECT_FALSE(mds.find("nope").has_value());
  EXPECT_FALSE(mds.is_online("nope"));
}

// ---------------------------------------------------------------------------
// Adapters

TEST(Adapters, CondorSubmitFile) {
  GridJob job = make_job(1, 100.0);
  JobRequirements requirements;
  requirements.platforms = {PlatformSpec{OsType::kLinux, Arch::kX86_64}};
  requirements.min_memory_gb = 2.0;
  job.requirements = &requirements;
  const std::string submit = condor_submit_file(job);
  EXPECT_NE(submit.find("universe = vanilla"), std::string::npos);
  EXPECT_NE(submit.find("OpSys == \"LINUX\""), std::string::npos);
  EXPECT_NE(submit.find("Arch == \"X86_64\""), std::string::npos);
  EXPECT_NE(submit.find("request_memory = 2048MB"), std::string::npos);
  EXPECT_NE(submit.find("queue 1"), std::string::npos);
}

TEST(Adapters, PbsScript) {
  GridJob job = make_job(3, 100.0);
  job.estimated_reference_runtime = 7200.0;
  const std::string script = pbs_script(job);
  EXPECT_NE(script.find("#PBS -N garli-3"), std::string::npos);
  EXPECT_NE(script.find("walltime="), std::string::npos);
}

TEST(Adapters, SgeScript) {
  GridJob job = make_job(4, 100.0);
  JobRequirements requirements;
  requirements.needs_mpi = true;
  job.requirements = &requirements;
  const std::string script = sge_script(job);
  EXPECT_NE(script.find("#$ -N garli-4"), std::string::npos);
  EXPECT_NE(script.find("-pe mpi"), std::string::npos);
}

}  // namespace
}  // namespace lattice::grid
