// Decision-identity property tests for the scheduler and BOINC server
// fast paths: each must change cost, never decisions.
//
//   1. MDS matchmaking vs linear directory scan — identical eligible
//      sets in identical order, and MetaScheduler::choose vs the linear
//      reference (tests/sched_reference.hpp) make identical placements
//      over randomized inventories and job streams in every scheduling
//      mode (including round-robin, whose cursor makes decisions
//      order-sensitive), with and without a charged fair-share ledger.
//   2. Deadline min-heap transitioner vs the retained full-sweep oracle —
//      twin identically-seeded BOINC scenarios, one per path, must produce
//      bit-identical workunit/result histories and counters, including
//      under host churn, errors, and synchronous reissue dispatches.
//   3. FeederQueue — FIFO take/skip/drop semantics matching the seed's
//      mid-deque scan.
//   4. Directory mutation — MetaScheduler::choose vs the linear reference
//      in every mode under randomized speed updates, load heartbeats,
//      capability changes and host churn (TTL staleness).
//   5. Pool churn calendar — a churny BOINC scenario whose idle-host
//      flips run through the keyed calendar must reproduce a golden
//      digest of its server fingerprint, event count and calendar steps.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "boinc/feeder.hpp"
#include "boinc/server.hpp"
#include "core/metascheduler.hpp"
#include "core/speed.hpp"
#include "grid/job.hpp"
#include "grid/mds.hpp"
#include "obs/metrics.hpp"
#include "sched_reference.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace lattice {
namespace {

// ---------------------------------------------------------------------
// FeederQueue semantics
// ---------------------------------------------------------------------

TEST(FeederQueue, TakesInFifoOrder) {
  boinc::FeederQueue queue;
  queue.enqueue(1);
  queue.enqueue(2);
  queue.enqueue(3);
  std::uint64_t taken = 0;
  EXPECT_TRUE(queue.scan([&](std::uint64_t id) {
    taken = id;
    return boinc::FeederQueue::Probe::kTake;
  }));
  EXPECT_EQ(taken, 1u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(FeederQueue, SkippedEntriesKeepTheirPositions) {
  boinc::FeederQueue queue;
  for (std::uint64_t id = 1; id <= 5; ++id) queue.enqueue(id);
  // Skip 1 and 2, take 3: the queue must read 1, 2, 4, 5 afterwards.
  EXPECT_TRUE(queue.scan([](std::uint64_t id) {
    return id < 3 ? boinc::FeederQueue::Probe::kSkip
                  : boinc::FeederQueue::Probe::kTake;
  }));
  std::vector<std::uint64_t> remaining;
  while (!queue.empty()) {
    queue.scan([&](std::uint64_t id) {
      remaining.push_back(id);
      return boinc::FeederQueue::Probe::kDrop;
    });
  }
  EXPECT_EQ(remaining, (std::vector<std::uint64_t>{1, 2, 4, 5}));
}

TEST(FeederQueue, DropRemovesAndScanReportsNoTake) {
  boinc::FeederQueue queue;
  queue.enqueue(7);
  queue.enqueue(8);
  EXPECT_FALSE(queue.scan([](std::uint64_t) {
    return boinc::FeederQueue::Probe::kDrop;
  }));
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.scan([](std::uint64_t) {
    return boinc::FeederQueue::Probe::kTake;
  }));
}

TEST(FeederQueue, AllSkippedLeavesQueueIntact) {
  boinc::FeederQueue queue;
  for (std::uint64_t id = 1; id <= 4; ++id) queue.enqueue(id);
  EXPECT_FALSE(queue.scan([](std::uint64_t) {
    return boinc::FeederQueue::Probe::kSkip;
  }));
  EXPECT_EQ(queue.size(), 4u);
  std::uint64_t front = 0;
  queue.scan([&](std::uint64_t id) {
    front = id;
    return boinc::FeederQueue::Probe::kTake;
  });
  EXPECT_EQ(front, 1u);  // original order preserved
}

// ---------------------------------------------------------------------
// Matchmaking index vs linear scan
// ---------------------------------------------------------------------

const std::vector<grid::PlatformSpec> kPlatformPool = {
    {grid::OsType::kLinux, grid::Arch::kX86_64},
    {grid::OsType::kLinux, grid::Arch::kX86},
    {grid::OsType::kWindows, grid::Arch::kX86_64},
    {grid::OsType::kMacOS, grid::Arch::kPowerPC},
};
const std::vector<std::string> kSoftwarePool = {"garli", "java", "blast",
                                                "hmmer"};

grid::ResourceInfo random_resource(util::Rng& rng, std::size_t index) {
  grid::ResourceInfo info;
  info.name = "res" + std::to_string(index);
  info.kind = static_cast<grid::ResourceKind>(rng.below(4));
  info.total_slots = 1 + rng.below(64);
  info.free_slots = rng.below(info.total_slots + 1);
  info.queued_jobs = rng.below(100);
  info.node_memory_gb = 1.0 + static_cast<double>(rng.below(16));
  for (const grid::PlatformSpec& platform : kPlatformPool) {
    if (rng.bernoulli(0.5)) info.platforms.push_back(platform);
  }
  if (info.platforms.empty()) info.platforms.push_back(kPlatformPool[0]);
  for (const std::string& software : kSoftwarePool) {
    if (rng.bernoulli(0.4)) info.software.push_back(software);
  }
  info.mpi_capable = rng.bernoulli(0.3);
  info.stable = rng.bernoulli(0.5);
  return info;
}

/// A job with random requirements, drawn into `requirements`, which the job
/// points at.
grid::GridJob random_job(util::Rng& rng, std::uint64_t id,
                         grid::JobRequirements& requirements) {
  grid::GridJob job;
  job.id = id;
  requirements = {};
  for (const grid::PlatformSpec& platform : kPlatformPool) {
    if (rng.bernoulli(0.3)) requirements.platforms.push_back(platform);
  }
  for (const std::string& software : kSoftwarePool) {
    if (rng.bernoulli(0.2)) requirements.software.push_back(software);
  }
  requirements.needs_mpi = rng.bernoulli(0.2);
  requirements.min_memory_gb = static_cast<double>(rng.below(10));
  job.requirements = &requirements;
  job.true_reference_runtime = rng.uniform(600.0, 40.0 * 3600.0);
  if (rng.bernoulli(0.8)) {
    job.estimated_reference_runtime =
        job.true_reference_runtime * rng.uniform(0.5, 2.0);
  }
  return job;
}

/// Randomized inventory with a staleness mix: all resources report at t=0,
/// half keep reporting, and the clock advances past the TTL so the other
/// half is offline at query time.
void build_directory(sim::Simulation& sim, grid::MdsDirectory& mds,
                     util::Rng& rng, std::size_t resources) {
  std::vector<grid::ResourceInfo> inventory;
  inventory.reserve(resources);
  for (std::size_t i = 0; i < resources; ++i) {
    inventory.push_back(random_resource(rng, i));
  }
  for (const grid::ResourceInfo& info : inventory) mds.report(info);
  // Advance beyond the TTL, re-reporting only the even-indexed half.
  const double later = mds.ttl() + 100.0;
  sim.at(later, [&mds, inventory] {
    for (std::size_t i = 0; i < inventory.size(); i += 2) {
      mds.report(inventory[i]);
    }
  });
  sim.run();
}

TEST(MdsIndex, MatchesLinearScanOverRandomInventories) {
  for (std::uint64_t trial = 0; trial < 20; ++trial) {
    util::Rng rng(1000 + trial);
    sim::Simulation sim;
    grid::MdsDirectory mds(sim);
    build_directory(sim, mds, rng, 30 + trial);
    const std::size_t registered = mds.all().size();

    for (int q = 0; q < 50; ++q) {
      grid::JobRequirements requirements;
      const grid::GridJob job =
          random_job(rng, static_cast<std::uint64_t>(q), requirements);
      std::vector<const grid::MdsEntry*> indexed;
      grid::MdsMatchStats indexed_stats;
      mds.match_online(*job.requirements, indexed, &indexed_stats);
      const std::vector<grid::MdsEntry> linear =
          sched_reference::eligible(mds, *job.requirements);
      ASSERT_EQ(indexed.size(), linear.size());
      for (std::size_t i = 0; i < indexed.size(); ++i) {
        EXPECT_EQ(indexed[i]->info.name, linear[i].info.name)
            << "entry order diverged at " << i;
      }
      EXPECT_EQ(indexed_stats.eligible, linear.size());
      // One pass examines every registered entry, online or not.
      EXPECT_EQ(indexed_stats.candidates_scanned, registered);
    }
  }
}

/// Calibrate every third resource of a build_directory() inventory and
/// publish the speeds into the directory.
void calibrate_some(util::Rng& rng, grid::MdsDirectory& mds,
                    core::SpeedCalibrator& speeds, std::size_t resources) {
  for (std::size_t i = 0; i < resources; i += 3) {
    const double runtime = rng.uniform(1200.0, 7200.0);
    const std::string name = "res" + std::to_string(i);
    speeds.calibrate(name, {{runtime}});
    mds.set_speed(name, speeds.speed_or_default(name));
  }
}

/// random_job plus the decision inputs only the scheduler reads: demotion
/// to stable-only resources and staged data volume.
grid::GridJob random_scheduled_job(util::Rng& rng, std::uint64_t id,
                                   grid::JobRequirements& requirements) {
  grid::GridJob job = random_job(rng, id, requirements);
  job.require_stable = rng.bernoulli(0.2);
  job.input_mb = rng.uniform(0.0, 2000.0);
  job.output_mb = rng.uniform(0.0, 200.0);
  return job;
}

const core::SchedulingMode kAllModes[] = {
    core::SchedulingMode::kRoundRobin, core::SchedulingMode::kLoadOnly,
    core::SchedulingMode::kEstimateAware, core::SchedulingMode::kOracle};

TEST(MetaScheduler, IndexedAndLinearChooseIdenticallyInEveryMode) {
  for (const core::SchedulingMode mode : kAllModes) {
    for (std::uint64_t trial = 0; trial < 5; ++trial) {
      util::Rng rng(7000 + trial);
      sim::Simulation sim;
      grid::MdsDirectory mds(sim);
      build_directory(sim, mds, rng, 25);
      core::SpeedCalibrator speeds(3600.0);
      calibrate_some(rng, mds, speeds, 25);
      core::SchedulerPolicy policy;
      policy.mode = mode;
      // Odd trials charge staging time against the stability cutoff.
      if (trial % 2 == 1) policy.staging_mbps = rng.uniform(1.0, 100.0);
      // The reference keeps its own round-robin cursor and sees the same
      // job sequence, so the two cursors stay in step.
      core::MetaScheduler indexed(mds, policy);
      sched_reference::Scheduler linear(mds, policy);
      for (std::uint64_t j = 0; j < 100; ++j) {
        grid::JobRequirements requirements;
        const grid::GridJob job = random_scheduled_job(rng, j, requirements);
        const std::optional<std::string> via_index = indexed.choose(job);
        const std::optional<std::string> via_scan = linear.choose(job);
        ASSERT_EQ(via_index, via_scan)
            << "mode " << scheduling_mode_name(mode) << " trial " << trial
            << " job " << j;
      }
    }
  }
}

TEST(MetaScheduler, FairShareKeepsIndexedAndLinearChoiceIdentical) {
  // Fair-share inflates the runtime estimate by a per-decision-constant
  // factor before the indexed stream ranks with it, so it must still agree
  // bit-for-bit with the linear reference — with random usage odometers,
  // random user ids, and the weight turned up.
  for (const core::SchedulingMode mode : kAllModes) {
    for (std::uint64_t trial = 0; trial < 5; ++trial) {
      util::Rng rng(9100 + trial);
      sim::Simulation sim;
      grid::MdsDirectory mds(sim);
      build_directory(sim, mds, rng, 25);
      core::SpeedCalibrator speeds(3600.0);
      calibrate_some(rng, mds, speeds, 25);
      core::FairShareLedger ledger;
      for (core::UserId user = 1; user <= 8; ++user) {
        ledger.charge(user, rng.uniform(0.0, 400.0 * 3600.0));
      }
      core::SchedulerPolicy policy;
      policy.mode = mode;
      policy.fair_share_weight = rng.uniform(0.01, 2.0);
      core::MetaScheduler indexed(mds, policy);
      indexed.set_fair_share(&ledger);
      sched_reference::Scheduler linear(mds, policy, &ledger);
      for (std::uint64_t j = 0; j < 100; ++j) {
        grid::JobRequirements requirements;
        grid::GridJob job = random_scheduled_job(rng, j, requirements);
        job.user_id = rng.below(9);  // 0 (unattributed) through 8
        const std::optional<std::string> via_index = indexed.choose(job);
        const std::optional<std::string> via_scan = linear.choose(job);
        ASSERT_EQ(via_index, via_scan)
            << "mode " << scheduling_mode_name(mode) << " trial " << trial
            << " job " << j << " user " << job.user_id;
      }
    }
  }
}

TEST(MetaScheduler, StabilityFallthroughStreamsOnce) {
  // Every resource is unstable and the job is far above the cutoff, so
  // nothing passes the advisory filter and the decision falls through to
  // the best unrestricted entry. That entry is the second minimum of the
  // one ranking pass: each directory entry is examined exactly once.
  sim::Simulation sim;
  grid::MdsDirectory mds(sim);
  const std::size_t queued[] = {40, 0, 12};  // "pool-b" ranks first
  for (std::size_t i = 0; i < 3; ++i) {
    grid::ResourceInfo info;
    info.name = std::string("pool-") + static_cast<char>('a' + i);
    info.kind = grid::ResourceKind::kCondorPool;
    info.total_slots = 8;
    info.free_slots = queued[i] == 0 ? 8 : 0;
    info.queued_jobs = queued[i];
    info.node_memory_gb = 4.0;
    info.platforms = {grid::PlatformSpec{}};
    info.stable = false;
    mds.report(info);
  }
  core::SchedulerPolicy policy;
  policy.mode = core::SchedulingMode::kEstimateAware;
  policy.stability_cutoff_hours = 10.0;
  obs::MetricsRegistry metrics;
  core::MetaScheduler scheduler(mds, policy);
  scheduler.set_observability(metrics);
  sched_reference::Scheduler reference(mds, policy);

  grid::GridJob job;
  job.id = 1;
  job.estimated_reference_runtime = 48.0 * 3600.0;
  const std::optional<std::string> placed = scheduler.choose(job);
  EXPECT_EQ(placed, reference.choose(job));
  EXPECT_EQ(placed.value_or(""), "pool-b");
  EXPECT_EQ(metrics.counter_total("sched.match_candidates_scanned"), 3u);
  EXPECT_EQ(metrics.counter_total("sched.match_eligible"), 3u);
  EXPECT_EQ(metrics.counter_total("sched.route_unstable"), 1u);

  // A demoted job has no stable resource to go to: the hard filter does
  // not fall through.
  job.id = 2;
  job.require_stable = true;
  const std::uint64_t no_eligible_before =
      metrics.counter_total("sched.no_eligible");
  EXPECT_FALSE(scheduler.choose(job).has_value());
  EXPECT_FALSE(reference.choose(job).has_value());
  EXPECT_EQ(metrics.counter_total("sched.no_eligible"),
            no_eligible_before + 1);
  EXPECT_EQ(metrics.counter_total("sched.match_candidates_scanned"), 6u);
}

TEST(MetaScheduler, EqualRankKeysBreakTiesByName) {
  // Three identical unstable resources: every rank key ties, so each
  // minimum — allowed or barred by the cutoff — must be the first name.
  sim::Simulation sim;
  grid::MdsDirectory mds(sim);
  for (const char* name : {"pool-c", "pool-a", "pool-b"}) {
    grid::ResourceInfo info;
    info.name = name;
    info.kind = grid::ResourceKind::kCondorPool;
    info.total_slots = 8;
    info.free_slots = 2;
    info.queued_jobs = 5;
    info.node_memory_gb = 4.0;
    info.platforms = {grid::PlatformSpec{}};
    info.stable = false;
    mds.report(info);
  }
  grid::GridJob job;
  job.id = 1;
  for (const core::SchedulingMode mode : kAllModes) {
    if (mode == core::SchedulingMode::kRoundRobin) continue;
    core::SchedulerPolicy policy;
    policy.mode = mode;
    core::MetaScheduler scheduler(mds, policy);
    sched_reference::Scheduler reference(mds, policy);
    // Under the cutoff (allowed), then far above it (all barred).
    for (const double hours : {1.0, 48.0}) {
      job.estimated_reference_runtime = hours * 3600.0;
      job.true_reference_runtime = hours * 3600.0;
      const std::optional<std::string> placed = scheduler.choose(job);
      EXPECT_EQ(placed, reference.choose(job));
      EXPECT_EQ(placed.value_or(""), "pool-a")
          << scheduling_mode_name(mode) << " " << hours << " h";
    }
  }
}

// ---------------------------------------------------------------------
// Decisions vs the linear reference under directory mutation
// ---------------------------------------------------------------------

TEST(MdsRankIndex, BestRankedMatchesLinearUnderMutation) {
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    util::Rng rng(3000 + trial);
    sim::Simulation sim;
    grid::MdsDirectory mds(sim);
    const std::size_t resources = 20 + trial;
    std::vector<grid::ResourceInfo> inventory;
    inventory.reserve(resources);
    for (std::size_t i = 0; i < resources; ++i) {
      inventory.push_back(random_resource(rng, i));
      mds.report(inventory.back());
    }
    // One scheduler/reference pair per mode, kept across rounds so the
    // round-robin cursors see the same job sequence.
    std::vector<core::MetaScheduler> schedulers;
    std::vector<sched_reference::Scheduler> references;
    for (const core::SchedulingMode mode : kAllModes) {
      core::SchedulerPolicy policy;
      policy.mode = mode;
      if (trial % 2 == 1) policy.staging_mbps = rng.uniform(1.0, 100.0);
      schedulers.emplace_back(mds, policy);
      references.emplace_back(mds, policy);
    }
    double now = 0.0;
    for (int round = 0; round < 25; ++round) {
      // One randomized mutation per round: every way an entry changes
      // between decisions.
      switch (rng.below(4)) {
        case 0: {  // speed recalibration moves the eta key
          const std::size_t i = rng.below(resources);
          mds.set_speed(inventory[i].name, rng.uniform(0.3, 3.0));
          break;
        }
        case 1: {  // capability change flips matchmaking verdicts
          grid::ResourceInfo& info = inventory[rng.below(resources)];
          info.mpi_capable = !info.mpi_capable;
          if (rng.bernoulli(0.5)) {
            info.software = info.software.empty()
                                ? std::vector<std::string>{"java"}
                                : std::vector<std::string>{};
          }
          mds.report(info);
          break;
        }
        case 2: {  // heartbeat with moved load fields moves both keys
          grid::ResourceInfo& info = inventory[rng.below(resources)];
          info.free_slots = rng.below(info.total_slots + 1);
          info.queued_jobs = rng.below(100);
          mds.report(info);
          break;
        }
        default: {  // churn: advance time, refresh a random subset only —
                    // the rest drift toward (or past) the TTL
          now += mds.ttl() * rng.uniform(0.2, 0.7);
          sim.at(now, [] {});
          sim.run();
          for (std::size_t i = 0; i < resources; ++i) {
            if (rng.bernoulli(0.6)) mds.report(inventory[i]);
          }
          break;
        }
      }
      for (int q = 0; q < 8; ++q) {
        grid::JobRequirements requirements;
        const grid::GridJob job = random_scheduled_job(
            rng, static_cast<std::uint64_t>(q), requirements);
        for (std::size_t m = 0; m < schedulers.size(); ++m) {
          ASSERT_EQ(schedulers[m].choose(job), references[m].choose(job))
              << "mode " << scheduling_mode_name(kAllModes[m]) << " trial "
              << trial << " round " << round << " q " << q;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Deadline heap vs full-sweep transitioner oracle
// ---------------------------------------------------------------------

/// Serialize everything observable about a server's history: per-result
/// states, assignments, outputs and timing, plus the aggregate counters.
std::string server_fingerprint(const boinc::BoincServer& server) {
  std::ostringstream out;
  for (const boinc::Workunit& wu : server.workunits()) {
    out << "wu" << wu.id << " s" << static_cast<int>(wu.state);
    for (const boinc::Result& result : server.results_of(wu)) {
      out << " [" << result.id << " st" << static_cast<int>(result.state)
          << " h" << result.host_id << " sent" << result.sent_time << " dl"
          << result.deadline << " rcv" << result.received_time << " cpu"
          << result.cpu_seconds << " out" << result.output_hash << "]";
    }
    out << "\n";
  }
  out << "timeouts=" << server.timed_out_results()
      << " reissued=" << server.reissued_results()
      << " cpu=" << server.total_cpu_seconds()
      << " discarded=" << server.discarded_cpu_seconds()
      << " wasted=" << server.wasted_duplicate_cpu_seconds()
      << " corrupted=" << server.corrupted_validations()
      << " online=" << server.online_hosts()
      << " credit=" << server.total_credit() << "\n";
  return out.str();
}

/// A churny scenario tuned to exercise the timeout path hard: short
/// deadlines, intermittent flaky hosts, replication with quorum.
std::string run_transitioner_scenario(bool full_sweep,
                                      std::size_t* events_fired) {
  sim::Simulation sim;
  boinc::BoincPoolConfig config;
  config.hosts = 60;
  config.mean_on_hours = 1.5;
  config.mean_off_hours = 3.0;
  config.mean_lifetime_days = 20.0;
  config.host_error_probability = 0.02;
  config.flaky_host_fraction = 0.15;
  config.flaky_error_probability = 0.4;
  config.default_delay_bound = 6.0 * 3600.0;  // tight: forces timeouts
  config.target_nresults = 2;
  config.min_quorum = 2;
  config.max_total_results = 6;
  config.transitioner_period = 900.0;
  config.seed = 20260806;
  boinc::BoincServer server(sim, "pool", config);
  server.set_transitioner_full_sweep(full_sweep);

  std::vector<grid::GridJob> jobs;
  jobs.reserve(40);
  for (std::uint64_t j = 0; j < 40; ++j) {
    grid::GridJob job;
    job.id = j + 1;
    job.true_reference_runtime = 1800.0 + 450.0 * static_cast<double>(j % 7);
    job.input_mb = 1.0;
    job.output_mb = 0.5;
    jobs.push_back(job);
  }
  // Stagger submissions so dispatches interleave with churn and timeouts.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim.at(static_cast<double>(j) * 1800.0,
           [&server, &jobs, j] { server.submit(jobs[j]); });
  }
  const std::size_t fired = sim.run(30.0 * 86400.0);
  if (events_fired != nullptr) *events_fired = fired;

  std::string fingerprint = server_fingerprint(server);
  std::ostringstream tail;
  tail << "now=" << sim.now() << " pending=" << sim.pending() << "\n";
  return fingerprint + tail.str();
}

TEST(Transitioner, DeadlineHeapMatchesFullSweepOracleBitIdentically) {
  std::size_t heap_events = 0;
  std::size_t sweep_events = 0;
  const std::string heap_run = run_transitioner_scenario(false, &heap_events);
  const std::string sweep_run =
      run_transitioner_scenario(true, &sweep_events);
  EXPECT_EQ(heap_events, sweep_events);
  EXPECT_EQ(heap_run, sweep_run);
  // The scenario must actually exercise the timeout machinery, or the
  // equality above proves nothing.
  EXPECT_NE(heap_run.find("timeouts="), std::string::npos);
  EXPECT_EQ(heap_run.find("timeouts=0 "), std::string::npos)
      << "scenario produced no timeouts; tighten the deadlines";
}

// ---------------------------------------------------------------------
// Pool churn calendar: golden run digest
// ---------------------------------------------------------------------

struct ChurnyPoolRun {
  std::string fingerprint;
  std::uint64_t events_fired = 0;
  std::uint64_t calendar_steps = 0;
};

/// A churny pool (frequent flips, departures, timeouts, reissues) whose
/// idle-host flips run through the pool calendar.
ChurnyPoolRun run_churny_pool_scenario() {
  sim::Simulation sim;
  boinc::BoincPoolConfig config;
  config.hosts = 400;
  config.mean_on_hours = 2.0;
  config.mean_off_hours = 4.0;
  config.mean_lifetime_days = 15.0;
  config.host_error_probability = 0.02;
  config.flaky_host_fraction = 0.1;
  config.flaky_error_probability = 0.3;
  config.default_delay_bound = 8.0 * 3600.0;
  config.target_nresults = 2;
  config.min_quorum = 2;
  config.max_total_results = 6;
  config.transitioner_period = 900.0;
  config.seed = 20260808;
  boinc::BoincServer server(sim, "pool", config);

  std::vector<grid::GridJob> jobs;
  jobs.reserve(60);
  for (std::uint64_t j = 0; j < 60; ++j) {
    grid::GridJob job;
    job.id = j + 1;
    job.true_reference_runtime = 1200.0 + 600.0 * static_cast<double>(j % 5);
    job.input_mb = 1.0;
    job.output_mb = 0.5;
    jobs.push_back(job);
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim.at(static_cast<double>(j) * 1200.0,
           [&server, &jobs, j] { server.submit(jobs[j]); });
  }
  ChurnyPoolRun run;
  run.events_fired = sim.run(20.0 * 86400.0);
  run.calendar_steps = server.calendar_steps();
  std::ostringstream tail;
  tail << "now=" << sim.now() << " pending=" << sim.pending() << "\n";
  run.fingerprint = server_fingerprint(server) + tail.str();
  return run;
}

TEST(PoolCalendar, ChurnyPoolRunMatchesGoldenDigest) {
  // FNV-1a over the server fingerprint, the kernel event count and the
  // calendar steps. The calendar pops each round's whole due prefix before
  // firing it, which fixes the idle-list append order: any change to the
  // firing order moves this digest.
  const ChurnyPoolRun run = run_churny_pool_scenario();
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  mix(run.fingerprint.data(), run.fingerprint.size());
  mix(&run.events_fired, sizeof run.events_fired);
  mix(&run.calendar_steps, sizeof run.calendar_steps);
  EXPECT_EQ(hash, 0x1ddf421c52106fd5ull) << std::hex << "digest 0x" << hash;
  // The scenario must actually run flips through the pool calendar, or
  // the digest pins nothing about it.
  EXPECT_GT(run.calendar_steps, 0u)
      << "scenario fired no pool-calendar events; loosen the horizon";
}

TEST(Transitioner, DeadlineHeapEntriesAreBoundedByDispatches) {
  sim::Simulation sim;
  boinc::BoincPoolConfig config;
  config.hosts = 10;
  config.mean_on_hours = 10000.0;
  config.mean_off_hours = 0.001;
  config.mean_lifetime_days = 1e6;
  config.host_error_probability = 0.0;
  config.seed = 7;
  boinc::BoincServer server(sim, "pool", config);
  std::vector<grid::GridJob> jobs;
  jobs.reserve(8);
  for (std::uint64_t j = 0; j < 8; ++j) {
    grid::GridJob job;
    job.id = j + 1;
    job.true_reference_runtime = 600.0;
    jobs.push_back(job);
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(86400.0);
  // Every job completed well inside the default 14-day deadline, so the
  // heap still holds their lazily-deleted entries (one per dispatch), and
  // the periodic transitioner never had anything overdue to pop.
  EXPECT_GE(server.deadline_heap_entries(), 8u);
  for (const boinc::Workunit& wu : server.workunits()) {
    EXPECT_EQ(wu.state, boinc::WorkunitState::kValidated);
  }
}

}  // namespace
}  // namespace lattice
