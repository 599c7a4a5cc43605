// Tests for the desktop-grid substrate: workunit/result lifecycle, host
// churn with checkpoint-preserving downtime, deadline timeout + reissue by
// the transitioner, quorum validation with flawed hosts, wasted-duplicate
// accounting, and the BOINC workunit template.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "boinc/adapter.hpp"
#include "boinc/server.hpp"
#include "net/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/simulation.hpp"

namespace lattice::boinc {
namespace {

grid::GridJob make_job(std::uint64_t id, double runtime) {
  grid::GridJob job;
  job.id = id;
  job.true_reference_runtime = runtime;
  return job;
}

/// Results of `wu` reported back successfully.
int successes(const BoincServer& server, const Workunit& wu) {
  int n = 0;
  for (const Result& result : server.results_of(wu)) {
    if (result.state == ResultState::kSuccess) ++n;
  }
  return n;
}

BoincPoolConfig reliable_pool(std::size_t hosts) {
  BoincPoolConfig config;
  config.hosts = hosts;
  config.mean_on_hours = 10000.0;  // effectively always on
  config.mean_off_hours = 0.001;
  config.mean_lifetime_days = 1e6;
  config.host_error_probability = 0.0;
  config.seed = 42;
  return config;
}

TEST(Boinc, CompletesWorkOnReliableHosts) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(20));
  int completed = 0;
  server.set_completion_callback(
      [&](grid::GridJob& job, const grid::JobOutcome& outcome) {
        EXPECT_TRUE(outcome.completed());
        EXPECT_EQ(job.state, grid::JobState::kCompleted);
        ++completed;
      });
  std::vector<grid::GridJob> jobs;
  jobs.reserve(10);
  for (int i = 0; i < 10; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(30.0 * 86400.0);
  EXPECT_EQ(completed, 10);
  EXPECT_GT(server.total_cpu_seconds(), 0.0);
}

// Event budget: a task-holding host keeps exactly one kernel event, armed
// at min(churn step, compute completion), however often it flips. K
// long jobs on K hosts that are off for seconds every ~2 h leave K host
// timers plus the transitioner pending at every barrier.
TEST(Boinc, OneKernelEventPerTaskHoldingHost) {
  constexpr std::size_t kJobs = 16;
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(kJobs);
  config.mean_on_hours = 2.0;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs;
  jobs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back(make_job(i + 1, 1000.0 * 86400.0));
  }
  for (auto& job : jobs) server.submit(job);
  for (int hour = 1; hour <= 48; ++hour) {
    sim.run(hour * 3600.0);
    ASSERT_EQ(server.info().free_slots, 0u) << "hour " << hour;
    EXPECT_EQ(sim.pending(), kJobs + 1) << "hour " << hour;
  }
  // The busy hosts did flip: beyond the transitioner's 288 ticks, their
  // timers fired (about one on/off pair per host every 2 h).
  EXPECT_GT(sim.events_fired(), 288u + 10u * kJobs);
}

// Task state lives in a pool with one slot per concurrent task: three jobs
// run back to back through one host reuse a single slot.
TEST(Boinc, SequentialTasksOnOneHostReuseOneTaskSlot) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(1));
  int completed = 0;
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  std::vector<grid::GridJob> jobs;
  jobs.reserve(3);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    jobs.push_back(make_job(id, 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(30.0 * 86400.0);
  EXPECT_EQ(completed, 3);
  EXPECT_EQ(server.task_slots(), 1u);
}

// The free-staging fold charges a fixed per-result overhead and the job's
// data at the volunteer last-mile rate as wall time on the host: an
// always-on host of speed v finishes reference work R at
// R / v + 120 s + (in + out) / 0.5 MB/s, exactly.
TEST(Boinc, ResultOverheadAndStagingAreHostWallTime) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(1);
  config.mean_speed = 0.5;
  config.speed_sigma = 0.0;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [](grid::GridJob&, const grid::JobOutcome&) {});
  auto job = make_job(1, 3600.0);
  job.input_mb = 30.0;
  job.output_mb = 10.0;
  server.submit(job);
  sim.run(86400.0);
  ASSERT_EQ(job.state, grid::JobState::kCompleted);
  EXPECT_EQ(job.finish_time, 3600.0 / 0.5 + 120.0 + (30.0 + 10.0) / 0.5);
}

TEST(Boinc, ChurnDelaysButCheckpointingPreservesProgress) {
  sim::Simulation sim;
  BoincPoolConfig config;
  config.hosts = 5;
  config.mean_on_hours = 2.0;
  config.mean_off_hours = 6.0;
  config.mean_lifetime_days = 1e6;
  config.host_error_probability = 0.0;
  config.default_delay_bound = 60.0 * 86400.0;
  config.seed = 9;
  BoincServer server(sim, "boinc", config);
  int completed = 0;
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  // 8h of reference work against 2h mean uptime stretches: only possible
  // because progress survives downtime.
  std::vector<grid::GridJob> jobs;
  jobs.reserve(5);
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 8.0 * 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(120.0 * 86400.0);
  EXPECT_EQ(completed, 5);
}

TEST(Boinc, DepartedHostTriggersDeadlineReissue) {
  sim::Simulation sim;
  BoincPoolConfig config;
  config.hosts = 3;
  config.mean_on_hours = 10000.0;
  config.mean_off_hours = 0.001;
  config.mean_lifetime_days = 0.05;  // hosts die after ~1.2h
  config.host_error_probability = 0.0;
  config.default_delay_bound = 6.0 * 3600.0;
  config.transitioner_period = 600.0;
  config.seed = 17;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  auto job = make_job(1, 4.0 * 3600.0);
  server.submit(job);
  sim.run(10.0 * 86400.0);
  // All hosts depart quickly; the transitioner must have timed out and
  // reissued at least once before the pool went extinct.
  EXPECT_GE(server.timed_out_results() + server.reissued_results(), 1u);
}

TEST(Boinc, TightDeadlineCausesTimeouts) {
  sim::Simulation sim;
  BoincPoolConfig config;
  config.hosts = 10;
  config.mean_on_hours = 2.0;
  config.mean_off_hours = 10.0;
  config.mean_lifetime_days = 1e6;
  config.host_error_probability = 0.0;
  // Deadline far too tight for 4h of work on intermittent hosts.
  config.default_delay_bound = 2.0 * 3600.0;
  config.seed = 23;
  BoincServer server(sim, "boinc", config);
  int completed = 0;
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  std::vector<grid::GridJob> jobs;
  jobs.reserve(5);
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 4.0 * 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(60.0 * 86400.0);
  EXPECT_GT(server.timed_out_results(), 0u);
}

TEST(Boinc, QuorumTwoCatchesFlawedHosts) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(30);
  config.host_error_probability = 0.3;
  config.min_quorum = 2;
  config.target_nresults = 2;
  config.max_total_results = 12;
  config.seed = 31;
  BoincServer server(sim, "boinc", config);
  int completed = 0;
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  std::vector<grid::GridJob> jobs;
  jobs.reserve(6);
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 1800.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(60.0 * 86400.0);
  EXPECT_EQ(completed, 6);
  // Each workunit needed >= 2 agreeing results.
  for (const Workunit& wu : server.workunits()) {
    EXPECT_EQ(wu.state, WorkunitState::kValidated);
    EXPECT_GE(successes(server, wu), 2);
  }
}

TEST(Boinc, RedundancyProducesWastedDuplicates) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(30);
  config.target_nresults = 3;  // send 3 copies, quorum 1
  config.min_quorum = 1;
  config.seed = 37;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs;
  jobs.reserve(4);
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(30.0 * 86400.0);
  // Copies of already-validated workunits are wasted: either they ran to
  // completion after validation (wasted duplicates) or the server aborted
  // them mid-flight (discarded checkpointed progress). Either way, the
  // total CPU burned exceeds the useful single-result work.
  EXPECT_GT(server.wasted_duplicate_cpu_seconds() +
                server.discarded_cpu_seconds() + server.total_cpu_seconds(),
            4.0 * 3600.0);
  EXPECT_GT(server.wasted_duplicate_cpu_seconds() +
                server.discarded_cpu_seconds(),
            0.0);
}

TEST(Boinc, CancelAbortsOutstandingWork) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(5));
  bool cancelled = false;
  server.set_completion_callback(
      [&](grid::GridJob& job, const grid::JobOutcome& outcome) {
        cancelled = !outcome.completed() &&
                    job.state == grid::JobState::kCancelled;
      });
  auto job = make_job(1, 100000.0);
  server.submit(job);
  sim.after(3600.0, [&] { server.cancel(1); });
  sim.run(2.0 * 86400.0);
  EXPECT_TRUE(cancelled);
}

TEST(Boinc, CancelReachesTheLiveWorkunitOfARetriedJob) {
  // A job that failed here and was placed here again owns an older,
  // decided workunit too; cancel must find the live one.
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(4);
  config.max_total_results = 1;
  BoincServer server(sim, "boinc", config);
  std::vector<std::string> reasons;
  auto job = make_job(1, 100000.0);
  server.set_completion_callback(
      [&](grid::GridJob& done, const grid::JobOutcome& outcome) {
        reasons.push_back(outcome.reason);
        if (reasons.size() == 1) server.submit(done, 30.0 * 86400.0);
      });
  // A 1 s bound times out at the first transitioner tick with no result
  // left to reissue.
  server.submit(job, 1.0);
  sim.run(1800.0);
  ASSERT_EQ(reasons, std::vector<std::string>{"result cap exhausted"});
  ASSERT_EQ(job.state, grid::JobState::kRunning);
  ASSERT_EQ(server.workunits().size(), 2u);

  server.cancel(job.id);
  EXPECT_EQ(job.state, grid::JobState::kCancelled);
  EXPECT_EQ(reasons.back(), "cancelled");
  EXPECT_EQ(server.workunits().back().state,
            WorkunitState::kCancelled);
  // Nothing is live any more: a second cancel is a no-op.
  server.cancel(job.id);
  EXPECT_EQ(reasons.size(), 2u);
}

TEST(Boinc, PerJobDeadlineOverride) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(5));
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  auto job = make_job(1, 600.0);
  server.submit(job, 12345.0);
  const auto& workunits = server.workunits();
  ASSERT_EQ(workunits.size(), 1u);
  EXPECT_DOUBLE_EQ(workunits.front().delay_bound, 12345.0);
  auto other = make_job(2, 600.0);
  server.submit(other);
  EXPECT_DOUBLE_EQ(server.workunits().back().delay_bound,
                   server.config().default_delay_bound);
  sim.run(86400.0);
}

TEST(Boinc, InfoAdvertisesUnstablePool) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(25));
  const grid::ResourceInfo info = server.info();
  EXPECT_EQ(info.kind, grid::ResourceKind::kBoincPool);
  EXPECT_EQ(info.total_slots, 25u);
  EXPECT_FALSE(info.stable);
  EXPECT_FALSE(info.mpi_capable);
}

TEST(Boinc, AdapterWorkunitTemplate) {
  grid::GridJob job = make_job(9, 100.0);
  job.estimated_reference_runtime = 5000.0;
  const std::string tmpl = workunit_template(job, reliable_pool(5));
  EXPECT_NE(tmpl.find("<name>garli-9</name>"), std::string::npos);
  EXPECT_NE(tmpl.find("<rsc_fpops_est>5000e9</rsc_fpops_est>"),
            std::string::npos);
  EXPECT_NE(tmpl.find("<min_quorum>1</min_quorum>"), std::string::npos);
}

// The grid dispatch path hands a BOINC pool its job with an explicit delay
// bound; the bound must reach the one workunit the submit creates.
TEST(Boinc, AdapterSubmitWithDeadline) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(5));
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  auto job = make_job(1, 600.0);
  server.submit(job, 9999.0);
  ASSERT_EQ(server.workunits().size(), 1u);
  EXPECT_DOUBLE_EQ(server.workunits().front().delay_bound, 9999.0);
  sim.run(86400.0);
}

TEST(Boinc, CreditGrantedForValidatedWork) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(10));
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs;
  jobs.reserve(5);
  for (int i = 0; i < 5; ++i) {
    jobs.push_back(make_job(static_cast<std::uint64_t>(i + 1), 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(10.0 * 86400.0);
  // 5 workunits of 3600 reference seconds -> 5 * 36 cobblestones total.
  EXPECT_NEAR(server.total_credit(), 5.0 * 36.0, 1e-9);
  const auto board = server.credit_leaderboard();
  ASSERT_FALSE(board.empty());
  EXPECT_GT(board.front().second, 0.0);
  for (std::size_t i = 1; i < board.size(); ++i) {
    EXPECT_GE(board[i - 1].second, board[i].second);
  }
  EXPECT_DOUBLE_EQ(server.host_credit(999999), 0.0);
}

TEST(Boinc, LeaderboardBreaksCreditTiesByHostId) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(24));
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  // Twenty equal workunits land on twenty different idle hosts at once:
  // those hosts tie on credit, the other four earn none. More than sixteen
  // ties, so an unstable sort on credit alone would scramble them.
  std::vector<grid::GridJob> jobs;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    jobs.push_back(make_job(id, 3600.0));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(10.0 * 86400.0);

  std::vector<std::uint64_t> credited;
  for (std::uint64_t host = 1; host <= 24; ++host) {
    if (server.host_credit(host) > 0.0) credited.push_back(host);
  }
  ASSERT_EQ(credited.size(), 20u);

  // Exactly the credited hosts, tied at 36, in ascending host id.
  const auto board = server.credit_leaderboard(24);
  ASSERT_EQ(board.size(), credited.size());
  for (std::size_t i = 0; i < board.size(); ++i) {
    EXPECT_EQ(board[i].first, credited[i]) << "rank " << i;
    EXPECT_EQ(board[i].second, 36.0) << "rank " << i;
  }
  // Two tied hosts at the cut: the lower id ranks first.
  const auto top_two = server.credit_leaderboard(2);
  ASSERT_EQ(top_two.size(), 2u);
  EXPECT_EQ(top_two[0].first, credited[0]);
  EXPECT_EQ(top_two[1].first, credited[1]);
}

TEST(Boinc, HostLedgerRejectsIdsOutsideThePool) {
  sim::Simulation sim;
  BoincServer server(sim, "boinc", reliable_pool(6));
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs;
  for (std::uint64_t id = 1; id <= 9; ++id) {
    jobs.push_back(make_job(id, 600.0 * static_cast<double>(id)));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(10.0 * 86400.0);

  for (const std::uint64_t outside : {std::uint64_t{0}, std::uint64_t{7},
                                      std::uint64_t{1} << 40}) {
    EXPECT_EQ(server.host_credit(outside), 0.0) << outside;
    EXPECT_EQ(server.host_valid_streak(outside), 0) << outside;
    EXPECT_FALSE(server.host_trusted(outside)) << outside;
  }
  double sum = 0.0;
  int streaks = 0;
  for (std::uint64_t host = 1; host <= 6; ++host) {
    sum += server.host_credit(host);
    streaks += server.host_valid_streak(host);
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(server.total_credit(), sum);
  EXPECT_EQ(streaks, 9);  // every workunit validated on its first result
}

TEST(Boinc, FlawedResultsEarnNoCredit) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(20);
  config.host_error_probability = 0.5;
  config.min_quorum = 2;
  config.target_nresults = 2;
  config.max_total_results = 20;
  config.seed = 77;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  auto job = make_job(1, 1800.0);
  server.submit(job);
  sim.run(30.0 * 86400.0);
  ASSERT_EQ(job.state, grid::JobState::kCompleted);
  // Credit went only to the agreeing (correct) results: exactly the
  // canonical-vote count times the per-result credit.
  const Workunit& wu = server.workunits().front();
  int canonical_count = 0;
  for (const Result& result : server.results_of(wu)) {
    if (result.state == ResultState::kSuccess && result.output_hash == 0) {
      ++canonical_count;
    }
  }
  EXPECT_NEAR(server.total_credit(),
              canonical_count * 1800.0 / 100.0, 1e-9);
}

TEST(Boinc, AdaptiveReplicationCrossChecksUnprovenHosts) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(20);
  config.adaptive_replication = true;
  config.trust_threshold = 3;
  config.min_quorum = 1;
  config.target_nresults = 1;
  config.max_total_results = 8;
  config.seed = 91;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs(4);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i + 1;
    jobs[i].true_reference_runtime = 600.0;
    server.submit(jobs[i]);
  }
  sim.run(10.0 * 86400.0);
  // Every workunit validated, but each needed >= 2 agreeing results while
  // all hosts were unproven.
  for (const Workunit& wu : server.workunits()) {
    EXPECT_EQ(wu.state, WorkunitState::kValidated);
    EXPECT_GE(successes(server, wu), 2);
  }
}

TEST(Boinc, TrustedHostsSkipTheCrossCheck) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(2);  // tiny pool gains trust fast
  config.adaptive_replication = true;
  config.trust_threshold = 2;
  config.seed = 93;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  // Submit sequentially so trust accrues between submissions (concurrent
  // submissions all report before any host is proven, so all would be
  // cross-checked).
  std::vector<grid::GridJob> jobs(8);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i + 1;
    jobs[i].true_reference_runtime = 600.0;
    sim.at(static_cast<double>(i) * 86400.0,
           [&server, &jobs, i] { server.submit(jobs[i]); });
  }
  sim.run(30.0 * 86400.0);
  // Both hosts end up trusted...
  EXPECT_TRUE(server.host_trusted(1));
  EXPECT_TRUE(server.host_trusted(2));
  // ...early workunits were cross-checked, late ones validate singly.
  const Workunit& first = server.workunits().front();
  const Workunit& last = server.workunits().back();
  EXPECT_EQ(first.state, WorkunitState::kValidated);
  EXPECT_GE(successes(server, first), 2);
  EXPECT_EQ(last.state, WorkunitState::kValidated);
  EXPECT_EQ(successes(server, last), 1);
}

TEST(Boinc, DisagreementResetsTrustStreak) {
  sim::Simulation sim;
  BoincPoolConfig config = reliable_pool(10);
  config.host_error_probability = 0.4;
  config.min_quorum = 2;
  config.target_nresults = 2;
  config.max_total_results = 16;
  config.seed = 97;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs(10);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i + 1;
    jobs[i].true_reference_runtime = 600.0;
    server.submit(jobs[i]);
  }
  sim.run(30.0 * 86400.0);
  // With a 40% error rate some host must have had its streak reset; the
  // streaks can never exceed the number of validated workunits.
  for (std::uint64_t host = 1; host <= 10; ++host) {
    EXPECT_LE(server.host_valid_streak(host), 10);
  }
  EXPECT_EQ(server.host_valid_streak(424242), 0);
}

TEST(Boinc, OnlineHostCountTracksChurn) {
  sim::Simulation sim;
  BoincPoolConfig config;
  config.hosts = 200;
  config.mean_on_hours = 8.0;
  config.mean_off_hours = 16.0;
  config.mean_lifetime_days = 1e6;
  config.seed = 41;
  BoincServer server(sim, "boinc", config);
  sim.run(86400.0);
  const double online = static_cast<double>(server.online_hosts());
  // Expect roughly the availability fraction (8/24) of 200 hosts.
  EXPECT_GT(online, 30.0);
  EXPECT_LT(online, 110.0);
}

// The census behind info() and online_hosts() is kept by state-change
// hooks; a full recount of the churn records must agree with it at every
// barrier, through churn, departures, transfers, compute errors, dropped
// and delayed reports, timeouts and reissues.
TEST(Boinc, IncrementalCensusMatchesARecountAtEveryBarrier) {
  sim::Simulation sim;
  BoincPoolConfig config;
  config.hosts = 300;
  config.mean_on_hours = 3.0;
  config.mean_off_hours = 5.0;
  config.mean_lifetime_days = 3.0;
  config.host_error_probability = 0.05;
  config.host_compute_error_probability = 0.05;
  config.target_nresults = 2;
  config.min_quorum = 2;
  config.default_delay_bound = 8.0 * 3600.0;
  config.report_drop_probability = 0.05;
  config.report_delay_probability = 0.3;
  config.report_delay_seconds = 2.0 * 3600.0;
  config.network = net::NetConfig::volunteer_default();
  config.seed = 77;
  BoincServer server(sim, "boinc", config);
  server.set_completion_callback(
      [](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs(120);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i] = make_job(i + 1, 3.0 * 3600.0);
    jobs[i].input_mb = 20.0;
    jobs[i].output_mb = 2.0;
  }
  std::size_t submitted = 0;
  std::size_t departed = 0;
  for (int barrier = 1; barrier <= 16; ++barrier) {
    // Half the jobs arrive up front, the rest a few per barrier.
    const std::size_t due = barrier == 1 ? jobs.size() / 2
                                         : std::min(jobs.size(),
                                                    submitted + 8);
    for (; submitted < due; ++submitted) server.submit(jobs[submitted]);
    sim.run(barrier * 6.0 * 3600.0);
    const grid::ResourceInfo info = server.info();
    const std::size_t online = server.online_hosts();
    const BoincServer::Census recount = server.census_recount();
    EXPECT_EQ(online, recount.online) << "barrier " << barrier;
    EXPECT_EQ(info.free_slots, recount.free) << "barrier " << barrier;
    EXPECT_EQ(info.total_slots, config.hosts - recount.departed)
        << "barrier " << barrier;
    departed = recount.departed;
  }
  // The run exercised the paths whose hooks the census depends on.
  EXPECT_GT(departed, 0u);
  EXPECT_GT(server.timed_out_results(), 0u);
  EXPECT_GT(server.reissued_results(), 0u);
  EXPECT_GT(server.network()->transfers_completed(), 0u);
}

// The workunit and result tables: workunits are listed by id from 1, each
// workunit's results come out in issuance order (ascending result id) even
// after timeouts reissue some of them, and together the workunits hold
// exactly the results issued. The transitioner's timeouts and aborts walk
// a workunit's results in this order and can dispatch synchronously, so
// the order is observable.
TEST(Boinc, WorkunitResultsKeepIssuanceOrderAcrossReissues) {
  sim::Simulation sim;
  BoincPoolConfig config;
  config.hosts = 40;
  config.mean_on_hours = 2.0;
  config.mean_off_hours = 6.0;
  config.mean_lifetime_days = 2.0;
  config.target_nresults = 2;
  config.min_quorum = 2;
  config.max_total_results = 6;
  config.default_delay_bound = 3.0 * 3600.0;  // short: forces timeouts
  config.seed = 29;
  BoincServer server(sim, "boinc", config);
  obs::MetricsRegistry metrics;
  server.set_observability(metrics, obs::Tracer::null());
  server.set_completion_callback(
      [](grid::GridJob&, const grid::JobOutcome&) {});
  std::vector<grid::GridJob> jobs(30);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i] = make_job(i + 1, 2.0 * 3600.0);
    server.submit(jobs[i]);
  }
  sim.run(10.0 * 86400.0);
  ASSERT_GT(server.timed_out_results(), 0u);
  ASSERT_GT(server.reissued_results(), 0u);

  std::uint64_t expected_id = 1;
  std::uint64_t results = 0;
  std::size_t reissued_workunits = 0;
  for (const Workunit& wu : server.workunits()) {
    EXPECT_EQ(wu.id, expected_id++);
    std::uint64_t previous = 0;
    std::size_t held = 0;
    for (const Result& result : server.results_of(wu)) {
      EXPECT_EQ(result.workunit_id, wu.id);
      EXPECT_GT(result.id, previous) << "workunit " << wu.id;
      previous = result.id;
      ++held;
    }
    if (held > 2) ++reissued_workunits;
    results += held;
  }
  EXPECT_EQ(expected_id, jobs.size() + 1);
  EXPECT_GT(reissued_workunits, 0u);
  EXPECT_EQ(results, metrics.counter_total("boinc.results_issued"));
}

}  // namespace
}  // namespace lattice::boinc
