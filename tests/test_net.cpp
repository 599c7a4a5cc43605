// Tests for lattice::net, the deterministic transfer engine: the
// analytic fair-share oracle on a shared server pipe, epoch-recompute
// exactness under staggered joins and fault transitions, start-order
// bit-identity, the zero-size fast path, cancellation, the class
// assignment, profile parsing, and the transfer-enabled volunteer pool end
// to end (twin-run determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "boinc/server.hpp"
#include "net/model.hpp"
#include "sim/simulation.hpp"
#include "util/ini.hpp"

namespace lattice::net {
namespace {

// One class whose access rate matches the server pipe, so the shared
// capacity is the binding constraint: N equal flows each run at C/N.
NetConfig shared_pipe_config(double mbps) {
  NetConfig config;
  config.enabled = true;
  config.server_down_mbps = mbps;
  config.server_up_mbps = mbps;
  LinkClassSpec spec;
  spec.name = "uniform";
  spec.down_mbps = mbps;
  spec.up_mbps = mbps;
  spec.latency_s = 0.0;
  spec.fraction = 1.0;
  config.classes = {spec};
  return config;
}

TEST(Net, EqualFlowsFinishAtAnalyticFairShareTime) {
  // C = 10 MB/s shared; 4 flows of 100 MB each run at C/4 and all finish
  // at exactly N*S/C = 40 s — the processor-sharing oracle.
  sim::Simulation sim;
  NetworkModel net(sim, shared_pipe_config(80.0));
  std::vector<double> done_at;
  for (int i = 0; i < 4; ++i) {
    net.start(Direction::kUp, 0, 100.0,
              [&sim, &done_at] { done_at.push_back(sim.now()); });
  }
  sim.run(1000.0);
  ASSERT_EQ(done_at.size(), 4u);
  for (const double when : done_at) {
    EXPECT_DOUBLE_EQ(when, 40.0);
  }
  EXPECT_EQ(net.transfers_completed(), 4u);
  EXPECT_DOUBLE_EQ(net.megabytes_moved(Direction::kUp), 400.0);
  EXPECT_EQ(net.active_transfers(), 0u);
}

TEST(Net, StaggeredJoinRecomputesPiecewiseRates) {
  // C = 10 MB/s. A (100 MB) starts alone at t=0 (rate 10). B (100 MB)
  // joins at t=5, when A has 50 MB left: both drop to 5 MB/s, A finishes
  // at t=15; B then runs alone at 10 MB/s and finishes at t=20. The
  // epoch recompute must reproduce the piecewise-constant integral
  // exactly, not approximately.
  sim::Simulation sim;
  NetworkModel net(sim, shared_pipe_config(80.0));
  double a_done = 0.0;
  double b_done = 0.0;
  net.start(Direction::kDown, 0, 100.0, [&] { a_done = sim.now(); });
  sim.at(5.0, [&] {
    net.start(Direction::kDown, 0, 100.0, [&] { b_done = sim.now(); });
  });
  sim.run(1000.0);
  EXPECT_DOUBLE_EQ(a_done, 15.0);
  EXPECT_DOUBLE_EQ(b_done, 20.0);
}

TEST(Net, SameEpochStartOrderIsUnobservable) {
  // Two flows of different sizes started in the same event, in both
  // orders: completion times must be bitwise identical — the engine keys
  // on (finish_key, id) virtual progress, never on arrival order.
  auto run_order = [](bool small_first) {
    sim::Simulation sim;
    NetworkModel net(sim, shared_pipe_config(80.0));
    double small_done = 0.0;
    double large_done = 0.0;
    const auto start_small = [&] {
      net.start(Direction::kUp, 0, 30.0, [&] { small_done = sim.now(); });
    };
    const auto start_large = [&] {
      net.start(Direction::kUp, 0, 70.0, [&] { large_done = sim.now(); });
    };
    if (small_first) {
      start_small();
      start_large();
    } else {
      start_large();
      start_small();
    }
    sim.run(1000.0);
    return std::make_pair(small_done, large_done);
  };
  const auto [s1, l1] = run_order(true);
  const auto [s2, l2] = run_order(false);
  // Analytic: both at 5 MB/s until small's 30 MB done (t=6); large then
  // finishes its remaining 40 MB alone at 10 MB/s (t=10).
  EXPECT_DOUBLE_EQ(s1, 6.0);
  EXPECT_DOUBLE_EQ(l1, 10.0);
  EXPECT_EQ(s1, s2);  // bitwise, not approximately
  EXPECT_EQ(l1, l2);
}

TEST(Net, ClassAccessRateBindsBeforeServerCapacity) {
  // A 1 MB/s class under an 80 MB/s server pipe: two flows do NOT contend
  // (2 x 1 < 80), each runs at the class rate.
  NetConfig config = shared_pipe_config(640.0);
  config.classes[0].down_mbps = 8.0;  // 1 MB/s
  sim::Simulation sim;
  NetworkModel net(sim, config);
  std::vector<double> done_at;
  net.start(Direction::kDown, 0, 10.0,
            [&] { done_at.push_back(sim.now()); });
  net.start(Direction::kDown, 0, 10.0,
            [&] { done_at.push_back(sim.now()); });
  sim.run(1000.0);
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_DOUBLE_EQ(done_at[0], 10.0);
  EXPECT_DOUBLE_EQ(done_at[1], 10.0);
}

TEST(Net, LatencyIsAddedAfterBytes) {
  NetConfig config = shared_pipe_config(80.0);
  config.classes[0].latency_s = 2.5;
  sim::Simulation sim;
  NetworkModel net(sim, config);
  double done = 0.0;
  net.start(Direction::kDown, 0, 10.0, [&] { done = sim.now(); });
  sim.run(1000.0);
  EXPECT_DOUBLE_EQ(done, 1.0 + 2.5);
}

TEST(Net, ZeroSizeTransferTakesTheLatencyOnlyFastPath) {
  NetConfig config = shared_pipe_config(80.0);
  config.classes[0].latency_s = 0.5;
  sim::Simulation sim;
  NetworkModel net(sim, config);
  double done = -1.0;
  const std::uint64_t id =
      net.start(Direction::kUp, 0, 0.0, [&] { done = sim.now(); });
  // Already completed: it never entered the contention engine, so there
  // is nothing to cancel (callers guard stale callbacks by result id).
  EXPECT_FALSE(net.cancel(id));
  EXPECT_EQ(net.active_transfers(), 0u);
  sim.run(10.0);
  EXPECT_DOUBLE_EQ(done, 0.5);
  EXPECT_EQ(net.transfers_started(), 1u);
  EXPECT_EQ(net.transfers_completed(), 1u);
}

TEST(Net, EachTransferFiresOnePipeEventPlusItsDelivery) {
  // The event budget (docs/NETWORKING.md): however many flows share the
  // pipes, a transfer costs the kernel exactly one pipe event (the firing
  // that retires it) plus one delivery event (its latency timer). 64
  // transfers of distinct sizes alternate direction and link class, each
  // started by its own staggered event, so flows keep joining pipes that
  // already have a completion pending.
  NetConfig config = shared_pipe_config(80.0);
  config.classes[0].fraction = 0.5;
  config.classes.push_back(LinkClassSpec{"slow", 4.0, 1.0, 0.3, 0.5});
  sim::Simulation sim;
  NetworkModel net(sim, config);
  constexpr std::uint64_t kTransfers = 64;
  std::uint64_t delivered = 0;
  for (std::uint64_t i = 0; i < kTransfers; ++i) {
    sim.at(0.25 * static_cast<double>(i), [&net, &delivered, i] {
      net.start(i % 2 == 0 ? Direction::kDown : Direction::kUp,
                static_cast<std::uint32_t>(i / 2 % 2),
                5.0 + 1.5 * static_cast<double>(i),
                [&delivered] { ++delivered; });
    });
  }
  sim.run(1e6);
  ASSERT_EQ(delivered, kTransfers);
  EXPECT_EQ(net.transfers_completed(), kTransfers);
  EXPECT_EQ(net.active_transfers(), 0u);
  // The staggered starts are the test's own events; the rest is the net
  // engine's.
  EXPECT_EQ(sim.events_fired() - kTransfers, 2 * kTransfers);
}

TEST(Net, CancelReleasesShareToSurvivors) {
  // Two 100 MB flows at 5 MB/s each; cancelling one at t=5 (attained 25)
  // lets the survivor run at 10 MB/s: 75 MB remain -> finishes at 12.5 s.
  sim::Simulation sim;
  NetworkModel net(sim, shared_pipe_config(80.0));
  double done = 0.0;
  bool cancelled_fired = false;
  const std::uint64_t keep =
      net.start(Direction::kDown, 0, 100.0, [&] { done = sim.now(); });
  const std::uint64_t drop = net.start(Direction::kDown, 0, 100.0,
                                       [&] { cancelled_fired = true; });
  (void)keep;
  sim.at(5.0, [&] { EXPECT_TRUE(net.cancel(drop)); });
  sim.run(1000.0);
  EXPECT_DOUBLE_EQ(done, 12.5);
  EXPECT_FALSE(cancelled_fired);
  EXPECT_EQ(net.transfers_cancelled(), 1u);
  EXPECT_EQ(net.transfers_completed(), 1u);
}

TEST(Net, UplinkOutageStallsAndResumesExactly) {
  // 10 MB at 10 MB/s would finish at t=1; a [0.5, 2.0) uplink outage
  // freezes progress for 1.5 s, so it finishes at exactly 2.5 s.
  sim::Simulation sim;
  NetworkModel net(sim, shared_pipe_config(80.0));
  double done = 0.0;
  net.start(Direction::kUp, 0, 10.0, [&] { done = sim.now(); });
  sim.at(0.5, [&] { net.set_uplink_outage(true); });
  sim.at(2.0, [&] { net.set_uplink_outage(false); });
  sim.run(1000.0);
  EXPECT_DOUBLE_EQ(done, 2.5);
}

TEST(Net, BandwidthScaleWindowSlowsThenRestores) {
  // [link.<class>] windows: 10 MB at 1 MB/s class rate; scale 0.5 over
  // [2, 6) makes those 4 seconds move 2 MB instead of 4, pushing
  // completion from t=10 to t=12.
  NetConfig config = shared_pipe_config(640.0);
  config.classes[0].down_mbps = 8.0;
  sim::Simulation sim;
  NetworkModel net(sim, config);
  double done = 0.0;
  net.start(Direction::kDown, 0, 10.0, [&] { done = sim.now(); });
  sim.at(2.0, [&] { net.set_class_bandwidth_scale(0, 0.5); });
  sim.at(6.0, [&] { net.set_class_bandwidth_scale(0, 1.0); });
  sim.run(1000.0);
  EXPECT_DOUBLE_EQ(done, 12.0);
}

TEST(Net, ClassAssignmentIsDeterministicAndTracksFractions) {
  NetConfig config;
  config.enabled = true;
  LinkClassSpec fast;
  fast.name = "fast";
  fast.fraction = 0.75;
  LinkClassSpec slow;
  slow.name = "slow";
  slow.fraction = 0.25;
  config.classes = {fast, slow};
  std::size_t slow_count = 0;
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    const std::uint32_t cls = config.class_of_host(key);
    EXPECT_EQ(cls, config.class_of_host(key));  // pure function of the key
    ASSERT_LT(cls, 2u);
    if (cls == 1) ++slow_count;
  }
  // The golden-ratio walk is a low-discrepancy sequence: over 1000 hosts
  // the 25% cohort lands within a percent of its target.
  EXPECT_NEAR(static_cast<double>(slow_count) / 1000.0, 0.25, 0.01);
}

TEST(Net, ExpectedStagingWeighsCohortsByFraction) {
  const NetConfig config = NetConfig::volunteer_default();
  sim::Simulation sim;
  NetworkModel net(sim, config);
  const double small = net.expected_staging_seconds(0.1, 0.5);
  const double large = net.expected_staging_seconds(100.0, 0.5);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
  // The modem cohort (0.056 Mbps down, 10% of hosts) dominates the mean:
  // 100 MB takes ~14286 s on it, so the weighted mean must exceed 1400 s.
  EXPECT_GT(large, 1400.0);
}

TEST(Net, ProfileParsingValidates) {
  const std::string good =
      "[net]\nenabled = true\nserver_down_mbps = 100\n"
      "[class.dsl]\ndown_mbps = 8\nup_mbps = 1\nlatency_s = 0.05\n"
      "fraction = 1.0\n";
  const NetConfig config = net_profile_from_ini(util::IniFile::parse(good));
  EXPECT_TRUE(config.enabled);
  ASSERT_EQ(config.classes.size(), 1u);
  EXPECT_EQ(config.classes[0].name, "dsl");
  EXPECT_DOUBLE_EQ(config.classes[0].down_mbps, 8.0);

  EXPECT_THROW(net_profile_from_ini(
                   util::IniFile::parse("[net]\nenabled = true\n")),
               std::runtime_error);  // enabled but classless
  EXPECT_THROW(net_profile_from_ini(util::IniFile::parse(
                   "[net]\nenabled = true\n"
                   "[class.x]\ndown_mbps = -1\n")),
               std::runtime_error);
  EXPECT_THROW(net_profile_from_ini(util::IniFile::parse(
                   "[net]\nenabled = true\n"
                   "[class.x]\nfraction = 0\n")),
               std::runtime_error);
  EXPECT_THROW(net_profile_from_ini(util::IniFile::parse(
                   "[net]\nenabled = true\n"
                   "[class.x]\nlatency_s = -0.1\n")),
               std::runtime_error);
}

// ---------------------------------------------------------------------
// The transfer-enabled volunteer pool end to end.

boinc::BoincPoolConfig net_pool(std::size_t hosts) {
  boinc::BoincPoolConfig config;
  config.hosts = hosts;
  config.mean_on_hours = 8.0;
  config.mean_off_hours = 16.0;
  config.mean_lifetime_days = 1e6;
  config.host_error_probability = 0.0;
  config.seed = 7;
  config.network = NetConfig::volunteer_default();
  return config;
}

grid::GridJob make_job(std::uint64_t id, double runtime, double input_mb,
                       double output_mb) {
  grid::GridJob job;
  job.id = id;
  job.true_reference_runtime = runtime;
  job.input_mb = input_mb;
  job.output_mb = output_mb;
  return job;
}

// Drive one full pool run and fingerprint it: per-job completion times
// plus every net counter. Any nondeterminism across runs shows up here.
std::vector<std::pair<std::uint64_t, double>> run_pool(std::uint64_t* moved) {
  sim::Simulation sim;
  boinc::BoincServer server(sim, "pool", net_pool(40));
  std::vector<std::pair<std::uint64_t, double>> completions;
  server.set_completion_callback(
      [&](grid::GridJob& job, const grid::JobOutcome& outcome) {
        if (outcome.completed()) {
          completions.emplace_back(job.id, sim.now());
        }
      });
  std::vector<grid::GridJob> jobs;
  jobs.reserve(12);
  for (std::uint64_t i = 1; i <= 12; ++i) {
    jobs.push_back(make_job(i, 2.0 * 3600.0, 4.0 + static_cast<double>(i),
                            0.5));
  }
  for (auto& job : jobs) server.submit(job);
  sim.run(60.0 * 86400.0);
  EXPECT_EQ(completions.size(), 12u);
  const NetworkModel* net = server.network();
  EXPECT_NE(net, nullptr);
  EXPECT_GE(net->transfers_completed(), 24u);  // a down + an up per job
  EXPECT_GT(net->megabytes_moved(Direction::kDown), 0.0);
  *moved = static_cast<std::uint64_t>(
      std::llround(net->megabytes_moved(Direction::kDown) * 1e6));
  return completions;
}

TEST(NetPool, TwinRunsAreBitIdentical) {
  std::uint64_t moved_a = 0;
  std::uint64_t moved_b = 0;
  const auto a = run_pool(&moved_a);
  const auto b = run_pool(&moved_b);
  EXPECT_EQ(a, b);  // completion id+time streams, bitwise
  EXPECT_EQ(moved_a, moved_b);
}

TEST(NetPool, DisabledNetworkLeavesServerTransferFree) {
  sim::Simulation sim;
  boinc::BoincPoolConfig config = net_pool(10);
  config.network = NetConfig{};  // disabled: the free-staging baseline
  boinc::BoincServer server(sim, "pool", config);
  EXPECT_EQ(server.network(), nullptr);
  int completed = 0;
  server.set_completion_callback(
      [&](grid::GridJob&, const grid::JobOutcome& outcome) {
        if (outcome.completed()) ++completed;
      });
  grid::GridJob job = make_job(1, 3600.0, 100.0, 1.0);
  server.submit(job);
  sim.run(30.0 * 86400.0);
  EXPECT_EQ(completed, 1);
}

// A zero-size download's latency callback cannot be cancelled, so it can
// arrive after its task is gone: cancelling the workunit right after
// dispatch must leave that callback a no-op — the host neither computes
// nor uploads, and counts as free again.
TEST(NetPool, StaleDownloadCallbackAfterCancelIsANoOp) {
  sim::Simulation sim;
  boinc::BoincPoolConfig config = net_pool(1);
  config.mean_on_hours = 10000.0;  // effectively always on
  config.mean_off_hours = 0.001;
  boinc::BoincServer server(sim, "pool", config);
  server.set_completion_callback(
      [](grid::GridJob&, const grid::JobOutcome&) {});
  grid::GridJob job = make_job(1, 3600.0, 0.0, 1.0);
  server.submit(job);
  const boinc::Workunit& wu = server.workunits().front();
  ASSERT_EQ(wu.result_count, 1u);
  const boinc::Result& result = *server.results_of(wu).begin();
  ASSERT_EQ(result.state, boinc::ResultState::kInProgress);
  ASSERT_EQ(server.info().free_slots, 0u);
  server.cancel(job.id);
  sim.run(2.0 * 86400.0);  // the latency callback fires in here
  EXPECT_EQ(result.state, boinc::ResultState::kAborted);
  EXPECT_EQ(server.total_cpu_seconds(), 0.0);
  EXPECT_EQ(server.network()->transfers_started(), 1u);  // no upload
  EXPECT_EQ(server.info().free_slots, 1u);
}

}  // namespace
}  // namespace lattice::net
