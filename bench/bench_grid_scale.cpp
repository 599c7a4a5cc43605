// GRID-SCALE — The paper's capacity story (§II.B, §III.B, §IV): four
// institutions' clusters and Condor pools plus an international BOINC pool
// totalling "well over 5000 CPU cores", where "the BOINC client pool can
// easily grow to meet this demand". This harness runs the same
// six-investigator portal workload (6 x 2000-replicate batches, the web
// interface's maximum single submission) against the fixed institutional
// inventory while sweeping the volunteer pool from 2.5k to 100k hosts —
// the 10^5-host regime the scheduler-scalability pass targets.
//
// The 500k and 1M rows weak-scale the demand with the pool (6 batches per
// 100k hosts — more investigators, each still at the web interface's
// 2000-replicate cap): the paper's premise is that the resource base grows
// to meet demand, and a fixed 12k-job workload on a million-host pool
// would leave >98% of hosts idle, measuring idle-pool churn rather than
// scheduling. ns/decision divides wall time by completed placements
// (printed per row), so the sub-linear claim is about per-decision cost
// under proportionate load, not about shrinking the simulated pool's
// bookkeeping, which is inherently linear in hosts.
//
// Each sweep point reports the portal's submission wall time next to the
// drain's, simulator throughput (completed jobs and kernel events per
// second of drain wall time, best of `reps` runs to damp scheduling noise
// on shared machines), the volunteer pool's churn-calendar flips (idle
// hosts' on/off transitions, fired outside the kernel and so absent from
// the event count), wall-clock per scheduling decision, the
// kernel's peak pending-event depth, and the running peak RSS after the
// row. The 10k-host row also records the pre-index baseline measured on
// the seed (linear matchmaking, full-sweep transitioner, O(hosts) census)
// under identical optimization flags and workload, and the resulting
// speedup; the 100k row records the pre-sublinear-pass ns/decision so the
// before/after pair lives in the JSON artifact.
//
// Every row also runs a transfer-on twin (lattice::net volunteer mix
// instead of the free-staging fold) and reports its event throughput plus
// the overhead ratio — free-staging events/s over transfer-on events/s.
// The contention engine's budget is <= 1.3x at the 100k row
// (docs/NETWORKING.md); both figures are frozen in BENCH_grid_scale.json.
//
// Flags:
//   --smoke         miniature sweep (300/1000 hosts, one rep, half-size
//                   batches, quorum-2 over a flaky pool) as a tier-1 ctest
//                   on every lane including the sanitizers;
//   --hosts CSV     replace the sweep with explicit sizes, one rep each
//                   (e.g. --hosts 2500,10000,100000); a malformed list is
//                   a usage error.
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <system_error>

#include "bench_common.hpp"
#include "boinc/server.hpp"
#include "core/portal.hpp"
#include "net/config.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

namespace {

struct SweepResult {
  std::uint64_t completed = 0;
  double submit_wall_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t calendar_flips = 0;  // pool-calendar fires, off the kernel
  std::size_t peak_pending = 0;
  std::size_t total_slots = 0;
};

/// One full run at `hosts` volunteer hosts: build the inventory, submit
/// the portal workload, drain, and time the submission and the drain
/// separately (setup and estimator training excluded — the sweep measures
/// the portal and the scheduler, not the RF fit).
SweepResult run_once(std::size_t hosts, int batches,
                     std::size_t replicates_per_batch,
                     std::size_t estimator_corpus,
                     std::size_t estimator_trees, bool stress_boinc,
                     bool transfers) {
  using namespace lattice;
  core::LatticeConfig config;
  config.scheduler.mode = core::SchedulingMode::kEstimateAware;
  config.seed = 9;
  // Pin the pre-vectorization cost surface: every historical row in
  // BENCH_grid_scale.json was measured against these constants, and this
  // sweep gates on before/after ratios — repricing the workload would
  // silently change what "before" means (see GarliCostModel::Params).
  config.cost_params = core::GarliCostModel::Params::scalar_client();
  core::LatticeSystem system(config);
  bench::InventoryOptions inventory;
  inventory.boinc_hosts = hosts;
  inventory.include_boinc = hosts > 0;
  if (transfers) {
    // Transfer-on pass: the broadband/DSL/modem volunteer mix replaces the
    // free-staging fold, so every dispatch and report moves through the
    // lattice::net contention engine (docs/NETWORKING.md).
    inventory.boinc_network = net::NetConfig::volunteer_default();
  }
  if (stress_boinc) {
    // Smoke profile: quorum-2 validation over a 15% flaky pool with tight
    // report deadlines, so the validator, deadline heap, and reissue
    // machinery all run under the sanitizer lanes.
    inventory.boinc_min_quorum = 2;
    inventory.boinc_target_nresults = 2;
    inventory.boinc_flaky_fraction = 0.15;
    inventory.boinc_delay_bound = 2.0 * 86400.0;
  }
  bench::build_inventory(system, inventory);
  system.calibrate_speeds();
  bench::train_estimator(system, estimator_corpus, estimator_trees);
  core::Portal portal(system);

  // Demand from several AToL investigators at once, each submitting a
  // maximal bootstrap batch of short equal-rates searches (~0.5 reference
  // hours each) — the "pleasingly parallel" traffic the paper sends to
  // desktop/volunteer pools.
  phylo::GarliJob job;
  job.genthresh = 400;
  const auto submit_start = std::chrono::steady_clock::now();
  for (int user = 0; user < batches; ++user) {
    core::SubmissionRequest request;
    request.user_email = util::format("investigator{}@umd.edu", user);
    request.user_id = core::user_id_from_email(request.user_email);
    request.user_class = core::UserClass::kRegistered;
    request.job = job;
    request.replicates = replicates_per_batch;
    request.num_taxa = 45;
    request.num_patterns = 300;
    const auto outcome = portal.submit(request);
    if (!outcome.accepted) {
      std::cout << "portal rejected a batch!\n";
      std::exit(1);
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  system.run_until_drained(120.0 * 86400.0);
  const auto t1 = std::chrono::steady_clock::now();

  SweepResult result;
  result.completed = system.metrics().completed;
  result.submit_wall_s =
      std::chrono::duration<double>(t0 - submit_start).count();
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.events = system.simulation().events_fired();
  result.peak_pending = system.simulation().peak_pending();
  for (const auto& name : system.resource_names()) {
    result.total_slots += system.resource(name)->info().total_slots;
    if (const boinc::BoincServer* pool = system.pool(name)) {
      result.calendar_flips += pool->calendar_steps();
    }
  }
  return result;
}

/// Parse a `--hosts` comma-separated size list ("2500,10000,100000").
/// Empty when any entry is not a plain decimal count.
std::vector<std::size_t> parse_host_csv(std::string_view text) {
  std::vector<std::size_t> sizes;
  for (;;) {
    const std::string_view item = text.substr(0, text.find(','));
    std::size_t hosts = 0;
    const char* end = item.data() + item.size();
    const auto [ptr, error] = std::from_chars(item.data(), end, hosts);
    if (error != std::errc{} || ptr != end) return {};
    sizes.push_back(hosts);
    if (item.size() == text.size()) return sizes;
    text.remove_prefix(item.size() + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lattice;
  bool smoke = false;
  std::vector<std::size_t> host_list;
  const auto usage = [] {
    std::cerr << "usage: bench_grid_scale [--smoke] [--hosts N1,N2,...]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--hosts" && i + 1 < argc) {
      host_list = parse_host_csv(argv[++i]);
      if (host_list.empty()) return usage();
    } else if (arg.rfind("--hosts=", 0) == 0) {
      host_list = parse_host_csv(arg.substr(8));
      if (host_list.empty()) return usage();
    } else {
      return usage();
    }
  }

  bench::section(smoke
                     ? "GRID-SCALE (smoke): indexed scheduler exercise"
                     : "GRID-SCALE: throughput as the volunteer pool grows");
  bench::paper_note(
      "\"our resource base will automatically scale up to meet with demand "
      "by attracting more volunteer computers that run BOINC\"");

  // Pre-index baseline for the 10k-host row: completed jobs per wall
  // second of the seed implementation (linear MDS matchmaking, full-table
  // transitioner sweep, O(hosts) info() census, binary std::push_heap
  // kernel), measured best-of-N at -O3 -DNDEBUG on this exact workload
  // before the indexing pass landed.
  constexpr double kPreIndexJobsPerWallSec10k = 11289.5;
  // Pre-sublinear-pass baseline for the 100k-host row: ns per scheduling
  // decision measured on the previous PR (indexed matchmaking but hourly
  // idle-poll churn, linear best-score scan, collect-then-sort
  // match_online), same flags and workload.
  constexpr double kPreSublinearNsPerDecision100k = 105924.319;

  struct SweepPoint {
    std::size_t hosts;
    int reps;
  };
  // More reps where the before/after ratio is recorded; single runs at the
  // large sizes keep the full sweep under a couple of minutes.
  std::vector<SweepPoint> points =
      smoke ? std::vector<SweepPoint>{{300, 1}, {1000, 1}}
            : std::vector<SweepPoint>{{2500, 3},   {10000, 9},  {50000, 2},
                                      {100000, 2}, {500000, 1}, {1000000, 1}};
  if (!host_list.empty()) {
    points.clear();
    for (const std::size_t hosts : host_list) points.push_back({hosts, 1});
  }
  const std::size_t replicates = smoke ? 1000 : 2000;
  const std::size_t corpus = smoke ? 60 : 150;
  const std::size_t trees = smoke ? 50 : 300;

  util::Table table({"BOINC hosts", "total slots", "completed", "submit ms",
                     "wall s", "jobs/wall-s", "events/s", "ns/decision",
                     "peak pending", "rss peak KB", "net ev/s",
                     "net ovh x"});
  table.set_precision(1);
  bench::JsonReport json(smoke ? "grid_scale_smoke" : "grid_scale");
  json.set_host_facts();

  for (const SweepPoint& point : points) {
    // Weak scaling above the 100k baseline row: 6 investigator batches
    // per 100k hosts (see the header comment), identical workload to the
    // recorded baselines at and below 100k.
    const int batches =
        point.hosts > 100000
            ? static_cast<int>(6 * (point.hosts / 100000))
            : 6;
    // Best-of-reps: identical seeds give identical simulations, so reps
    // differ only in wall time; the minimum is the least-disturbed run.
    SweepResult best;
    for (int rep = 0; rep < point.reps; ++rep) {
      const SweepResult r = run_once(point.hosts, batches, replicates,
                                     corpus, trees, smoke,
                                     /*transfers=*/false);
      if (rep == 0 || r.wall_s < best.wall_s) best = r;
      if (r.completed != best.completed || r.events != best.events ||
          r.calendar_flips != best.calendar_flips) {
        std::cout << "nondeterministic rep at " << point.hosts
                  << " hosts!\n";
        return 1;
      }
    }
    // Transfer-on twin: same workload with the volunteer link-class mix
    // live, one rep (the column records the *overhead ratio*, and a single
    // run bounds it from above — a disturbed run only overstates the
    // cost). The event count grows (Transfer start/finish epochs enter the
    // kernel), so the comparable figure is event throughput, not jobs/s.
    const SweepResult net_run =
        run_once(point.hosts, batches, replicates, corpus, trees, smoke,
                 /*transfers=*/true);
    // Running peak RSS after this row: monotone across rows (ru_maxrss is
    // a high-water mark), so each row's figure bounds the memory needed up
    // to and including its own sweep size.
    const std::uint64_t row_rss_kb = bench::rss_peak_kb();

    const double jobs_per_s =
        best.wall_s > 0 ? static_cast<double>(best.completed) / best.wall_s
                        : 0.0;
    const double events_per_s =
        best.wall_s > 0 ? static_cast<double>(best.events) / best.wall_s
                        : 0.0;
    // Every completed job is one meta-scheduler placement; total wall over
    // placements is the end-to-end cost of a scheduling decision with all
    // simulation overheads attributed to it (an upper bound on the
    // decision itself).
    const double ns_per_decision =
        best.completed > 0 ? best.wall_s * 1e9 /
                                 static_cast<double>(best.completed)
                           : 0.0;

    const double net_events_per_s =
        net_run.wall_s > 0
            ? static_cast<double>(net_run.events) / net_run.wall_s
            : 0.0;
    const double net_ns_per_decision =
        net_run.completed > 0
            ? net_run.wall_s * 1e9 / static_cast<double>(net_run.completed)
            : 0.0;
    // Event-throughput regression of the transfer pass: free-staging
    // events/s over transfer-on events/s (>1 means the contention engine
    // slows the kernel down). Budget: <= 1.3x at the 100k row
    // (docs/NETWORKING.md), frozen in BENCH_grid_scale.json.
    const double net_overhead =
        net_events_per_s > 0 ? events_per_s / net_events_per_s : 0.0;

    const std::string key = "hosts_" + std::to_string(point.hosts);
    json.set(key + "_completed", best.completed);
    json.set(key + "_submit_wall_s", best.submit_wall_s);
    json.set(key + "_wall_s", best.wall_s);
    json.set(key + "_jobs_per_wall_s", jobs_per_s);
    json.set_events_per_sec(key, best.events, best.wall_s);
    json.set(key + "_calendar_flips", best.calendar_flips);
    json.set(key + "_ns_per_decision", ns_per_decision);
    json.set(key + "_peak_pending_events",
             static_cast<std::uint64_t>(best.peak_pending));
    json.set(key + "_rss_peak_kb", row_rss_kb);
    json.set(key + "_net_completed", net_run.completed);
    json.set(key + "_net_wall_s", net_run.wall_s);
    json.set(key + "_net_events", net_run.events);
    json.set(key + "_net_events_per_sec", net_events_per_s);
    json.set(key + "_net_ns_per_decision", net_ns_per_decision);
    json.set(key + "_net_overhead_ratio", net_overhead);
    if (!smoke && point.hosts == 10000) {
      json.set("before_jobs_per_wall_s_10k_hosts",
               kPreIndexJobsPerWallSec10k);
      json.set("speedup_vs_pre_index_10k",
               jobs_per_s / kPreIndexJobsPerWallSec10k);
    }
    if (!smoke && point.hosts == 100000) {
      json.set("ns_per_decision_100k_before", kPreSublinearNsPerDecision100k);
      json.set("ns_per_decision_100k_after", ns_per_decision);
    }
    table.add_row({static_cast<long long>(point.hosts),
                   static_cast<long long>(best.total_slots),
                   static_cast<long long>(best.completed),
                   best.submit_wall_s * 1e3,
                   best.wall_s, jobs_per_s, events_per_s, ns_per_decision,
                   static_cast<long long>(best.peak_pending),
                   static_cast<long long>(row_rss_kb), net_events_per_s,
                   net_overhead});
  }
  json.set_rss_peak_kb();
  table.print(std::cout);
  std::cout << "\n(shape: wall time grows far slower than the host count — "
               "hosts never enter the flat MDS directory (one entry per "
               "resource), and the keyed churn calendar and the two-band "
               "event kernel keep per-host cost low while the volunteer "
               "pool scales to 10^6 hosts; the 10k and "
               "100k rows record the measured speedups over the seed and "
               "the pre-sublinear pass, and the 500k/1M rows carry "
               "proportionately scaled demand; the net columns hold the "
               "transfer-on twin to its <=1.3x event-throughput budget)\n";
  return 0;
}
