// PORTAL-SCALE — the multi-tenant web tier at 10^4..10^6 registered-plus-
// guest users (DESIGN.md §15). The paper's portal served the Tree of Life
// community through one web front end; this harness asks what happens when
// the *user population* grows three orders of magnitude while the grid
// behind it stays fixed: does the portal layer (admission control, quotas,
// guest shedding, fair-share accounting) stay flat, or does per-user state
// creep into the submission path?
//
// Every row carries the SAME aggregate demand — a fixed number of batches
// at a fixed aggregate arrival rate, drawn from the same guest/registered/
// power class mix with heavy-tailed (Pareto, 2000-cap) batch sizes — and
// only the population the batches are attributed across changes: per-user
// rates scale inversely with the user count. A million-user row therefore
// measures the cost of a million-user *ledger* (quota map, fair-share
// odometers, id-partitioned attribution), not a million times the work.
// The frozen claim (BENCH_portal_scale.json, gated by check_bench.sh) is
// scale-invariance: p99 batch turnaround at 10^6 users stays within 3x of
// the 10^4-user row, and both are simulated-time figures, immune to wall
// clock noise.
//
// Each row reports submissions processed per wall second (the web tier's
// throughput proxy), p50/p99 batch turnaround in simulated hours over the
// accepted batches, admission counters (accepted / quota-denied / guest-
// shed), and the running peak RSS. The 10^4 row runs twice and the twin
// must be bit-identical — the admission pipeline and fair-share ordering
// are part of the deterministic core, not a best-effort sidecar.
//
// Flags:
//   --smoke       miniature sweep (10^3 and 10^4 users, small pool) as a
//                 tier-1 ctest lane; writes portal_scale_smoke JSON so the
//                 frozen artifact is never clobbered;
//   --users CSV   replace the sweep with explicit population sizes; a
//                 malformed list is a usage error.
#include <charconv>
#include <chrono>
#include <iostream>
#include <string_view>
#include <system_error>
#include <vector>

#include "bench_common.hpp"
#include "core/portal.hpp"
#include "core/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fmt.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

struct RowResult {
  std::uint64_t submissions = 0;  // submit() calls processed
  std::uint64_t accepted = 0;
  std::uint64_t quota_denied = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed_jobs = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double p50_turnaround_h = 0.0;
  double p99_turnaround_h = 0.0;
};

/// One full run at `users` total portal users: fixed aggregate demand
/// (n_batches at ~600 batches/day across the whole population, 30/50/20
/// guest/registered/power demand shares), per-user rates scaled inversely
/// with the population. Wall time covers arrival firing + drain.
RowResult run_once(std::size_t users, std::size_t n_batches,
                   std::size_t boinc_hosts, std::size_t estimator_corpus,
                   std::size_t estimator_trees) {
  using namespace lattice;
  core::LatticeConfig config;
  config.scheduler.mode = core::SchedulingMode::kEstimateAware;
  config.seed = 9;
  config.scheduler_period = 300.0;
  config.scheduler.fair_share_weight = 0.5;
  config.fair_share.order_queue = true;
  config.fair_share.backlog_per_slot = 4.0;
  core::LatticeSystem system(config);
  core::InventoryOptions inventory;
  inventory.boinc_hosts = boinc_hosts;
  inventory.include_boinc = boinc_hosts > 0;
  core::build_inventory(system, inventory);
  system.calibrate_speeds();
  bench::train_estimator(system, estimator_corpus, estimator_trees);

  core::PortalConfig portal_config;
  portal_config.quota_guest = {2, 100};
  portal_config.quota_registered = {10, 2000};
  portal_config.quota_power = {30, 10000};
  portal_config.shed_backlog_watermark = 50000;
  core::Portal portal(system, portal_config);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  system.enable_observability(metrics, tracer);
  portal.set_observability(metrics);

  // 90/9/1% population split; demand shares 30/50/20 across the classes
  // regardless of population size (per-user rates absorb the scaling).
  const double total_batches_per_day = 600.0;
  core::UserPopulationConfig pop;
  pop.guests.users = users * 90 / 100;
  pop.registered.users = users * 9 / 100;
  pop.power.users = users - pop.guests.users - pop.registered.users;
  // A class too small to hold a user (10 users has no registered one)
  // gets rate 0 rather than share / 0 = inf.
  const auto per_user = [&](double share, std::size_t class_users) {
    return class_users == 0 ? 0.0
                            : share * total_batches_per_day /
                                  static_cast<double>(class_users);
  };
  pop.guests.batches_per_user_day = per_user(0.30, pop.guests.users);
  pop.registered.batches_per_user_day = per_user(0.50, pop.registered.users);
  pop.power.batches_per_user_day = per_user(0.20, pop.power.users);
  pop.guests = {pop.guests.users, pop.guests.batches_per_user_day, 1.4, 1};
  pop.registered = {pop.registered.users,
                    pop.registered.batches_per_user_day, 1.3, 4};
  pop.power = {pop.power.users, pop.power.batches_per_user_day, 1.8, 50};
  pop.max_replicates = 2000;
  pop.max_expected_hours = 4.0;

  core::UserPopulation population(pop);
  core::GarliCostModel model(config.cost_params);
  util::Rng rng(41);
  const auto trace = population.generate(n_batches, model, rng);

  const auto t0 = std::chrono::steady_clock::now();
  core::submit_portal_workload(portal, trace);
  system.run(trace.back().arrival_seconds + 1.0);
  system.run_until_drained(400.0 * 86400.0);
  const auto t1 = std::chrono::steady_clock::now();

  RowResult result;
  result.wall_s = std::chrono::duration<double>(t1 - t0).count();
  result.accepted = metrics.counter_total("portal.admit_accepted");
  result.quota_denied = metrics.counter_total("portal.admit_quota_denied");
  result.shed = metrics.counter_total("portal.shed_guest");
  result.submissions = result.accepted + result.quota_denied + result.shed +
                       metrics.counter_total("portal.admit_rejected");
  result.completed_jobs = system.metrics().completed;
  result.events = system.simulation().events_fired();

  std::vector<double> turnaround_h;
  turnaround_h.reserve(portal.batches().size());
  for (const auto& [id, record] : portal.batches()) {
    if (record.done) {
      turnaround_h.push_back((record.finished - record.submitted) / 3600.0);
    }
  }
  if (!turnaround_h.empty()) {
    result.p50_turnaround_h = util::quantile(turnaround_h, 0.50);
    result.p99_turnaround_h = util::quantile(turnaround_h, 0.99);
  }
  return result;
}

/// Parse a `--users` comma-separated size list ("10000,100000"). Empty
/// when any entry is not a plain decimal count.
std::vector<std::size_t> parse_users_csv(std::string_view text) {
  std::vector<std::size_t> sizes;
  for (;;) {
    const std::string_view item = text.substr(0, text.find(','));
    std::size_t users = 0;
    const char* end = item.data() + item.size();
    const auto [ptr, error] = std::from_chars(item.data(), end, users);
    if (error != std::errc{} || ptr != end) return {};
    sizes.push_back(users);
    if (item.size() == text.size()) return sizes;
    text.remove_prefix(item.size() + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lattice;
  bool smoke = false;
  std::vector<std::size_t> user_list;
  const auto usage = [] {
    std::cerr << "usage: bench_portal_scale [--smoke] [--users N1,N2,...]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--users" && i + 1 < argc) {
      user_list = parse_users_csv(argv[++i]);
      if (user_list.empty()) return usage();
    } else if (arg.rfind("--users=", 0) == 0) {
      user_list = parse_users_csv(arg.substr(8));
      if (user_list.empty()) return usage();
    } else {
      return usage();
    }
  }

  bench::section(smoke ? "PORTAL-SCALE (smoke): multi-tenant admission "
                         "pipeline exercise"
                       : "PORTAL-SCALE: fixed demand across 10^4..10^6 "
                         "portal users");
  bench::paper_note(
      "\"we have developed a Web-based portal interface ... designed to "
      "serve the needs of the phylogenetics research community\"");

  std::vector<std::size_t> points =
      smoke ? std::vector<std::size_t>{1000, 10000}
            : std::vector<std::size_t>{10000, 100000, 1000000};
  if (!user_list.empty()) points = user_list;
  const std::size_t n_batches = smoke ? 120 : 1500;
  const std::size_t boinc_hosts = smoke ? 300 : 5000;
  const std::size_t corpus = smoke ? 60 : 150;
  const std::size_t trees = smoke ? 50 : 300;

  util::Table table({"users", "submissions", "accepted", "quota denied",
                     "guest shed", "grid jobs", "wall s", "subs/wall-s",
                     "p50 turn h", "p99 turn h", "rss peak KB"});
  table.set_precision(1);
  bench::JsonReport json(smoke ? "portal_scale_smoke" : "portal_scale");

  for (const std::size_t users : points) {
    RowResult row = run_once(users, n_batches, boinc_hosts, corpus, trees);
    if (users == 10000) {
      // Twin run: the multi-tenant pipeline is part of the deterministic
      // core. Identical seeds must reproduce every admission decision,
      // fair-share reorder, and completion bit-for-bit.
      const RowResult twin =
          run_once(users, n_batches, boinc_hosts, corpus, trees);
      if (twin.accepted != row.accepted || twin.shed != row.shed ||
          twin.completed_jobs != row.completed_jobs ||
          twin.events != row.events ||
          twin.p99_turnaround_h != row.p99_turnaround_h) {
        std::cout << "nondeterministic twin at " << users << " users!\n";
        return 1;
      }
      // Best-of-two wall time (the sim-side figures are identical).
      if (twin.wall_s < row.wall_s) row = twin;
    }
    const std::uint64_t row_rss_kb = bench::rss_peak_kb();
    const double subs_per_s =
        row.wall_s > 0 ? static_cast<double>(row.submissions) / row.wall_s
                       : 0.0;

    const std::string key = "users_" + std::to_string(users);
    json.set(key + "_users", static_cast<std::uint64_t>(users));
    json.set(key + "_submissions", row.submissions);
    json.set(key + "_accepted", row.accepted);
    json.set(key + "_quota_denied", row.quota_denied);
    json.set(key + "_guest_shed", row.shed);
    json.set(key + "_completed_jobs", row.completed_jobs);
    json.set(key + "_wall_s", row.wall_s);
    json.set(key + "_submissions_per_wall_s", subs_per_s);
    json.set(key + "_p50_turnaround_h", row.p50_turnaround_h);
    json.set(key + "_p99_turnaround_h", row.p99_turnaround_h);
    json.set(key + "_rss_peak_kb", row_rss_kb);

    table.add_row({static_cast<long long>(users),
                   static_cast<long long>(row.submissions),
                   static_cast<long long>(row.accepted),
                   static_cast<long long>(row.quota_denied),
                   static_cast<long long>(row.shed),
                   static_cast<long long>(row.completed_jobs), row.wall_s,
                   subs_per_s, row.p50_turnaround_h, row.p99_turnaround_h,
                   static_cast<long long>(row_rss_kb)});
  }
  json.set_rss_peak_kb();
  json.set_host_facts();
  table.print(std::cout);
  std::cout << "\n(shape: every row carries the same aggregate demand, so "
               "turnaround percentiles should be flat as the population "
               "grows — the portal layer's cost is the per-user ledger, "
               "and the p99 at 10^6 users is gated to within 3x of the "
               "10^4-user row; submissions/wall-s tracks the web tier's "
               "processing rate including rejected and shed traffic)\n";
  return 0;
}
