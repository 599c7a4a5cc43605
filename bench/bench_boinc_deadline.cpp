// DEADLINE — Estimate-derived BOINC report deadlines (paper §VI.A): "we
// can programmatically specify reasonable workunit deadlines, which are
// needed on a volunteer computing platform to periodically reissue work if
// results are not received in a timely manner. To date, we have had to
// fill in this value manually for each batch."
//
// Compares manual fixed deadlines against the estimate-derived policy
// across slack factors, on a churning volunteer pool with permanent host
// departures. Too-tight deadlines reissue work that would have arrived
// (wasted duplicates); too-loose deadlines let departed hosts stall the
// batch (latency).
#include <iostream>

#include "bench_common.hpp"
#include "core/deadline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace {

using namespace lattice;

struct Run {
  std::string policy;
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reissues = 0;
  std::uint64_t deadline_misses = 0;
  double wasted_duplicate_h = 0.0;
  double batch_latency_days = 0.0;
};

Run run_policy(const std::string& label, double fixed_deadline,
               double slack) {
  core::LatticeConfig config;
  config.scheduler.mode = core::SchedulingMode::kEstimateAware;
  config.seed = 23;
  if (slack > 0.0) {
    config.deadline.slack = slack;
    config.deadline.min_deadline_seconds = 3.0 * 3600.0;
  }
  core::LatticeSystem system(config);
  obs::MetricsRegistry obs_metrics;
  system.enable_observability(obs_metrics, obs::Tracer::null());

  boinc::BoincPoolConfig pool;
  pool.hosts = 300;
  pool.mean_speed = 0.8;
  pool.mean_on_hours = 6.0;
  pool.mean_off_hours = 18.0;
  pool.mean_lifetime_days = 30.0;  // real churn: hosts leave for good
  pool.seed = 29;
  if (fixed_deadline > 0.0) pool.default_delay_bound = fixed_deadline;
  boinc::BoincServer& server = system.add_boinc_pool("boinc", pool);
  system.calibrate_speeds();
  bench::train_estimator(system, 150);

  // A bootstrap-style batch of medium jobs. When slack <= 0 the estimate
  // is withheld from dispatch so the pool's manual default applies.
  const auto workload = bench::make_workload(150, 51, 24.0);
  for (auto features : workload) {
    features.search_reps = 1;
    const std::uint64_t id = system.submit_garli_job(features);
    if (slack <= 0.0) {
      // Manual-deadline mode: strip the estimate-driven override by
      // clearing the job's estimate (scheduling still works; the BOINC
      // dispatch path falls back to the pool default).
      const_cast<grid::GridJob*>(system.job(id))
          ->estimated_reference_runtime.reset();
    }
  }
  system.run_until_drained(180.0 * 86400.0);

  Run run;
  run.policy = label;
  run.completed = system.metrics().completed;
  run.timeouts = server.timed_out_results();
  run.reissues = server.reissued_results();
  run.deadline_misses = obs_metrics.counter_total("boinc.deadline_misses");
  run.wasted_duplicate_h = (server.wasted_duplicate_cpu_seconds() +
                            server.discarded_cpu_seconds()) /
                           3600.0;
  run.batch_latency_days = system.metrics().last_completion / 86400.0;
  return run;
}

}  // namespace

int main() {
  bench::section("DEADLINE: manual fixed vs estimate-derived deadlines");
  bench::paper_note(
      "estimate-derived deadlines replace per-batch manual values; "
      "accurate deadlines -> fewer spurious reissues and faster batches");

  util::Table table({"policy", "completed", "timeouts", "reissues",
                     "wasted CPU-h", "batch latency d"});
  table.set_precision(1);
  bench::JsonReport json("boinc_deadline");
  for (const auto& [label, fixed, slack] :
       {std::tuple<std::string, double, double>{"manual 1d", 86400.0, 0.0},
        {"manual 3d", 3.0 * 86400.0, 0.0},
        {"manual 14d", 14.0 * 86400.0, 0.0},
        {"estimate slack=2", 0.0, 2.0},
        {"estimate slack=4", 0.0, 4.0},
        {"estimate slack=8", 0.0, 8.0}}) {
    const Run run = run_policy(label, fixed, slack);
    std::string key = label;
    for (char& ch : key) {
      if (ch == ' ' || ch == '=') ch = '_';
    }
    json.set(key + "_reissues", run.reissues);
    json.set(key + "_deadline_misses", run.deadline_misses);
    json.set(key + "_wasted_duplicate_h", run.wasted_duplicate_h);
    json.set(key + "_batch_latency_d", run.batch_latency_days);
    table.add_row({run.policy, static_cast<long long>(run.completed),
                   static_cast<long long>(run.timeouts),
                   static_cast<long long>(run.reissues),
                   run.wasted_duplicate_h, run.batch_latency_days});
  }
  table.print(std::cout);
  std::cout << "\n(shape: tight manual deadlines reissue massively; loose "
               "manual deadlines stall on departed hosts; estimate-derived "
               "deadlines sit near the per-batch-tuned optimum without "
               "manual effort)\n";

  bench::section(
      "redundancy ablation: quorum 1 / quorum 2 / adaptive replication");
  bench::paper_note(
      "volunteer results cannot be blindly trusted; redundancy buys "
      "integrity with duplicated CPU — adaptive replication pays it only "
      "for unproven hosts");
  {
    util::Table table2({"policy", "validated", "corrupted", "results/WU",
                        "volunteer CPU-h"});
    table2.set_precision(2);
    for (const auto& [label, quorum, adaptive] :
         {std::tuple<std::string, int, bool>{"quorum 1 (trusting)", 1, false},
          {"quorum 2 (paranoid)", 2, false},
          {"adaptive (trust after 5)", 1, true}}) {
      sim::Simulation sim;
      boinc::BoincPoolConfig pool;
      pool.hosts = 60;
      pool.mean_on_hours = 10000.0;
      pool.mean_off_hours = 0.001;
      pool.mean_lifetime_days = 1e6;
      // BOINC's threat model: a minority of systematically bad hosts.
      pool.host_error_probability = 0.002;
      pool.flaky_host_fraction = 0.10;
      pool.flaky_error_probability = 0.6;
      pool.min_quorum = quorum;
      pool.target_nresults = quorum;
      pool.adaptive_replication = adaptive;
      pool.trust_threshold = 5;
      pool.max_total_results = 16;
      pool.seed = 71;
      boinc::BoincServer server(sim, "boinc", pool);
      server.set_completion_callback(
          [](grid::GridJob&, const grid::JobOutcome&) {});
      std::vector<grid::GridJob> jobs(400);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].id = i + 1;
        jobs[i].true_reference_runtime = 1800.0;
        // Stagger arrivals so trust can accrue, as in live traffic.
        sim.at(static_cast<double>(i) * 600.0,
               [&server, &jobs, i] { server.submit(jobs[i]); });
      }
      sim.run(120.0 * 86400.0);
      std::size_t validated = 0;
      std::size_t results = 0;
      for (const boinc::Workunit& wu : server.workunits()) {
        if (wu.state == boinc::WorkunitState::kValidated) ++validated;
        results += wu.result_count;
      }
      if (adaptive) {
        json.set("adaptive_results_per_wu",
                 static_cast<double>(results) /
                     static_cast<double>(server.workunits().size()));
        json.set("adaptive_corrupted", static_cast<std::uint64_t>(
                                           server.corrupted_validations()));
      }
      table2.add_row({label, static_cast<long long>(validated),
                      static_cast<long long>(server.corrupted_validations()),
                      static_cast<double>(results) /
                          static_cast<double>(server.workunits().size()),
                      server.total_cpu_seconds() / 3600.0});
    }
    table2.print(std::cout);
    std::cout << "(shape: trusting quorum 1 lets the flaky minority's "
                 "errors straight through; quorum 2 eliminates them at "
                 ">2x CPU; adaptive replication gets quorum-2 integrity at "
                 "~1.1 results per workunit once the population is proven)\n";
  }
  return 0;
}
