// SCHED-EFF — Grid-level scheduling effectiveness (paper §V–VI). The paper
// argues (without measuring) that a priori runtime estimates make the grid
// more efficient: long jobs avoid unstable resources, BOINC deadlines stop
// stalling batches, and speed-scaled ranking beats naive spreading. This
// harness quantifies it on the §IV inventory with a mixed portal workload:
//
//   round-robin      naive spreading (the paper's strawman)
//   load-only        "spreading work around fairly evenly"
//   estimate-aware   the paper's algorithm, fed RF estimates
//   oracle           the paper's algorithm, fed true runtimes (ceiling)
#include <iostream>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

int main() {
  using namespace lattice;

  bench::section("SCHED-EFF: scheduling policy comparison");
  bench::paper_note(
      "estimate-aware routing should complete more jobs with less wasted "
      "CPU than naive spreading; oracle bounds the estimator's headroom");

  const auto workload = bench::make_workload(250, 31337);
  const double horizon = 120.0 * 86400.0;

  util::Table table({"mode", "completed", "abandoned", "failed attempts",
                     "wasted CPU-h", "useful CPU-h", "mean turnaround h",
                     "makespan d"});
  table.set_precision(1);
  bench::JsonReport json("scheduling");

  for (const core::SchedulingMode mode :
       {core::SchedulingMode::kRoundRobin, core::SchedulingMode::kLoadOnly,
        core::SchedulingMode::kEstimateAware, core::SchedulingMode::kOracle}) {
    core::LatticeConfig config;
    config.scheduler.mode = mode;
    config.seed = 7;
    core::LatticeSystem system(config);
    obs::MetricsRegistry obs_metrics;
    system.enable_observability(obs_metrics, obs::Tracer::null());
    core::build_inventory(system, core::InventoryOptions{});
    system.calibrate_speeds();
    if (mode == core::SchedulingMode::kEstimateAware) {
      bench::train_estimator(system, 150);
    }

    // Jobs arrive over the first three days. Let the arrival window play
    // out before draining (run_until_drained exits early when nothing has
    // been submitted yet).
    util::Rng arrivals(5);
    for (const auto& features : workload) {
      const double at = arrivals.uniform(0.0, 3.0 * 86400.0);
      system.simulation().at(at, [&system, features] {
        system.submit_garli_job(features);
      });
    }
    system.run(3.0 * 86400.0 + 1.0);
    system.run_until_drained(horizon);

    const core::LatticeMetrics& m = system.metrics();
    const std::string prefix(core::scheduling_mode_name(mode));
    json.set(prefix + "_completed", static_cast<std::uint64_t>(m.completed));
    json.set(prefix + "_wasted_cpu_h", m.wasted_cpu_seconds / 3600.0);
    json.set(prefix + "_mean_turnaround_h", m.mean_turnaround() / 3600.0);
    json.set(prefix + "_sched_decisions",
             obs_metrics.counter_total("sched.decisions"));
    json.set(prefix + "_route_unstable",
             obs_metrics.counter_total("sched.route_unstable"));
    json.set(prefix + "_grid_preemptions",
             obs_metrics.counter_total("grid.preemptions"));
    json.set(prefix + "_boinc_deadline_misses",
             obs_metrics.counter_total("boinc.deadline_misses"));
    table.add_row({std::string(core::scheduling_mode_name(mode)),
                   static_cast<long long>(m.completed),
                   static_cast<long long>(m.abandoned),
                   static_cast<long long>(m.failed_attempts),
                   m.wasted_cpu_seconds / 3600.0,
                   m.useful_cpu_seconds / 3600.0,
                   m.mean_turnaround() / 3600.0,
                   m.last_completion / 86400.0});
  }
  table.print(std::cout);
  std::cout << "\n(shape: estimate-aware ~ oracle << round-robin in wasted "
               "CPU and turnaround; all modes see the same job stream)\n";
  return 0;
}
