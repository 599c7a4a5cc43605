// lattice_bench — the end-to-end benchmark program.
//
//   lattice_bench --workload NAME --seconds S [--seed N] [--trace 0|1]
//                 [--fault-plan PATH] [--layers-out PATH] [--git-rev REV]
//
// --seconds has no default: benchmark/run.sh passes BENCHMARK.json's
// run_seconds, so every run measures for that one length.
//
// An untraced run (--trace 0) times kSetupOnlyRuns set-ups alone, then
// repeats the workload — set-up, then the measured phase — while another
// pass fits in --seconds (at least once), and reports the median of each
// end-to-end metric. A traced run (--trace 1) makes one set-up alone, one
// untraced pass, one traced pass of the same seed, and for garli_search a
// serial (poolless) pass; it reports the per-layer metrics and writes the
// traced pass's spans to --layers-out.
//
// Every pass is checked; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit code
// is non-zero when any check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "phylo/kernels/kernels.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace lattice::bench {
namespace {

/// Set-up-only repetitions an untraced run makes before its passes. A
/// set-up takes 0.05-0.2 s, so a short burst on the host moves one sample by
/// tens of percent; the median over this many stays put.
constexpr std::size_t kSetupOnlyRuns = 8;

struct Spec {
  const char* name;
  const char* unit;
};

// The metric catalog; BENCHMARK.json and benchmark/README.md list the same
// names. Every workload reports every metric: a layer a workload does not
// exercise reads 0.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"work_per_s", "1/s"},
    {"rss_peak_mb", "MB"},
    {"job_turnaround_p50_h", "h"},
    {"job_turnaround_p99_h", "h"},
    {"batch_turnaround_mean_h", "h"},
    {"useful_cpu_frac", "ratio"},
    {"valid_result_frac", "ratio"},
};

constexpr Spec kPerLayer[] = {
    {"setup.inputs_s", "s"},
    {"setup.inventory_s", "s"},
    {"setup.calibrate_s", "s"},
    {"setup.train_s", "s"},
    {"setup.populations_s", "s"},
    {"lattice.drain_s", "s"},
    {"lattice.slice_ms_p50", "ms"},
    {"lattice.slice_ms_p99", "ms"},
    {"lattice.failed_attempts", "count"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.peak_pending", "count"},
    {"sim.handler_s", "s"},
    {"sim.kernel_self_s", "s"},
    {"sched.decisions", "count"},
    {"sched.placement_yield", "ratio"},
    {"sched.candidates_per_decision", "count"},
    {"sched.choose_us_p50", "us"},
    {"sched.choose_us_p99", "us"},
    {"sched.route_unstable_frac", "ratio"},
    {"sched.queue_wait_mean_s", "s"},
    {"sched.predictor_abs_error_mean_s", "s"},
    {"sched.fair_share_reorders", "count"},
    {"portal.submit_us_p50", "us"},
    {"portal.submit_us_p99", "us"},
    {"portal.admit_accepted", "count"},
    {"portal.admit_rejected", "count"},
    {"portal.admit_quota_denied", "count"},
    {"portal.shed_guest", "count"},
    {"portal.batch_turnaround_p50_h", "h"},
    {"portal.batch_turnaround_p99_h", "h"},
    {"portal.jobs_per_batch", "count"},
    {"estimator.predict_us_p50", "us"},
    {"estimator.eta_rel_error_p50", "ratio"},
    {"grid.attempts_started", "count"},
    {"grid.attempt_yield", "ratio"},
    {"grid.preemptions", "count"},
    {"grid.outage_kills", "count"},
    {"grid.queue_wait_mean_s", "s"},
    {"boinc.results_issued", "count"},
    {"boinc.result_yield", "ratio"},
    {"boinc.results_reissued", "count"},
    {"boinc.results_timed_out", "count"},
    {"boinc.deadline_misses", "count"},
    {"boinc.queue_wait_mean_s", "s"},
    {"boinc.corrupted_validations", "count"},
    {"net.transfers_started", "count"},
    {"net.transfer_yield", "ratio"},
    {"net.mb_moved", "MB"},
    {"net.transfer_wait_mean_s", "s"},
    {"fault.outages_begun", "count"},
    {"fault.reports_dropped", "count"},
    {"fault.link_windows_begun", "count"},
    {"fault.uplink_outages_begun", "count"},
    {"phylo.search_s.dna", "s"},
    {"phylo.search_s.aa", "s"},
    {"phylo.search_s.codon", "s"},
    {"phylo.eval_us.dna", "us"},
    {"phylo.eval_us.aa", "us"},
    {"phylo.eval_us.codon", "us"},
    {"phylo.inc_eval_us.dna", "us"},
    {"phylo.inc_eval_us.aa", "us"},
    {"phylo.inc_eval_us.codon", "us"},
    {"phylo.evaluations", "count"},
    {"phylo.generations", "count"},
    {"phylo.partials_reuse_frac", "ratio"},
    {"phylo.matrix_cache_hit_frac", "ratio"},
    {"threadpool.speedup", "ratio"},
    {"obs.trace_overhead", "ratio"},
};

using Runner = PassResult (*)(const PassConfig&);

struct Workload {
  const char* name;
  Runner run;
};

constexpr Workload kWorkloads[] = {
    {"volunteer_1m", run_volunteer_1m},
    {"recovery_500k", run_recovery_500k},
    {"portal_1m_users", run_portal_1m_users},
    {"garli_search", run_garli_search},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool traced = false;
  std::string fault_plan;
  std::string layers_out;
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lattice_bench: " << why
            << "\nusage: lattice_bench --workload NAME --seconds S [--seed N] "
               "[--trace 0|1] [--fault-plan PATH] "
               "[--layers-out PATH] [--git-rev REV]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      options.traced = value == "1";
    } else if (arg == "--fault-plan") {
      options.fault_plan = value;
    } else if (arg == "--layers-out") {
      options.layers_out = value;
    } else if (arg == "--git-rev") {
      options.git_rev = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (options.seconds == 0.0) usage("--seconds is required");
  return options;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Text that reads back as exactly `value` (17 significant digits).
std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string host_json(const Options& options) {
  return util::format(
      "{{\"nproc\": {}, \"cpu\": \"{}\", \"isa\": \"{}\", \"compiler\": "
      "\"{}\", \"build\": \"{}\", \"git\": \"{}\", \"seed\": {}}}",
      std::thread::hardware_concurrency(), json_escape(cpu_model()),
      phylo::kernels::tier_name(phylo::kernels::active_tier()),
      json_escape(__VERSION__), LATTICE_BENCH_BUILD_TYPE,
      json_escape(options.git_rev), options.seed);
}

/// Spans plus each one's self time (its duration minus the part its
/// children cover; children never overlap, since spans nest strictly).
void write_layers(const std::string& path, const Options& options,
                  const SpanLog& log, const MetricList& metrics) {
  const auto& spans = log.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const SpanLog::Span& span : spans) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::map<std::string, std::pair<double, std::size_t>> self_by_name;
  std::ofstream out(path);
  out << "{\n  \"workload\": \"" << json_escape(options.workload)
      << "\",\n  \"host\": " << host_json(options) << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << '"' << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& span = spans[i];
    const double self_us = span.end_us - span.start_us - child_us[i];
    auto& [self_total, count] = self_by_name[span.name];
    self_total += self_us;
    ++count;
    out << (i ? ",\n    " : "\n    ") << "{\"id\": " << i << ", \"name\": \""
        << json_escape(span.name) << "\", \"parent\": " << span.parent
        << ", \"start_us\": " << json_number(span.start_us)
        << ", \"end_us\": " << json_number(span.end_us)
        << ", \"self_us\": " << json_number(self_us) << '}';
  }
  out << "\n  ],\n  \"self_time_by_name\": {";
  bool first = true;
  for (const auto& [name, entry] : self_by_name) {
    out << (first ? "\n    " : ",\n    ") << '"' << json_escape(name)
        << "\": {\"self_s\": " << json_number(entry.first / 1e6)
        << ", \"spans\": " << entry.second << '}';
    first = false;
  }
  out << "\n  }\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Catalog order, each value taken from `values` (0 when a workload does
/// not exercise that layer).
MetricList in_catalog_order(const auto& catalog, const MetricList& values) {
  MetricList ordered;
  for (const Spec& spec : catalog) {
    ordered.push_back({spec.name, metric_value(values, spec.name), spec.unit});
  }
  return ordered;
}

int run(const Options& options) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload '" + options.workload + "'");
  const bool is_search = options.workload == "garli_search";

  PassConfig config;
  config.seed = options.seed;
  config.fault_plan = options.fault_plan;

  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const PassResult& pass, const std::string& label) {
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& problem : pass.problems) {
      problems.push_back(label + ": " + problem);
    }
  };

  PassConfig setup_only = config;
  setup_only.setup_only = true;
  MetricList metrics;
  if (!options.traced) {
    const auto start = Clock::now();
    // Set-up alone, first: set-up is short next to a pass, so it gets
    // samples of its own (work moved into set-up must show in a steady
    // median), and the first timed pass no longer pays the process's
    // first-touch page faults on its own.
    std::vector<double> setups;
    for (std::size_t i = 0; i < kSetupOnlyRuns; ++i) {
      setups.push_back(
          metric_value(workload->run(setup_only).end_to_end, "setup_s"));
    }
    std::vector<PassResult> passes;
    double slowest = 0.0;
    // Another pass only when it fits in the remaining time (a pass takes
    // about as long as the slowest one so far).
    do {
      const auto pass_start = Clock::now();
      passes.push_back(workload->run(config));
      slowest = std::max(slowest, seconds_since(pass_start));
      const PassResult& pass = passes.back();
      account(pass, util::format("pass {}", passes.size()));
      std::cout << util::format(
          "pass {}: setup {:.4f} s, measured phase {:.4f} s\n", passes.size(),
          metric_value(pass.end_to_end, "setup_s"), pass.phase_s);
      if (pass.digest != passes.front().digest) {
        problems.push_back(util::format(
            "pass {} did not reproduce pass 1's outputs", passes.size()));
      }
    } while (seconds_since(start) + slowest <= options.seconds);
    for (const PassResult& pass : passes) {
      setups.push_back(metric_value(pass.end_to_end, "setup_s"));
    }
    MetricList medians = {{"setup_s", quantile(setups, 0.5), "s"},
                          {"rss_peak_mb", rss_peak_mb(), "MB"}};
    for (const Metric& metric : passes.front().end_to_end) {
      std::vector<double> values;
      for (const PassResult& pass : passes) {
        values.push_back(metric_value(pass.end_to_end, metric.name));
      }
      if (metric.name != "setup_s") {
        medians.push_back({metric.name, quantile(values, 0.5), metric.unit});
      }
    }
    metrics = in_catalog_order(kEndToEnd, medians);
    std::cout << util::format("passes: {}, set-ups: {}, {:.1f} s\n",
                              passes.size(), setups.size(),
                              seconds_since(start));
  } else {
    // A set-up alone first, so neither timed pass pays the process's
    // first-touch page faults by itself.
    workload->run(setup_only);
    const PassResult untraced = workload->run(config);
    account(untraced, "untraced pass");
    SpanLog spans;
    PassConfig traced_config = config;
    traced_config.traced = true;
    traced_config.spans = &spans;
    const PassResult traced = workload->run(traced_config);
    account(traced, "traced pass");
    if (traced.digest != untraced.digest) {
      problems.push_back("the traced pass did not reproduce the untraced one");
    }
    MetricList layers = traced.layers;
    layers.push_back({"obs.trace_overhead", traced.phase_s / untraced.phase_s,
                      "ratio"});
    if (is_search) {
      PassConfig serial_config = config;
      serial_config.pool_workers = 0;
      const PassResult serial = workload->run(serial_config);
      account(serial, "serial pass");
      if (serial.digest != untraced.digest) {
        problems.push_back(
            "the serial search differs from the pooled one (best "
            "log-likelihood bits, generations or evaluations)");
      }
      layers.push_back({"threadpool.speedup",
                        serial.phase_s / untraced.phase_s, "ratio"});
    }
    metrics = in_catalog_order(kPerLayer, layers);
    if (!options.layers_out.empty()) {
      write_layers(options.layers_out, options, spans, metrics);
      std::cout << "layers: " << options.layers_out << " ("
                << spans.spans().size() << " spans)\n";
    }
  }

  for (Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      problems.push_back(metric.name + " is not a finite number");
      metric.value = 0.0;
    }
  }
  failed += problems.size();
  const bool correct = problems.empty();

  std::cout << "workload: " << options.workload
            << (options.traced ? " (traced)" : "") << "\n"
            << "host: " << host_json(options) << "\n";
  for (const Metric& metric : metrics) {
    std::cout << util::format("  {} = {} {}\n", metric.name,
                              json_number(metric.value), metric.unit);
  }
  for (const std::string& problem : problems) {
    std::cout << "CHECK FAILED: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << json_number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lattice::bench

int main(int argc, char** argv) {
  lattice::util::set_log_level(lattice::util::LogLevel::kOff);
  const lattice::bench::Options options =
      lattice::bench::parse(argc, argv);
  try {
    return lattice::bench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "lattice_bench: " << error.what() << "\n";
    return 1;
  }
}
