// Shared fixtures for the benchmark harnesses: estimator training,
// workload generation, and uniform result printing. The paper-shaped
// resource inventory (§IV) is core::lattice_inventory.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.hpp"
#include "core/estimator.hpp"
#include "core/lattice.hpp"
#include "core/inventory.hpp"
#include "phylo/kernels/kernels.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace lattice::bench {

/// Machine-readable benchmark results: collects key/value metrics and
/// writes BENCH_<name>.json into the working directory on destruction, so
/// every bench leaves a perf-trajectory artifact future PRs can diff.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  void set(const std::string& key, double value) {
    std::ostringstream out;
    out.precision(12);
    out << value;
    entries_.emplace_back(key, out.str());
  }
  void set(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, '"' + escape(value) + '"');
  }
  void set_flag(const std::string& key, bool value) {
    entries_.emplace_back(key, value ? "true" : "false");
  }

  /// Record which host produced the numbers: core count, the likelihood
  /// kernels' active ISA tier, compiler version and build type.
  void set_host_facts() {
    set("host_nproc",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    set("host_isa", std::string(phylo::kernels::tier_name(
                        phylo::kernels::active_tier())));
    set("host_compiler", std::string(__VERSION__));
    set("host_build_type", std::string(LATTICE_BENCH_BUILD_TYPE));
  }

  void write() const {
    std::ofstream out("BENCH_" + name_ + ".json");
    out << "{\n  \"bench\": \"" << escape(name_) << "\"";
    for (const auto& [key, value] : entries_) {
      out << ",\n  \"" << escape(key) << "\": " << value;
    }
    out << "\n}\n";
  }

 private:
  static std::string escape(const std::string& text) {
    std::string out;
    for (const char ch : text) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Print a section header so bench output reads as a report. Also mutes
/// component logging so tables stay clean.
inline void section(const std::string& title) {
  util::set_log_level(util::LogLevel::kOff);
  std::cout << "\n=== " << title << " ===\n";
}

/// Print a paper-vs-measured annotation line.
inline void paper_note(const std::string& note) {
  std::cout << "[paper] " << note << "\n";
}

/// Train the system's estimator on a synthetic "previously submitted jobs"
/// corpus (the paper's ~150-job training matrix by default).
inline void train_estimator(core::LatticeSystem& system,
                            std::size_t corpus_size = 150,
                            std::size_t n_trees = 300,
                            std::size_t retrain_every = 0) {
  core::RuntimeEstimator::Config config;
  config.forest.n_trees = n_trees;
  config.retrain_every = retrain_every;
  system.estimator() = core::RuntimeEstimator(config);
  util::Rng rng(4242);
  system.estimator().train(
      core::generate_corpus(corpus_size, system.cost_model(), rng));
}

/// A mixed workload drawn from the portal job distribution. Jobs whose
/// expected reference runtime exceeds `max_expected_hours` are resampled —
/// the paper's months-long analyses are real but do not fit a simulable
/// benchmark horizon.
inline std::vector<core::GarliFeatures> make_workload(
    std::size_t n_jobs, std::uint64_t seed,
    double max_expected_hours = 100.0) {
  util::Rng rng(seed);
  const core::GarliCostModel model;
  std::vector<core::GarliFeatures> jobs;
  jobs.reserve(n_jobs);
  while (jobs.size() < n_jobs) {
    const core::GarliFeatures f = core::random_features(rng);
    if (model.expected_runtime(f) > max_expected_hours * 3600.0) continue;
    jobs.push_back(f);
  }
  return jobs;
}

}  // namespace lattice::bench
