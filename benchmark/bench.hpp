// Shared vocabulary of lattice_bench, the end-to-end benchmark program: the
// per-pass record every workload returns, the bench-level span log a traced
// pass keeps in memory, and small measurement helpers.
//
// lattice_bench observes the library only from outside: it times its own
// calls into public functions and reads the obs::MetricsRegistry counters
// the layers already publish. Nothing here adds instrumentation to src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lattice::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One named value with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Value of `name` in `list`; 0 when absent.
double metric_value(const MetricList& list, std::string_view name);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

/// Peak resident set of this process, in MB (getrusage high-water mark).
double rss_peak_mb();

/// Bench-level spans of a traced pass: name, start, end and parent (the
/// innermost span open when it began). Kept in memory and written out once
/// at exit, so recording costs two clock reads and a vector append.
class SpanLog {
 public:
  struct Span {
    std::string name;
    long parent = -1;  // index into spans(), -1 for a root
    double start_us = 0.0;
    double end_us = 0.0;
  };

  std::size_t open(std::string name);
  void close(std::size_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now_us() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// A span over one scope; does nothing when the log is null (untraced).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), id_(log ? log->open(std::move(name)) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_;
};

/// FNV-1a accumulator over the exact bits of a pass's seed-determined
/// outputs. Two passes of one workload and seed must produce the same
/// digest whatever else differs (tracing, thread count, pass order).
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

struct PassConfig {
  std::uint64_t seed = 1;
  /// Attach a metrics registry, bench spans and probes. Must not change
  /// any seed-determined output (main.cpp checks the digest).
  bool traced = false;
  SpanLog* spans = nullptr;
  /// Stop after set-up and report only setup_s (extra set-up samples).
  bool setup_only = false;
  /// garli_search: util::ThreadPool workers (0 = serial search).
  std::size_t pool_workers = 2;
  /// recovery_500k: the fault plan INI.
  std::string fault_plan;
};

/// What one pass of a workload produced.
struct PassResult {
  /// Per-pass end-to-end values (setup_s, work_per_s, turnaround, ...);
  /// main.cpp reports each one's median over the run's passes.
  MetricList end_to_end;
  /// Host seconds of the measured phase (drain or search).
  double phase_s = 0.0;
  /// Operations issued (portal submissions plus grid jobs, or searches)
  /// and those that did not succeed (refused submissions, abandoned
  /// jobs); main.cpp adds one per failed check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failed correctness checks, one line each.
  std::vector<std::string> problems;
  /// Digest of the seed-determined outputs.
  std::uint64_t digest = 0;
  /// Per-layer values; filled by traced passes only.
  MetricList layers;
};

PassResult run_volunteer_1m(const PassConfig& config);
PassResult run_recovery_500k(const PassConfig& config);
PassResult run_portal_1m_users(const PassConfig& config);
PassResult run_garli_search(const PassConfig& config);

}  // namespace lattice::bench
