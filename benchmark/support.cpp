#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "bench.hpp"

namespace lattice::bench {

double metric_value(const MetricList& list, std::string_view name) {
  for (const Metric& metric : list) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double position = q * static_cast<double>(xs.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, xs.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return xs[lower] + fraction * (xs[upper] - xs[lower]);
}

double rss_peak_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::size_t SpanLog::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  spans_.at(id).end_us = now_us();
  // Spans nest strictly, so the one closing is the innermost open span.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Digest::add(std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

}  // namespace lattice::bench
