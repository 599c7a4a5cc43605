#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/trace.hpp"

namespace lattice::obs {

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double x) {
  // First bucket with x <= bound; overflow past the last bound.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double Histogram::bucket_bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

MetricsRegistry& MetricsRegistry::null() {
  static MetricsRegistry registry{NullTag{}};
  return registry;
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    std::string_view name, std::string_view label, MetricKind kind) const {
  const auto it =
      index_.find(std::make_pair(std::string(name), std::string(label)));
  if (it == index_.end()) return nullptr;
  const Entry& entry = entries_[it->second];
  return entry.kind == kind ? &entry : nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view unit,
                                  std::string_view help,
                                  std::string_view label) {
  if (!enabled_) return sink_counter_;
  const auto key = std::make_pair(std::string(name), std::string(label));
  const auto it = index_.find(key);
  if (it != index_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != MetricKind::kCounter) return sink_counter_;
    return counters_[entry.index];
  }
  counters_.emplace_back();
  index_[key] = entries_.size();
  entries_.push_back(Entry{key.first, key.second, std::string(unit),
                           std::string(help), MetricKind::kCounter,
                           counters_.size() - 1});
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view unit,
                              std::string_view help, std::string_view label) {
  if (!enabled_) return sink_gauge_;
  const auto key = std::make_pair(std::string(name), std::string(label));
  const auto it = index_.find(key);
  if (it != index_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != MetricKind::kGauge) return sink_gauge_;
    return gauges_[entry.index];
  }
  gauges_.emplace_back();
  index_[key] = entries_.size();
  entries_.push_back(Entry{key.first, key.second, std::string(unit),
                           std::string(help), MetricKind::kGauge,
                           gauges_.size() - 1});
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      std::string_view unit,
                                      std::string_view help,
                                      std::string_view label) {
  if (!enabled_) return sink_histogram_;
  const auto key = std::make_pair(std::string(name), std::string(label));
  const auto it = index_.find(key);
  if (it != index_.end()) {
    const Entry& entry = entries_[it->second];
    if (entry.kind != MetricKind::kHistogram) return sink_histogram_;
    return histograms_[entry.index];
  }
  histograms_.emplace_back(std::move(upper_bounds));
  index_[key] = entries_.size();
  entries_.push_back(Entry{key.first, key.second, std::string(unit),
                           std::string(help), MetricKind::kHistogram,
                           histograms_.size() - 1});
  return histograms_.back();
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             std::string_view label) const {
  const Entry* entry = find(name, label, MetricKind::kCounter);
  return entry == nullptr ? nullptr : &counters_[entry->index];
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name,
                                         std::string_view label) const {
  const Entry* entry = find(name, label, MetricKind::kGauge);
  return entry == nullptr ? nullptr : &gauges_[entry->index];
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name, std::string_view label) const {
  const Entry* entry = find(name, label, MetricKind::kHistogram);
  return entry == nullptr ? nullptr : &histograms_[entry->index];
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const Entry& entry : entries_) {
    if (entry.kind == MetricKind::kCounter && entry.name == name) {
      total += counters_[entry.index].value();
    }
  }
  return total;
}

util::Table MetricsRegistry::snapshot() const {
  util::Table table(
      {"metric", "label", "type", "unit", "value", "count", "sum", "mean"});
  table.set_precision(3);
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        table.add_row({entry.name, entry.label, std::string("counter"),
                       entry.unit,
                       static_cast<long long>(counters_[entry.index].value()),
                       std::string(), std::string(), std::string()});
        break;
      case MetricKind::kGauge:
        table.add_row({entry.name, entry.label, std::string("gauge"),
                       entry.unit, gauges_[entry.index].value(),
                       std::string(), std::string(), std::string()});
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = histograms_[entry.index];
        table.add_row({entry.name, entry.label, std::string("histogram"),
                       entry.unit, std::string(),
                       static_cast<long long>(h.count()), h.sum(), h.mean()});
        break;
      }
    }
  }
  return table;
}

std::string MetricsRegistry::snapshot_csv() const {
  return snapshot().to_csv();
}

namespace {
void append_number(std::ostringstream& out, double value) {
  if (value == std::numeric_limits<double>::infinity()) {
    out << "\"inf\"";
  } else if (value == -std::numeric_limits<double>::infinity()) {
    out << "\"-inf\"";
  } else {
    out << value;
  }
}
}  // namespace

std::string MetricsRegistry::snapshot_json() const {
  std::ostringstream out;
  out.precision(12);
  out << "{\n  \"metrics\": [";
  bool first = true;
  for (const Entry& entry : entries_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << json_escape(entry.name) << "\", "
        << "\"label\": \"" << json_escape(entry.label) << "\", "
        << "\"type\": \"" << metric_kind_name(entry.kind) << "\", "
        << "\"unit\": \"" << json_escape(entry.unit) << "\", "
        << "\"help\": \"" << json_escape(entry.help) << "\", ";
    switch (entry.kind) {
      case MetricKind::kCounter:
        out << "\"value\": " << counters_[entry.index].value() << "}";
        break;
      case MetricKind::kGauge:
        out << "\"value\": ";
        append_number(out, gauges_[entry.index].value());
        out << "}";
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = histograms_[entry.index];
        out << "\"count\": " << h.count() << ", \"sum\": ";
        append_number(out, h.sum());
        out << ", \"min\": ";
        append_number(out, h.min());
        out << ", \"max\": ";
        append_number(out, h.max());
        out << ", \"buckets\": [";
        for (std::size_t i = 0; i < h.buckets(); ++i) {
          if (i > 0) out << ", ";
          out << "{\"le\": ";
          append_number(out, h.bucket_bound(i));
          out << ", \"count\": " << h.bucket_count(i) << "}";
        }
        out << "]}";
        break;
      }
    }
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool write_metrics(const MetricsRegistry& registry, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  out << (csv ? registry.snapshot_csv() : registry.snapshot_json());
  return static_cast<bool>(out);
}

}  // namespace lattice::obs
