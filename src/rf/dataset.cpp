#include "rf/dataset.hpp"

#include <cmath>
#include <stdexcept>

#include "util/fmt.hpp"

namespace lattice::rf {

Dataset::Dataset(std::vector<FeatureSpec> features)
    : features_(std::move(features)), columns_(features_.size()) {
  for (const auto& spec : features_) {
    if (spec.kind == FeatureKind::kCategorical) {
      if (spec.levels.empty() || spec.levels.size() > 64) {
        throw std::invalid_argument(util::format(
            "dataset: categorical feature '{}' must have 1..64 levels",
            spec.name));
      }
    }
  }
}

void Dataset::add_row(std::span<const double> values, double target) {
  if (values.size() != features_.size()) {
    throw std::invalid_argument(
        util::format("dataset: row has {} values, expected {}", values.size(),
                     features_.size()));
  }
  // Non-finite numbers never reach storage: the presorted trainer sorts
  // every numeric column, and NaN would make that comparison a non-strict
  // weak order (undefined behaviour), while an infinite target poisons
  // every split's variance.
  if (!std::isfinite(target)) {
    throw std::invalid_argument(
        util::format("dataset: target {} is not finite", target));
  }
  for (std::size_t f = 0; f < features_.size(); ++f) {
    if (features_[f].kind == FeatureKind::kNumeric) {
      if (!std::isfinite(values[f])) {
        throw std::invalid_argument(
            util::format("dataset: feature '{}' value {} is not finite",
                         features_[f].name, values[f]));
      }
    } else {
      // Range-check before any integer conversion: NaN fails every
      // comparison, and a cast of an out-of-range value is undefined.
      const double level = values[f];
      if (!(level >= 0.0 &&
            level < static_cast<double>(features_[f].levels.size()) &&
            level == std::floor(level))) {
        throw std::invalid_argument(util::format(
            "dataset: feature '{}' level {} out of range", features_[f].name,
            values[f]));
      }
    }
  }
  for (std::size_t f = 0; f < features_.size(); ++f) {
    columns_[f].push_back(values[f]);
  }
  targets_.push_back(target);
}

std::optional<std::size_t> Dataset::feature_index(
    const std::string& name) const {
  for (std::size_t f = 0; f < features_.size(); ++f) {
    if (features_[f].name == name) return f;
  }
  return std::nullopt;
}

std::vector<double> Dataset::row(std::size_t r) const {
  std::vector<double> out(features_.size());
  for (std::size_t f = 0; f < features_.size(); ++f) {
    out[f] = columns_[f][r];
  }
  return out;
}

}  // namespace lattice::rf
