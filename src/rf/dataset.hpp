// Feature-matrix container for the random-forest library. Columns are
// typed (numeric or categorical); categorical values are stored as level
// indices so trees can split on level subsets, mirroring R's randomForest
// factor handling that the paper used.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lattice::rf {

enum class FeatureKind { kNumeric, kCategorical };

struct FeatureSpec {
  std::string name;
  FeatureKind kind = FeatureKind::kNumeric;
  /// Level names for categorical features (max 64 levels: splits are stored
  /// as level bitmasks). Empty for numeric features.
  std::vector<std::string> levels;
};

/// A regression dataset: n_rows observations of n_features covariates plus a
/// continuous response. Storage is column-major for split-search locality.
class Dataset {
 public:
  explicit Dataset(std::vector<FeatureSpec> features);

  /// Append an observation. `values[f]` is the numeric value or the
  /// categorical level index of feature f. Throws std::invalid_argument on
  /// arity mismatch, a NaN or infinite numeric value or target, or a level
  /// that is not an integer in [0, levels): NaN, infinite, negative,
  /// fractional or too large. Nothing is stored when it throws.
  void add_row(std::span<const double> values, double target);

  std::size_t n_rows() const { return targets_.size(); }
  std::size_t n_features() const { return features_.size(); }

  double value(std::size_t row, std::size_t feature) const {
    return columns_[feature][row];
  }
  double target(std::size_t row) const { return targets_[row]; }

  const FeatureSpec& feature(std::size_t f) const { return features_.at(f); }
  const std::vector<FeatureSpec>& features() const { return features_; }
  std::span<const double> column(std::size_t f) const { return columns_[f]; }
  std::span<const double> targets() const { return targets_; }

  /// Index of the feature with the given name, if present.
  std::optional<std::size_t> feature_index(const std::string& name) const;

  /// Materialize one observation as a dense row (for prediction APIs that
  /// take feature vectors).
  std::vector<double> row(std::size_t r) const;

 private:
  std::vector<FeatureSpec> features_;
  std::vector<std::vector<double>> columns_;
  std::vector<double> targets_;
};

}  // namespace lattice::rf
