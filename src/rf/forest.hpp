// Random forest regression (Breiman 2001): an ensemble of CART trees, each
// grown on a bootstrap sample with per-node random feature subsampling.
// Provides out-of-bag (OOB) error — the internal generalization estimate the
// paper quotes as "percentage of variance explained ... approximately 93%" —
// and both importance measures (permutation %IncMSE and IncNodePurity).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rf/dataset.hpp"
#include "rf/tree.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lattice::rf {

struct ForestParams {
  /// Number of trees. The paper uses 1e4; the default here is the
  /// randomForest default, benchmarks sweep it.
  std::size_t n_trees = 500;
  TreeParams tree;
  std::uint64_t seed = 1;
};

struct ImportanceEntry {
  std::string feature;
  /// Percent increase in OOB mean squared error when this feature is
  /// permuted (paper Figure 2's x-axis).
  double inc_mse_pct = 0.0;
  /// Total SSE decrease credited to splits on this feature.
  double inc_node_purity = 0.0;
};

class RandomForest {
 public:
  /// Train on `data`. A thread pool may be supplied to grow trees in
  /// parallel (trees are independent; results are identical to the serial
  /// order because every tree derives its own seed from params.seed).
  void fit(const Dataset& data, const ForestParams& params,
           util::ThreadPool* pool = nullptr);

  bool trained() const { return !trees_.empty(); }
  std::size_t n_trees() const { return trees_.size(); }
  const RegressionTree& tree(std::size_t t) const { return trees_[t]; }

  /// Ensemble mean prediction for one observation. Trees are walked
  /// several at a time in lock-step and their leaves summed in tree order,
  /// so the result is the tree-by-tree sum's bits.
  double predict(std::span<const double> features) const;
  std::vector<double> predict(const Dataset& data) const;

  /// OOB prediction per training row (NaN for rows in every bag).
  std::vector<double> oob_predictions() const;
  /// OOB mean squared error over rows with at least one OOB tree.
  double oob_mse() const;
  /// 1 - oob_mse / var(y): randomForest's "% Var explained" / 100.
  double variance_explained() const;

  /// Permutation and node-purity importance for every feature, in feature
  /// order. `repeats` controls how many permutations are averaged.
  std::vector<ImportanceEntry> importance(util::Rng& rng,
                                          std::size_t repeats = 3) const;

 private:
  std::vector<RegressionTree> trees_;
  /// in_bag_[t][r]: multiplicity of row r in tree t's bootstrap sample.
  std::vector<std::vector<std::uint16_t>> in_bag_;
  std::vector<double> purity_gain_;  // summed across trees
  const Dataset* data_ = nullptr;    // training data (non-owning)
};

}  // namespace lattice::rf
