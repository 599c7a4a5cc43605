// CART regression tree, the constituent model of a random forest
// (Breiman et al. 1984; Breiman 2001). Splits minimize residual sum of
// squares. Numeric features split on a threshold; categorical features split
// on a subset of levels, found optimally for regression by ordering levels
// by their mean response (Fisher 1958).
//
// Training sorts once per fit, not once per node. FeatureOrder sorts each
// numeric feature's row ids by (value, target); a tree expands that order
// into one list per numeric feature holding its sample, duplicates
// included. A node owns the same segment [begin, end) of every list and of
// `rows`, the sample in draw order. When the node splits, `rows` is
// std::partition'ed (node means, split totals and categorical level sums
// accumulate in its order) and every list segment is stable-partitioned, so
// each child's segment is again its rows in (value, target) order.
// best_split scans those segments: the pair sequence a per-node sort would
// build, so every sum, threshold and node matches the per-node-sort trainer
// bit for bit (tests/rf_reference.hpp holds it).
//
// A fitted tree is laid out breadth-first in 16-byte nodes. Siblings are
// adjacent (right = left + 1), and the 8-byte key holds a numeric split's
// threshold, a categorical split's left-level mask or a leaf's value. A
// walk step computes both split tests and selects one, so it branches on
// no data; a categorical value that names no level (NaN, negative, >= 64)
// is in no mask and goes right.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "rf/dataset.hpp"
#include "util/rng.hpp"

namespace lattice::rf {

struct TreeParams {
  /// Features sampled (without replacement) at each node; 0 means
  /// max(1, n_features / 3), the regression default in randomForest.
  std::size_t mtry = 0;
  /// Minimum observations in a leaf (randomForest regression default: 5).
  std::size_t min_leaf = 5;
  /// Maximum tree depth; 0 means unlimited.
  std::size_t max_depth = 0;
};

/// Every numeric feature's row ids sorted by (value, target), the one sort
/// of a forest fit; shared read-only by all of its trees. Categorical
/// features have an empty order.
class FeatureOrder {
 public:
  explicit FeatureOrder(const Dataset& data);

  std::span<const std::uint32_t> operator[](std::size_t feature) const {
    return order_[feature];
  }

 private:
  std::vector<std::vector<std::uint32_t>> order_;
};

class RegressionTree {
 public:
  struct Node {
    /// Split feature index, or'ed with kCategorical for a subset split.
    static constexpr std::uint32_t kCategorical = 1u << 31;

    /// Leaf: the prediction. Numeric split: the threshold (x <= threshold
    /// goes left). Categorical split: the mask of levels that go left.
    std::uint64_t key = 0;
    std::uint32_t feature = 0;
    /// Index of the left child; the right child follows it. 0 marks a leaf
    /// (the root is never a child).
    std::uint32_t left = 0;

    bool leaf() const { return left == 0; }
    bool categorical() const { return (feature & kCategorical) != 0; }
    std::size_t split_feature() const { return feature & ~kCategorical; }
    double value() const { return std::bit_cast<double>(key); }
    double threshold() const { return std::bit_cast<double>(key); }
    std::uint64_t level_mask() const { return key; }

    /// Whether a row whose split-feature value is `x`, with level bit
    /// `bit` = level_bit(x), goes left. Both tests are computed and one is
    /// selected, with no branch on either.
    bool goes_left(double x, std::uint64_t bit) const {
      const bool numeric_left = x <= threshold();
      const bool categorical_left = (key & bit) != 0;
      const bool cat = categorical();
      return (numeric_left & !cat) | (categorical_left & cat);
    }
    bool goes_left(double x) const { return goes_left(x, level_bit(x)); }

    /// The mask bit of categorical level `x` (truncated, as a level index
    /// cast would), or 0 when `x` names no level.
    static std::uint64_t level_bit(double x) {
      return x > -1.0 && x < 64.0
                 ? std::uint64_t{1} << static_cast<unsigned>(x)
                 : 0;
    }
  };
  static_assert(sizeof(Node) == 16);

  /// Fit to the given rows of `data` (duplicates allowed). Sorts each
  /// numeric feature once, then fits as below.
  void fit(const Dataset& data, std::span<const std::size_t> rows,
           const TreeParams& params, util::Rng& rng,
           std::vector<double>* purity_gain = nullptr);

  /// Fit to a sample of `data`: `rows` in draw order, `in_bag[r]` the
  /// multiplicity of row r in it, `order` the data's FeatureOrder.
  /// `purity_gain`, if non-null, accumulates each split's SSE decrease
  /// into the entry of the split feature (the IncNodePurity measure).
  void fit(const Dataset& data, const FeatureOrder& order,
           std::span<const std::size_t> rows,
           std::span<const std::uint16_t> in_bag, const TreeParams& params,
           util::Rng& rng, std::vector<double>* purity_gain = nullptr);

  /// Predict one observation given as a dense feature vector.
  double predict(std::span<const double> features) const {
    return walk([&](std::size_t f) { return features[f]; });
  }

  /// Predict a stored dataset row, optionally overriding one feature value
  /// (used by permutation importance to avoid materializing rows).
  double predict_row(const Dataset& data, std::size_t row,
                     std::size_t override_feature = kNoOverride,
                     double override_value = 0.0) const {
    return walk([&](std::size_t f) {
      return f == override_feature ? override_value : data.value(row, f);
    });
  }

  /// Nodes in breadth-first order; the root is node 0.
  std::span<const Node> nodes() const { return nodes_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  /// Nodes on the longest root-to-leaf path (a lone leaf has depth 1).
  std::size_t depth() const { return depth_; }
  bool empty() const { return nodes_.empty(); }

  static constexpr std::size_t kNoOverride =
      std::numeric_limits<std::size_t>::max();

 private:
  class Grower;

  template <typename ValueOf>
  double walk(ValueOf value_of) const {
    std::uint32_t at = 0;
    while (!nodes_[at].leaf()) {
      const Node& node = nodes_[at];
      at = node.left + (node.goes_left(value_of(node.split_feature())) ? 0u
                                                                        : 1u);
    }
    return nodes_[at].value();
  }

  std::vector<Node> nodes_;
  std::size_t depth_ = 0;
};

}  // namespace lattice::rf
