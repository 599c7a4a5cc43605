// Per-node-sort reference for the random forest, used only by tests.
// RegressionTree trains from feature orders sorted once per forest fit and
// predicts from a breadth-first flat layout. This header keeps the trainer
// that came before it, so the two can be held to each other bit for bit:
//
//   * best_split builds the node's (value, target) pairs for every
//     candidate numeric feature and std::sorts them;
//   * nodes are 40-byte structs in depth-first order, each child found
//     through its own index, and predict walks them with one branch per
//     level;
//   * the forest sums tree predictions one tree at a time, in tree order.
//
// One detail is pinned rather than copied: categorical levels are ordered
// by mean response with ties broken by level index. std::sort leaves tied
// means in an unspecified order; for up to 16 levels its insertion pass
// already gives level order, and past 16 the pin makes the reference (and
// the production trainer) independent of the standard library's sort.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "rf/dataset.hpp"
#include "rf/forest.hpp"
#include "rf/tree.hpp"
#include "util/rng.hpp"

namespace lattice::rf::reference {

class Tree {
 public:
  struct Node {
    // Leaf iff left == 0 (node 0 is the root, never a child).
    std::uint32_t left = 0;
    std::uint32_t right = 0;
    std::uint32_t feature = 0;
    bool categorical = false;
    double threshold = 0.0;
    std::uint64_t level_mask = 0;
    double value = 0.0;
  };

  void fit(const Dataset& data, std::span<const std::size_t> rows,
           const TreeParams& params, util::Rng& rng,
           std::vector<double>* purity_gain = nullptr) {
    nodes_.clear();
    assert(!rows.empty());
    std::vector<std::size_t> work(rows.begin(), rows.end());
    build(data, work, 0, work.size(), params, 0, rng, purity_gain);
  }

  double predict(std::span<const double> features) const {
    std::size_t index = 0;
    for (;;) {
      const Node& node = nodes_[index];
      if (node.left == 0) return node.value;
      index = goes_left(node, features[node.feature]) ? node.left
                                                      : node.right;
    }
  }

  double predict_row(const Dataset& data, std::size_t row,
                     std::size_t override_feature =
                         RegressionTree::kNoOverride,
                     double override_value = 0.0) const {
    std::size_t index = 0;
    for (;;) {
      const Node& node = nodes_[index];
      if (node.left == 0) return node.value;
      const double value = node.feature == override_feature
                               ? override_value
                               : data.value(row, node.feature);
      index = goes_left(node, value) ? node.left : node.right;
    }
  }

  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  struct SumCount {
    double sum = 0.0;
    double count = 0.0;
    double score() const { return count > 0 ? sum * sum / count : 0.0; }
  };

  struct Split {
    bool found = false;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::uint64_t level_mask = 0;
    bool categorical = false;
    double sse_decrease = 0.0;
  };

  static bool goes_left(const Node& node, double value) {
    if (node.categorical) {
      const auto level = static_cast<std::size_t>(value);
      return (node.level_mask >> level) & 1;
    }
    return value <= node.threshold;
  }

  std::size_t build(const Dataset& data, std::vector<std::size_t>& rows,
                    std::size_t begin, std::size_t end,
                    const TreeParams& params, std::size_t depth,
                    util::Rng& rng, std::vector<double>* purity_gain) {
    const std::size_t n = end - begin;
    const std::size_t index = nodes_.size();
    nodes_.emplace_back();

    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) sum += data.target(rows[i]);
    nodes_[index].value = sum / static_cast<double>(n);

    const bool depth_capped =
        params.max_depth != 0 && depth >= params.max_depth;
    if (n < 2 * params.min_leaf || depth_capped) return index;

    const std::size_t p = data.n_features();
    const std::size_t mtry = params.mtry == 0
                                 ? std::max<std::size_t>(1, p / 3)
                                 : std::min(params.mtry, p);
    std::vector<std::size_t> candidates(p);
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
    for (std::size_t i = 0; i < mtry; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.below(p - i));
      std::swap(candidates[i], candidates[j]);
    }
    candidates.resize(mtry);

    const Split split = best_split(data, std::span(rows).subspan(begin, n),
                                   candidates, params);
    if (!split.found) return index;
    if (purity_gain != nullptr) {
      (*purity_gain)[split.feature] += split.sse_decrease;
    }

    Node& node = nodes_[index];
    node.feature = static_cast<std::uint32_t>(split.feature);
    node.categorical = split.categorical;
    node.threshold = split.threshold;
    node.level_mask = split.level_mask;

    const auto middle = std::partition(
        rows.begin() + static_cast<std::ptrdiff_t>(begin),
        rows.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t r) {
          return goes_left(nodes_[index], data.value(r, split.feature));
        });
    const auto mid = static_cast<std::size_t>(middle - rows.begin());

    const std::size_t left =
        build(data, rows, begin, mid, params, depth + 1, rng, purity_gain);
    const std::size_t right =
        build(data, rows, mid, end, params, depth + 1, rng, purity_gain);
    nodes_[index].left = static_cast<std::uint32_t>(left);
    nodes_[index].right = static_cast<std::uint32_t>(right);
    return index;
  }

  static Split best_split(const Dataset& data,
                          std::span<const std::size_t> rows,
                          std::span<const std::size_t> features,
                          const TreeParams& params) {
    Split best;
    const std::size_t n = rows.size();
    double total_sum = 0.0;
    for (std::size_t r : rows) total_sum += data.target(r);
    const double base_score = total_sum * total_sum / static_cast<double>(n);

    std::vector<std::pair<double, double>> pairs;  // (value, target)
    pairs.reserve(n);
    for (const std::size_t f : features) {
      const FeatureSpec& spec = data.feature(f);
      if (spec.kind == FeatureKind::kNumeric) {
        pairs.clear();
        for (std::size_t r : rows) {
          pairs.emplace_back(data.value(r, f), data.target(r));
        }
        std::sort(pairs.begin(), pairs.end());
        SumCount left;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          left.sum += pairs[i].second;
          left.count += 1.0;
          if (pairs[i].first == pairs[i + 1].first) continue;
          const std::size_t n_left = i + 1;
          const std::size_t n_right = n - n_left;
          if (n_left < params.min_leaf || n_right < params.min_leaf) continue;
          SumCount right{total_sum - left.sum, static_cast<double>(n_right)};
          const double gain = left.score() + right.score() - base_score;
          if (gain > best.sse_decrease) {
            best = {true, f, 0.5 * (pairs[i].first + pairs[i + 1].first), 0,
                    false, gain};
          }
        }
      } else {
        const std::size_t k = spec.levels.size();
        std::vector<SumCount> per_level(k);
        for (std::size_t r : rows) {
          const auto level = static_cast<std::size_t>(data.value(r, f));
          per_level[level].sum += data.target(r);
          per_level[level].count += 1.0;
        }
        std::vector<std::size_t> order;
        for (std::size_t level = 0; level < k; ++level) {
          if (per_level[level].count > 0) order.push_back(level);
        }
        if (order.size() < 2) continue;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    const double ma = per_level[a].sum / per_level[a].count;
                    const double mb = per_level[b].sum / per_level[b].count;
                    return ma < mb || (!(mb < ma) && a < b);
                  });
        SumCount left;
        std::uint64_t mask = 0;
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
          left.sum += per_level[order[i]].sum;
          left.count += per_level[order[i]].count;
          mask |= std::uint64_t{1} << order[i];
          const auto n_left = static_cast<std::size_t>(left.count);
          const std::size_t n_right = n - n_left;
          if (n_left < params.min_leaf || n_right < params.min_leaf) continue;
          SumCount right{total_sum - left.sum, static_cast<double>(n_right)};
          const double gain = left.score() + right.score() - base_score;
          if (gain > best.sse_decrease) {
            best = {true, f, 0.0, mask, true, gain};
          }
        }
      }
    }
    if (best.found && best.sse_decrease <= 1e-12) best.found = false;
    return best;
  }

  std::vector<Node> nodes_;
};

/// The forest around the reference tree: the same per-tree seeds and
/// bootstrap draws as RandomForest::fit, grown serially, with every
/// prediction summed tree by tree.
class Forest {
 public:
  void fit(const Dataset& data, const ForestParams& params) {
    data_ = &data;
    const std::size_t n = data.n_rows();
    trees_.assign(params.n_trees, {});
    in_bag_.assign(params.n_trees, std::vector<std::uint16_t>(n, 0));
    purity_gain_.assign(data.n_features(), 0.0);
    for (std::size_t t = 0; t < params.n_trees; ++t) {
      util::Rng rng(params.seed * 0x9e3779b97f4a7c15ULL + t);
      std::vector<std::size_t> sample(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto r = static_cast<std::size_t>(rng.below(n));
        sample[i] = r;
        ++in_bag_[t][r];
      }
      std::vector<double> purity(data.n_features(), 0.0);
      trees_[t].fit(data, sample, params.tree, rng, &purity);
      for (std::size_t f = 0; f < purity.size(); ++f) {
        purity_gain_[f] += purity[f];
      }
    }
  }

  const Tree& tree(std::size_t t) const { return trees_[t]; }

  double predict(std::span<const double> features) const {
    double total = 0.0;
    for (const Tree& tree : trees_) total += tree.predict(features);
    return total / static_cast<double>(trees_.size());
  }

  std::vector<double> predict(const Dataset& data) const {
    std::vector<double> out;
    for (std::size_t r = 0; r < data.n_rows(); ++r) {
      double total = 0.0;
      for (const Tree& tree : trees_) total += tree.predict_row(data, r);
      out.push_back(total / static_cast<double>(trees_.size()));
    }
    return out;
  }

  std::vector<double> oob_predictions() const {
    const std::size_t n = data_->n_rows();
    std::vector<double> sums(n, 0.0);
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      for (std::size_t r = 0; r < n; ++r) {
        if (in_bag_[t][r] != 0) continue;
        sums[r] += trees_[t].predict_row(*data_, r);
        ++counts[r];
      }
    }
    std::vector<double> out(n, std::numeric_limits<double>::quiet_NaN());
    for (std::size_t r = 0; r < n; ++r) {
      if (counts[r] > 0) out[r] = sums[r] / static_cast<double>(counts[r]);
    }
    return out;
  }

  std::vector<ImportanceEntry> importance(util::Rng& rng,
                                          std::size_t repeats) const {
    const std::size_t n = data_->n_rows();
    const std::size_t p = data_->n_features();
    std::vector<double> base_mse(trees_.size(), 0.0);
    std::vector<std::size_t> oob_counts(trees_.size(), 0);
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      double ss = 0.0;
      std::size_t count = 0;
      for (std::size_t r = 0; r < n; ++r) {
        if (in_bag_[t][r] != 0) continue;
        const double err =
            trees_[t].predict_row(*data_, r) - data_->target(r);
        ss += err * err;
        ++count;
      }
      base_mse[t] = count > 0 ? ss / static_cast<double>(count) : 0.0;
      oob_counts[t] = count;
    }
    std::vector<ImportanceEntry> out(p);
    std::vector<std::size_t> perm(n);
    for (std::size_t f = 0; f < p; ++f) {
      out[f].feature = data_->feature(f).name;
      out[f].inc_node_purity = purity_gain_[f];
      double pct_total = 0.0;
      std::size_t pct_count = 0;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        rng.shuffle(perm);
        for (std::size_t t = 0; t < trees_.size(); ++t) {
          if (oob_counts[t] == 0 || base_mse[t] <= 0.0) continue;
          double ss = 0.0;
          for (std::size_t r = 0; r < n; ++r) {
            if (in_bag_[t][r] != 0) continue;
            const double err =
                trees_[t].predict_row(*data_, r, f, data_->value(perm[r], f)) -
                data_->target(r);
            ss += err * err;
          }
          const double perm_mse = ss / static_cast<double>(oob_counts[t]);
          pct_total += 100.0 * (perm_mse - base_mse[t]) / base_mse[t];
          ++pct_count;
        }
      }
      out[f].inc_mse_pct =
          pct_count > 0 ? pct_total / static_cast<double>(pct_count) : 0.0;
    }
    return out;
  }

 private:
  std::vector<Tree> trees_;
  std::vector<std::vector<std::uint16_t>> in_bag_;
  std::vector<double> purity_gain_;
  const Dataset* data_ = nullptr;
};

}  // namespace lattice::rf::reference
