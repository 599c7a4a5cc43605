#include "rf/forest.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "util/stats.hpp"

namespace lattice::rf {

void RandomForest::fit(const Dataset& data, const ForestParams& params,
                       util::ThreadPool* pool) {
  if (data.n_rows() < 2) {
    throw std::invalid_argument("forest: need at least two training rows");
  }
  if (params.n_trees == 0) {
    throw std::invalid_argument("forest: n_trees must be positive");
  }
  data_ = &data;
  const std::size_t n = data.n_rows();
  trees_.assign(params.n_trees, {});
  in_bag_.assign(params.n_trees, std::vector<std::uint16_t>(n, 0));

  std::vector<std::vector<double>> per_tree_purity(
      params.n_trees, std::vector<double>(data.n_features(), 0.0));
  const FeatureOrder order(data);

  auto grow_one = [&](std::size_t t) {
    // Seed per tree: identical results regardless of thread schedule.
    util::Rng rng(params.seed * 0x9e3779b97f4a7c15ULL + t);
    std::vector<std::size_t> sample(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto r = static_cast<std::size_t>(rng.below(n));
      sample[i] = r;
      ++in_bag_[t][r];
    }
    trees_[t].fit(data, order, sample, in_bag_[t], params.tree, rng,
                  &per_tree_purity[t]);
  };

  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(params.n_trees, grow_one);
  } else {
    for (std::size_t t = 0; t < params.n_trees; ++t) grow_one(t);
  }

  purity_gain_.assign(data.n_features(), 0.0);
  for (const auto& gains : per_tree_purity) {
    for (std::size_t f = 0; f < gains.size(); ++f) {
      purity_gain_[f] += gains[f];
    }
  }
}

double RandomForest::predict(std::span<const double> features) const {
  assert(trained());
  using Node = RegressionTree::Node;
  // Each value's categorical level bit, computed once per row rather than
  // once per node visited.
  std::vector<std::uint64_t> bits(features.size());
  for (std::size_t f = 0; f < features.size(); ++f) {
    bits[f] = Node::level_bit(features[f]);
  }
  // Each of kLanes lanes walks one tree of a group for as many steps as
  // the group's deepest tree needs; a lane at a leaf stays there. Lanes
  // past the last tree rest on a lone leaf and are not summed.
  constexpr std::size_t kLanes = 8;
  static constexpr Node kRest{};
  double total = 0.0;
  for (std::size_t first = 0; first < trees_.size(); first += kLanes) {
    const std::size_t lanes = std::min(kLanes, trees_.size() - first);
    std::array<const Node*, kLanes> tree;
    tree.fill(&kRest);
    std::array<std::uint32_t, kLanes> at{};
    std::size_t steps = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      tree[l] = trees_[first + l].nodes().data();
      steps = std::max(steps, trees_[first + l].depth() - 1);
    }
    for (std::size_t step = 0; step < steps; ++step) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const Node& node = tree[l][at[l]];
        const std::size_t f = node.split_feature();
        const bool left = node.goes_left(features[f], bits[f]);
        const std::uint32_t next = node.left + (left ? 0u : 1u);
        at[l] = node.leaf() ? at[l] : next;
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) total += tree[l][at[l]].value();
  }
  return total / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::predict(const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.n_rows());
  for (std::size_t r = 0; r < data.n_rows(); ++r) {
    out.push_back(predict(data.row(r)));
  }
  return out;
}

std::vector<double> RandomForest::oob_predictions() const {
  assert(trained());
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

double RandomForest::oob_mse() const {
  const std::vector<double> preds = oob_predictions();
  double ss = 0.0;
  std::size_t count = 0;
  for (std::size_t r = 0; r < preds.size(); ++r) {
    if (std::isnan(preds[r])) continue;
    const double err = preds[r] - data_->target(r);
    ss += err * err;
    ++count;
  }
  return count > 0 ? ss / static_cast<double>(count) : 0.0;
}

double RandomForest::variance_explained() const {
  const double var = util::variance(data_->targets());
  if (var <= 0.0) return 0.0;
  // randomForest normalizes by the population variance (n denominator).
  const double n = static_cast<double>(data_->n_rows());
  const double pop_var = var * (n - 1.0) / n;
  return 1.0 - oob_mse() / pop_var;
}

std::vector<ImportanceEntry> RandomForest::importance(
    util::Rng& rng, std::size_t repeats) const {
  assert(trained());
  assert(repeats > 0);
  const std::size_t n = data_->n_rows();
  const std::size_t p = data_->n_features();

  // Per-tree baseline OOB squared errors.
  std::vector<double> base_mse(trees_.size(), 0.0);
  std::vector<std::size_t> oob_counts(trees_.size(), 0);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    double ss = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < n; ++r) {
      if (in_bag_[t][r] != 0) continue;
      const double err = trees_[t].predict_row(*data_, r) - data_->target(r);
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
      // One whole-column permutation shared by all trees in this repeat,
      // as in randomForest.
      std::iota(perm.begin(), perm.end(), std::size_t{0});
      rng.shuffle(perm);
      for (std::size_t t = 0; t < trees_.size(); ++t) {
        if (oob_counts[t] == 0 || base_mse[t] <= 0.0) continue;
        double ss = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
          if (in_bag_[t][r] != 0) continue;
          const double shuffled = data_->value(perm[r], f);
          const double err =
              trees_[t].predict_row(*data_, r, f, shuffled) -
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

}  // namespace lattice::rf
