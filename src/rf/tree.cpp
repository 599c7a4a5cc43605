#include "rf/tree.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>

namespace lattice::rf {

namespace {

/// Sum and count accumulator for SSE-decrease split scoring. The decrease
/// in residual sum of squares from splitting a node into (L, R) is
///   sum_L^2/n_L + sum_R^2/n_R - sum^2/n,
/// so only sums and counts are needed, not squared terms.
struct SumCount {
  double sum = 0.0;
  double count = 0.0;

  double score() const { return count > 0 ? sum * sum / count : 0.0; }
};

struct Split {
  bool found = false;
  std::size_t feature = 0;
  bool categorical = false;
  /// Numeric threshold bits or categorical left-level mask.
  std::uint64_t key = 0;
  double sse_decrease = 0.0;
};

}  // namespace

FeatureOrder::FeatureOrder(const Dataset& data) : order_(data.n_features()) {
  const std::span<const double> targets = data.targets();
  for (std::size_t f = 0; f < data.n_features(); ++f) {
    if (data.feature(f).kind != FeatureKind::kNumeric) continue;
    const std::span<const double> values = data.column(f);
    std::vector<std::uint32_t>& order = order_[f];
    order.resize(data.n_rows());
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    // Lexicographic on (value, target), as std::pair compares.
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return values[a] < values[b] ||
                       (!(values[b] < values[a]) && targets[a] < targets[b]);
              });
  }
}

/// One tree's growth. Holds the sample in draw order, its sorted list per
/// numeric feature, and every per-node scratch buffer, all allocated once
/// per tree.
class RegressionTree::Grower {
 public:
  Grower(const Dataset& data, const FeatureOrder& order,
         std::span<const std::size_t> rows,
         std::span<const std::uint16_t> in_bag, const TreeParams& params,
         util::Rng& rng, std::vector<double>* purity_gain,
         std::vector<Node>& nodes)
      : data_(data),
        params_(params),
        rng_(rng),
        purity_gain_(purity_gain),
        nodes_(nodes),
        n_(rows.size()),
        rows_(rows.begin(), rows.end()),
        list_(data.n_features(), 0),
        spill_(n_),
        goes_left_(data.n_rows()),
        candidates_(data.n_features()) {
    const std::size_t p = data.n_features();
    mtry_ = params.mtry == 0 ? std::max<std::size_t>(1, p / 3)
                             : std::min(params.mtry, p);
    // Expand each presorted order into the sample's sorted list: row r
    // appears in_bag[r] times, so the list is the sample in (value,
    // target) order.
    for (std::size_t f = 0; f < p; ++f) {
      if (data.feature(f).kind != FeatureKind::kNumeric) continue;
      list_[f] = sorted_.size();
      for (const std::uint32_t r : order[f]) {
        sorted_.insert(sorted_.end(), in_bag[r], r);
      }
      assert(sorted_.size() - list_[f] == n_);
    }
  }

  /// Grow nodes_[index] and its subtree over sample segment [begin, end);
  /// returns the subtree's depth in nodes.
  std::size_t grow(std::size_t index, std::size_t begin, std::size_t end,
                   std::size_t depth);

 private:
  bool can_split(std::size_t n, std::size_t depth) const {
    return n >= 2 * params_.min_leaf &&
           (params_.max_depth == 0 || depth < params_.max_depth);
  }

  /// Sample mtry candidate features without replacement into the front of
  /// candidates_.
  void sample_candidates();
  Split best_split(std::size_t begin, std::size_t end, double total_sum);
  /// Stable-partition every list's [begin, end) by goes_left_.
  void split_lists(std::size_t begin, std::size_t end);

  const Dataset& data_;
  const TreeParams& params_;
  util::Rng& rng_;
  std::vector<double>* purity_gain_;
  std::vector<Node>& nodes_;
  std::size_t n_;
  std::size_t mtry_ = 1;
  std::vector<std::uint32_t> rows_;
  /// Offset in sorted_ of each numeric feature's list (each n_ long).
  std::vector<std::size_t> list_;
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint32_t> spill_;
  /// Side of the split being applied, per dataset row.
  std::vector<std::uint8_t> goes_left_;
  std::vector<std::size_t> candidates_;
  std::array<SumCount, 64> per_level_{};
  std::array<std::size_t, 64> level_order_{};
  std::array<double, 64> level_mean_{};
};

std::size_t RegressionTree::Grower::grow(std::size_t index,
                                         std::size_t begin, std::size_t end,
                                         std::size_t depth) {
  const std::size_t n = end - begin;
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += data_.target(rows_[i]);
  nodes_[index].key =
      std::bit_cast<std::uint64_t>(sum / static_cast<double>(n));
  if (!can_split(n, depth)) return 1;

  sample_candidates();
  const Split split = best_split(begin, end, sum);
  if (!split.found) return 1;
  if (purity_gain_ != nullptr) {
    (*purity_gain_)[split.feature] += split.sse_decrease;
  }

  Node& node = nodes_[index];
  node.key = split.key;
  node.feature = static_cast<std::uint32_t>(split.feature) |
                 (split.categorical ? Node::kCategorical : 0u);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t r = rows_[i];
    goes_left_[r] = node.goes_left(data_.value(r, split.feature));
  }
  const auto middle = std::partition(
      rows_.begin() + static_cast<std::ptrdiff_t>(begin),
      rows_.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::uint32_t r) { return goes_left_[r] != 0; });
  const auto mid = static_cast<std::size_t>(middle - rows_.begin());
  assert(mid > begin && mid < end);
  // Leaf children never read the lists.
  if (can_split(mid - begin, depth + 1) || can_split(end - mid, depth + 1)) {
    split_lists(begin, end);
  }

  const std::size_t left = nodes_.size();
  node.left = static_cast<std::uint32_t>(left);
  nodes_.resize(left + 2);  // invalidates `node`
  const std::size_t left_depth = grow(left, begin, mid, depth + 1);
  const std::size_t right_depth = grow(left + 1, mid, end, depth + 1);
  return 1 + std::max(left_depth, right_depth);
}

void RegressionTree::Grower::sample_candidates() {
  const std::size_t p = candidates_.size();
  std::iota(candidates_.begin(), candidates_.end(), std::size_t{0});
  for (std::size_t i = 0; i < mtry_; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng_.below(p - i));
    std::swap(candidates_[i], candidates_[j]);
  }
}

Split RegressionTree::Grower::best_split(std::size_t begin, std::size_t end,
                                         double total_sum) {
  Split best;
  const std::size_t n = end - begin;
  const double base_score = total_sum * total_sum / static_cast<double>(n);
  const std::span<const double> targets = data_.targets();

  for (std::size_t c = 0; c < mtry_; ++c) {
    const std::size_t f = candidates_[c];
    const FeatureSpec& spec = data_.feature(f);
    if (spec.kind == FeatureKind::kNumeric) {
      const std::span<const double> values = data_.column(f);
      const std::uint32_t* segment = sorted_.data() + list_[f] + begin;
      SumCount left;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        left.sum += targets[segment[i]];
        left.count += 1.0;
        const double value = values[segment[i]];
        const double next = values[segment[i + 1]];
        if (value == next) continue;  // tied values
        const std::size_t n_left = i + 1;
        const std::size_t n_right = n - n_left;
        if (n_left < params_.min_leaf || n_right < params_.min_leaf) continue;
        SumCount right{total_sum - left.sum, static_cast<double>(n_right)};
        const double gain = left.score() + right.score() - base_score;
        if (gain > best.sse_decrease) {
          // Midpoint threshold generalizes better than either endpoint.
          best = {true, f, false,
                  std::bit_cast<std::uint64_t>(0.5 * (value + next)), gain};
        }
      }
    } else {
      // Order levels by mean response, then scan prefix partitions; for
      // squared-error regression this finds the optimal subset split.
      const std::size_t k = spec.levels.size();
      std::fill_n(per_level_.begin(), k, SumCount{});
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t r = rows_[i];
        const auto level = static_cast<std::size_t>(data_.value(r, f));
        per_level_[level].sum += targets[r];
        per_level_[level].count += 1.0;
      }
      // Insert each present level by mean; ties keep level order.
      std::size_t present = 0;
      for (std::size_t level = 0; level < k; ++level) {
        if (per_level_[level].count == 0) continue;
        const double mean = per_level_[level].sum / per_level_[level].count;
        std::size_t at = present++;
        for (; at > 0 && mean < level_mean_[at - 1]; --at) {
          level_mean_[at] = level_mean_[at - 1];
          level_order_[at] = level_order_[at - 1];
        }
        level_mean_[at] = mean;
        level_order_[at] = level;
      }
      SumCount left;
      std::uint64_t mask = 0;
      for (std::size_t i = 0; i + 1 < present; ++i) {
        const SumCount& level = per_level_[level_order_[i]];
        left.sum += level.sum;
        left.count += level.count;
        mask |= std::uint64_t{1} << level_order_[i];
        const auto n_left = static_cast<std::size_t>(left.count);
        const std::size_t n_right = n - n_left;
        if (n_left < params_.min_leaf || n_right < params_.min_leaf) continue;
        SumCount right{total_sum - left.sum, static_cast<double>(n_right)};
        const double gain = left.score() + right.score() - base_score;
        if (gain > best.sse_decrease) best = {true, f, true, mask, gain};
      }
    }
  }
  // Guard against zero-gain splits on constant responses.
  if (best.found && best.sse_decrease <= 1e-12) best.found = false;
  return best;
}

void RegressionTree::Grower::split_lists(std::size_t begin,
                                         std::size_t end) {
  for (std::size_t offset = 0; offset < sorted_.size(); offset += n_) {
    std::uint32_t* segment = sorted_.data() + offset + begin;
    std::size_t kept = 0;
    std::size_t spilled = 0;
    for (std::size_t i = 0; i < end - begin; ++i) {
      const std::uint32_t r = segment[i];
      const bool left = goes_left_[r] != 0;
      segment[kept] = r;
      spill_[spilled] = r;
      kept += left;
      spilled += !left;
    }
    std::copy_n(spill_.begin(), spilled, segment + kept);
  }
}

void RegressionTree::fit(const Dataset& data,
                         std::span<const std::size_t> rows,
                         const TreeParams& params, util::Rng& rng,
                         std::vector<double>* purity_gain) {
  std::vector<std::uint16_t> in_bag(data.n_rows(), 0);
  for (const std::size_t r : rows) {
    assert(in_bag[r] < std::numeric_limits<std::uint16_t>::max());
    ++in_bag[r];
  }
  fit(data, FeatureOrder(data), rows, in_bag, params, rng, purity_gain);
}

void RegressionTree::fit(const Dataset& data, const FeatureOrder& order,
                         std::span<const std::size_t> rows,
                         std::span<const std::uint16_t> in_bag,
                         const TreeParams& params, util::Rng& rng,
                         std::vector<double>* purity_gain) {
  assert(!rows.empty());
  std::vector<Node> grown(1);
  Grower grower(data, order, rows, in_bag, params, rng, purity_gain, grown);
  depth_ = grower.grow(0, 0, rows.size(), 0);

  // Re-lay breadth-first: a node's children are appended, side by side,
  // when the node itself is placed.
  nodes_.clear();
  nodes_.reserve(grown.size());
  nodes_.push_back(grown[0]);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].leaf()) continue;
    const std::uint32_t left = nodes_[i].left;
    nodes_[i].left = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(grown[left]);
    nodes_.push_back(grown[left + 1]);
  }
}

std::size_t RegressionTree::leaf_count() const {
  return static_cast<std::size_t>(std::count_if(
      nodes_.begin(), nodes_.end(), [](const Node& node) {
        return node.leaf();
      }));
}

}  // namespace lattice::rf
