// Tests for the random-forest library: dataset validation, CART splits,
// forest accuracy (OOB), and both importance measures. Includes the
// parameterized sweeps that back the paper's modeling choices (mtry,
// forest size).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <utility>

#include "rf/dataset.hpp"
#include "rf/forest.hpp"
#include "rf/tree.hpp"
#include "rf_reference.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/threadpool.hpp"

namespace lattice::rf {
namespace {

Dataset make_linear_dataset(std::size_t n, util::Rng& rng,
                            double noise_sd = 0.0) {
  Dataset data({{"x1", FeatureKind::kNumeric, {}},
                {"x2", FeatureKind::kNumeric, {}}});
  for (std::size_t i = 0; i < n; ++i) {
    const double x1 = rng.uniform(0.0, 1.0);
    const double x2 = rng.uniform(0.0, 1.0);
    const double y = 3.0 * x1 + rng.normal(0.0, noise_sd);
    data.add_row(std::vector<double>{x1, x2}, y);
  }
  return data;
}

/// Friedman #1 benchmark function restricted to 5 informative + noise vars.
Dataset make_friedman(std::size_t n, std::size_t extra_noise_vars,
                      util::Rng& rng, double noise_sd = 0.1) {
  std::vector<FeatureSpec> specs;
  for (std::size_t f = 0; f < 5 + extra_noise_vars; ++f) {
    specs.push_back({"x" + std::to_string(f), FeatureKind::kNumeric, {}});
  }
  Dataset data(std::move(specs));
  std::vector<double> row(5 + extra_noise_vars);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.uniform(0.0, 1.0);
    const double y = 10.0 * std::sin(std::numbers::pi * row[0] * row[1]) +
                     20.0 * (row[2] - 0.5) * (row[2] - 0.5) + 10.0 * row[3] +
                     5.0 * row[4] + rng.normal(0.0, noise_sd);
    data.add_row(row, y);
  }
  return data;
}

TEST(Dataset, RejectsArityMismatch) {
  Dataset data({{"a", FeatureKind::kNumeric, {}}});
  EXPECT_THROW(data.add_row(std::vector<double>{1.0, 2.0}, 0.0),
               std::invalid_argument);
}

TEST(Dataset, RejectsBadCategoricalLevel) {
  Dataset data({{"c", FeatureKind::kCategorical, {"a", "b"}}});
  EXPECT_THROW(data.add_row(std::vector<double>{2.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(data.add_row(std::vector<double>{0.5}, 0.0),
               std::invalid_argument);
  data.add_row(std::vector<double>{1.0}, 0.0);
  EXPECT_EQ(data.n_rows(), 1u);
}

TEST(Dataset, RejectsNonFiniteAndOutOfRangeLevels) {
  Dataset data({{"c", FeatureKind::kCategorical, {"a", "b"}}});
  for (const double level :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0, -0.5, 64.0, 1e300,
        -1e300}) {
    EXPECT_THROW(data.add_row(std::vector<double>{level}, 0.0),
                 std::invalid_argument)
        << level;
  }
  EXPECT_EQ(data.n_rows(), 0u);
  data.add_row(std::vector<double>{0.0}, 0.0);
  EXPECT_EQ(data.n_rows(), 1u);
}

TEST(Dataset, RejectsNonFiniteNumericValuesAndTargets) {
  Dataset data({{"x", FeatureKind::kNumeric, {}},
                {"c", FeatureKind::kCategorical, {"a", "b"}}});
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double value : bad) {
    EXPECT_THROW(data.add_row(std::vector<double>{value, 0.0}, 1.0),
                 std::invalid_argument)
        << "feature " << value;
    EXPECT_THROW(data.add_row(std::vector<double>{1.0, 0.0}, value),
                 std::invalid_argument)
        << "target " << value;
  }
  EXPECT_EQ(data.n_rows(), 0u);
  EXPECT_EQ(data.column(0).size(), 0u);
  // Extreme but finite values are ordinary observations.
  data.add_row(std::vector<double>{-1e300, 1.0},
               std::numeric_limits<double>::max());
  EXPECT_EQ(data.n_rows(), 1u);
}

TEST(Dataset, RejectsTooManyLevels) {
  std::vector<std::string> levels(65, "x");
  EXPECT_THROW(Dataset({{"c", FeatureKind::kCategorical, levels}}),
               std::invalid_argument);
}

TEST(Dataset, FeatureIndexLookup) {
  Dataset data({{"a", FeatureKind::kNumeric, {}},
                {"b", FeatureKind::kNumeric, {}}});
  EXPECT_EQ(data.feature_index("b"), 1u);
  EXPECT_FALSE(data.feature_index("zzz").has_value());
}

TEST(Dataset, RowMaterialization) {
  Dataset data({{"a", FeatureKind::kNumeric, {}},
                {"b", FeatureKind::kNumeric, {}}});
  data.add_row(std::vector<double>{1.0, 2.0}, 3.0);
  EXPECT_EQ(data.row(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(data.target(0), 3.0);
}

TEST(RegressionTree, FitsStepFunctionExactly) {
  // y = 1{x > 0.5}: a single split should capture it.
  Dataset data({{"x", FeatureKind::kNumeric, {}}});
  for (int i = 0; i < 100; ++i) {
    const double x = i / 100.0;
    data.add_row(std::vector<double>{x}, x > 0.5 ? 1.0 : 0.0);
  }
  std::vector<std::size_t> rows(100);
  for (std::size_t i = 0; i < 100; ++i) rows[i] = i;
  util::Rng rng(1);
  RegressionTree tree;
  TreeParams params;
  params.mtry = 1;
  tree.fit(data, rows, params, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.2}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.9}), 1.0);
}

TEST(RegressionTree, MinLeafRespected) {
  util::Rng rng(2);
  Dataset data = make_linear_dataset(200, rng, 0.1);
  std::vector<std::size_t> rows(200);
  for (std::size_t i = 0; i < 200; ++i) rows[i] = i;
  TreeParams params;
  params.min_leaf = 50;
  params.mtry = 2;
  RegressionTree tree;
  tree.fit(data, rows, params, rng);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(RegressionTree, MaxDepthRespected) {
  util::Rng rng(3);
  Dataset data = make_linear_dataset(500, rng, 0.0);
  std::vector<std::size_t> rows(500);
  for (std::size_t i = 0; i < 500; ++i) rows[i] = i;
  TreeParams params;
  params.max_depth = 3;
  params.min_leaf = 1;
  params.mtry = 2;
  RegressionTree tree;
  tree.fit(data, rows, params, rng);
  EXPECT_LE(tree.depth(), 4u);  // root at depth 1
}

TEST(RegressionTree, ConstantTargetIsSingleLeaf) {
  Dataset data({{"x", FeatureKind::kNumeric, {}}});
  for (int i = 0; i < 50; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, 7.0);
  }
  std::vector<std::size_t> rows(50);
  for (std::size_t i = 0; i < 50; ++i) rows[i] = i;
  util::Rng rng(4);
  RegressionTree tree;
  tree.fit(data, rows, TreeParams{}, rng);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{123.0}), 7.0);
}

TEST(RegressionTree, CategoricalSplitSeparatesLevels) {
  Dataset data({{"c", FeatureKind::kCategorical, {"a", "b", "c", "d"}}});
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double level = static_cast<double>(i % 4);
    // Levels a,c -> 0; b,d -> 10 (non-contiguous: needs subset split).
    const double y = (i % 4 == 1 || i % 4 == 3) ? 10.0 : 0.0;
    data.add_row(std::vector<double>{level}, y);
  }
  std::vector<std::size_t> rows(200);
  for (std::size_t i = 0; i < 200; ++i) rows[i] = i;
  TreeParams params;
  params.mtry = 1;
  RegressionTree tree;
  tree.fit(data, rows, params, rng);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.0}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{1.0}), 10.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{2.0}), 0.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0}), 10.0);
}

TEST(RegressionTree, UnknownCategoricalLevelGoesRight) {
  // Same data as above: {a, c} -> 0 go left, {b, d} -> 10 go right. A
  // value that names no level is in no left mask.
  Dataset data({{"c", FeatureKind::kCategorical, {"a", "b", "c", "d"}}});
  for (int i = 0; i < 200; ++i) {
    const double y = (i % 4 == 1 || i % 4 == 3) ? 10.0 : 0.0;
    data.add_row(std::vector<double>{static_cast<double>(i % 4)}, y);
  }
  std::vector<std::size_t> rows(200);
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  util::Rng rng(5);
  TreeParams params;
  params.mtry = 1;
  RegressionTree tree;
  tree.fit(data, rows, params, rng);
  ASSERT_EQ(tree.nodes().size(), 3u);
  ASSERT_TRUE(tree.nodes()[0].categorical());
  EXPECT_EQ(tree.nodes()[0].level_mask(), 0b0101u);
  RandomForest forest;
  ForestParams forest_params;
  forest_params.n_trees = 3;
  forest_params.tree.mtry = 1;
  forest.fit(data, forest_params);
  for (const double level :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0, -7.5, 4.0, 63.0,
        64.0, 65.0, 1e19, 1e300, -1e300}) {
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{level}), 10.0)
        << level;
    EXPECT_DOUBLE_EQ(forest.predict(std::vector<double>{level}), 10.0)
        << level;
  }
}

TEST(RandomForest, RejectsDegenerateInputs) {
  Dataset tiny({{"x", FeatureKind::kNumeric, {}}});
  tiny.add_row(std::vector<double>{1.0}, 1.0);
  RandomForest forest;
  EXPECT_THROW(forest.fit(tiny, ForestParams{}), std::invalid_argument);

  Dataset ok = tiny;
  ok.add_row(std::vector<double>{2.0}, 2.0);
  ForestParams zero;
  zero.n_trees = 0;
  EXPECT_THROW(forest.fit(ok, zero), std::invalid_argument);
}

TEST(RandomForest, LearnsLinearSignal) {
  util::Rng rng(7);
  Dataset data = make_linear_dataset(400, rng, 0.05);
  RandomForest forest;
  ForestParams params;
  params.n_trees = 100;
  params.seed = 3;
  forest.fit(data, params);
  EXPECT_GT(forest.variance_explained(), 0.85);
  // Predictions should track the signal on fresh points.
  EXPECT_NEAR(forest.predict(std::vector<double>{0.5, 0.5}), 1.5, 0.35);
  EXPECT_NEAR(forest.predict(std::vector<double>{0.9, 0.1}), 2.7, 0.45);
}

TEST(RandomForest, DeterministicForSeed) {
  util::Rng rng(8);
  Dataset data = make_friedman(150, 0, rng);
  ForestParams params;
  params.n_trees = 30;
  params.seed = 11;
  RandomForest a;
  a.fit(data, params);
  RandomForest b;
  b.fit(data, params);
  EXPECT_DOUBLE_EQ(a.oob_mse(), b.oob_mse());
  EXPECT_DOUBLE_EQ(a.predict(data.row(0)), b.predict(data.row(0)));
}

TEST(RandomForest, ParallelTrainingMatchesSerial) {
  util::Rng rng(9);
  Dataset data = make_friedman(120, 0, rng);
  ForestParams params;
  params.n_trees = 16;
  params.seed = 5;
  RandomForest serial;
  serial.fit(data, params);
  util::ThreadPool pool(4);
  RandomForest parallel;
  parallel.fit(data, params, &pool);
  EXPECT_DOUBLE_EQ(serial.oob_mse(), parallel.oob_mse());
}

TEST(RandomForest, OobPredictionsMostlyPresent) {
  util::Rng rng(10);
  Dataset data = make_friedman(100, 0, rng);
  ForestParams params;
  params.n_trees = 50;
  RandomForest forest;
  forest.fit(data, params);
  const auto oob = forest.oob_predictions();
  std::size_t present = 0;
  for (double p : oob) {
    if (!std::isnan(p)) ++present;
  }
  // P(in every bag of 50 trees) is astronomically small.
  EXPECT_EQ(present, oob.size());
}

TEST(RandomForest, FriedmanAccuracy) {
  util::Rng rng(12);
  Dataset data = make_friedman(500, 0, rng);
  ForestParams params;
  params.n_trees = 200;
  params.tree.mtry = 3;
  RandomForest forest;
  forest.fit(data, params);
  EXPECT_GT(forest.variance_explained(), 0.80);
}

TEST(RandomForest, ImportanceRanksInformativeAboveNoise) {
  util::Rng rng(13);
  Dataset data = make_friedman(400, 3, rng);
  ForestParams params;
  params.n_trees = 150;
  RandomForest forest;
  forest.fit(data, params);
  util::Rng imp_rng(99);
  const auto importance = forest.importance(imp_rng);
  ASSERT_EQ(importance.size(), 8u);
  // x3 (coefficient 10) must beat every pure-noise feature on both
  // measures.
  for (std::size_t noise = 5; noise < 8; ++noise) {
    EXPECT_GT(importance[3].inc_mse_pct, importance[noise].inc_mse_pct);
    EXPECT_GT(importance[3].inc_node_purity,
              importance[noise].inc_node_purity);
  }
  // Noise features should have near-zero permutation importance.
  for (std::size_t noise = 5; noise < 8; ++noise) {
    EXPECT_LT(importance[noise].inc_mse_pct, 10.0);
  }
}

TEST(RandomForest, CategoricalFeatureSupported) {
  util::Rng rng(14);
  Dataset data({{"c", FeatureKind::kCategorical, {"low", "high"}},
                {"x", FeatureKind::kNumeric, {}}});
  for (int i = 0; i < 300; ++i) {
    const double c = rng.bernoulli(0.5) ? 1.0 : 0.0;
    const double x = rng.uniform(0.0, 1.0);
    data.add_row(std::vector<double>{c, x}, c * 5.0 + rng.normal(0.0, 0.1));
  }
  RandomForest forest;
  ForestParams params;
  params.n_trees = 60;
  params.tree.mtry = 2;
  forest.fit(data, params);
  EXPECT_NEAR(forest.predict(std::vector<double>{1.0, 0.5}), 5.0, 0.5);
  EXPECT_NEAR(forest.predict(std::vector<double>{0.0, 0.5}), 0.0, 0.5);
}

// Property test: the presorted trainer and the flat forest against the
// per-node-sort reference (tests/rf_reference.hpp), bit for bit, on random
// datasets with tied values, tied targets, duplicate bootstrap rows and
// categorical features of up to 64 levels.
struct RandomCase {
  Dataset data;
  ForestParams params;
};

RandomCase make_random_case(util::Rng& rng) {
  const auto p = static_cast<std::size_t>(1 + rng.below(6));
  std::vector<FeatureSpec> specs;
  for (std::size_t f = 0; f < p; ++f) {
    FeatureSpec spec{std::string(1, static_cast<char>('a' + f)),
                     FeatureKind::kNumeric, {}};
    if (rng.bernoulli(0.4)) {
      spec.kind = FeatureKind::kCategorical;
      const std::size_t k =
          rng.bernoulli(0.3) ? 64 : static_cast<std::size_t>(1 + rng.below(24));
      spec.levels.assign(k, "level");
    }
    specs.push_back(std::move(spec));
  }
  // Per feature: a few distinct values (ties) or continuous ones.
  std::vector<std::size_t> distinct(p);
  for (std::size_t f = 0; f < p; ++f) {
    distinct[f] =
        rng.bernoulli(0.5) ? static_cast<std::size_t>(2 + rng.below(6)) : 0;
  }
  const bool tied_targets = rng.bernoulli(0.5);
  const auto n = static_cast<std::size_t>(8 + rng.below(160));
  Dataset data(specs);
  std::vector<double> row(p);
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t f = 0; f < p; ++f) {
      if (specs[f].kind == FeatureKind::kCategorical) {
        row[f] = static_cast<double>(rng.below(specs[f].levels.size()));
        signal += static_cast<double>(static_cast<int>(row[f]) % 5);
      } else if (distinct[f] != 0) {
        row[f] = static_cast<double>(rng.below(distinct[f])) - 1.0;
        signal += row[f];
      } else {
        row[f] = rng.normal(0.0, 1.0);
        signal += row[f];
      }
    }
    const double target =
        tied_targets ? static_cast<double>(rng.below(4))
                     : signal + rng.normal(0.0, 0.5);
    data.add_row(row, target);
  }
  ForestParams params;
  params.n_trees = static_cast<std::size_t>(1 + rng.below(12));
  params.seed = rng();
  const std::size_t mtry_choices[] = {0, 1, 2, p};
  params.tree.mtry = mtry_choices[rng.below(4)];
  const std::size_t min_leaf_choices[] = {1, 2, 5};
  params.tree.min_leaf = min_leaf_choices[rng.below(3)];
  const std::size_t depth_choices[] = {0, 0, 3, 8};
  params.tree.max_depth = depth_choices[rng.below(4)];
  return {std::move(data), params};
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Walk both trees from the root; every node must match in kind, feature,
/// threshold bits, mask and leaf-value bits.
void expect_same_tree(const reference::Tree& expected,
                      const RegressionTree& actual) {
  ASSERT_EQ(expected.nodes().size(), actual.node_count());
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [e, a] = stack.back();
    stack.pop_back();
    const reference::Tree::Node& want = expected.nodes()[e];
    const RegressionTree::Node& got = actual.nodes()[a];
    ASSERT_EQ(want.left == 0, got.leaf());
    if (got.leaf()) {
      ASSERT_TRUE(same_bits(want.value, got.value()));
      continue;
    }
    ASSERT_EQ(want.feature, got.split_feature());
    ASSERT_EQ(want.categorical, got.categorical());
    if (want.categorical) {
      ASSERT_EQ(want.level_mask, got.level_mask());
    } else {
      ASSERT_TRUE(same_bits(want.threshold, got.threshold()));
    }
    stack.emplace_back(want.left, got.left);
    stack.emplace_back(want.right, got.left + 1);
  }
}

void expect_same_forest(const reference::Forest& expected,
                        const RandomForest& actual, const Dataset& data,
                        util::Rng& rng) {
  for (std::size_t t = 0; t < actual.n_trees(); ++t) {
    expect_same_tree(expected.tree(t), actual.tree(t));
    for (std::size_t r = 0; r < data.n_rows(); ++r) {
      const std::size_t f = rng.below(data.n_features());
      const double v = data.value(rng.below(data.n_rows()), f);
      ASSERT_TRUE(same_bits(expected.tree(t).predict_row(data, r),
                            actual.tree(t).predict_row(data, r)));
      ASSERT_TRUE(same_bits(expected.tree(t).predict_row(data, r, f, v),
                            actual.tree(t).predict_row(data, r, f, v)));
    }
  }
  const auto want_rows = expected.predict(data);
  const auto got_rows = actual.predict(data);
  ASSERT_EQ(want_rows.size(), got_rows.size());
  for (std::size_t r = 0; r < data.n_rows(); ++r) {
    ASSERT_TRUE(same_bits(want_rows[r], got_rows[r]));
    const std::vector<double> row = data.row(r);
    ASSERT_TRUE(same_bits(expected.predict(row), actual.predict(row)));
  }
  // Fresh rows: numeric values off the training grid, every level.
  std::vector<double> row(data.n_features());
  for (int i = 0; i < 50; ++i) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      const FeatureSpec& spec = data.feature(f);
      row[f] = spec.kind == FeatureKind::kCategorical
                   ? static_cast<double>(rng.below(spec.levels.size()))
                   : rng.normal(0.0, 2.0);
    }
    ASSERT_TRUE(same_bits(expected.predict(row), actual.predict(row)));
  }
  const auto want_oob = expected.oob_predictions();
  const auto got_oob = actual.oob_predictions();
  for (std::size_t r = 0; r < want_oob.size(); ++r) {
    ASSERT_TRUE(same_bits(want_oob[r], got_oob[r]));
  }
  const std::uint64_t seed = rng();
  util::Rng want_rng(seed);
  util::Rng got_rng(seed);
  const auto want_imp = expected.importance(want_rng, 2);
  const auto got_imp = actual.importance(got_rng, 2);
  for (std::size_t f = 0; f < want_imp.size(); ++f) {
    ASSERT_TRUE(same_bits(want_imp[f].inc_mse_pct, got_imp[f].inc_mse_pct));
    ASSERT_TRUE(
        same_bits(want_imp[f].inc_node_purity, got_imp[f].inc_node_purity));
  }
}

TEST(ForestReference, PresortedFlatForestMatchesPerNodeSortTrainer) {
  util::Rng rng(2024);
  util::ThreadPool pool(2);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    const RandomCase c = make_random_case(rng);
    reference::Forest expected;
    expected.fit(c.data, c.params);
    RandomForest serial;
    serial.fit(c.data, c.params);
    expect_same_forest(expected, serial, c.data, rng);
    if (HasFatalFailure()) return;
    RandomForest pooled;
    pooled.fit(c.data, c.params, &pool);
    expect_same_forest(expected, pooled, c.data, rng);
    if (HasFatalFailure()) return;
  }
}

TEST(ForestReference, StandaloneTreeMatchesPerNodeSortTrainer) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    const RandomCase c = make_random_case(rng);
    // Any multiset of rows, in any order, duplicates included.
    std::vector<std::size_t> rows(1 + rng.below(2 * c.data.n_rows()));
    for (std::size_t& r : rows) r = rng.below(c.data.n_rows());
    const std::uint64_t seed = rng();
    util::Rng want_rng(seed);
    util::Rng got_rng(seed);
    std::vector<double> want_gain(c.data.n_features(), 0.0);
    std::vector<double> got_gain(c.data.n_features(), 0.0);
    reference::Tree expected;
    expected.fit(c.data, rows, c.params.tree, want_rng, &want_gain);
    RegressionTree actual;
    actual.fit(c.data, rows, c.params.tree, got_rng, &got_gain);
    expect_same_tree(expected, actual);
    if (HasFatalFailure()) return;
    for (std::size_t f = 0; f < want_gain.size(); ++f) {
      ASSERT_TRUE(same_bits(want_gain[f], got_gain[f]));
    }
    // Both consumed the same random draws.
    ASSERT_EQ(want_rng(), got_rng());
  }
}

// Parameterized sweep: accuracy should be stable across a wide range of
// mtry and improve (or plateau) with more trees — Breiman's robustness
// claims that justify the paper's single-tuning-parameter usage.
class ForestSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ForestSizeSweep, VarianceExplainedGrowsWithTrees) {
  util::Rng rng(15);
  Dataset data = make_friedman(300, 0, rng);
  ForestParams params;
  params.n_trees = GetParam();
  params.seed = 2;
  RandomForest forest;
  forest.fit(data, params);
  EXPECT_GT(forest.variance_explained(), GetParam() >= 100 ? 0.75 : 0.55);
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, ForestSizeSweep,
                         ::testing::Values(10, 50, 150));

class MtrySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MtrySweep, AccuracyRobustAcrossMtry) {
  util::Rng rng(16);
  Dataset data = make_friedman(300, 0, rng);
  ForestParams params;
  params.n_trees = 100;
  params.tree.mtry = GetParam();
  RandomForest forest;
  forest.fit(data, params);
  EXPECT_GT(forest.variance_explained(), 0.70);
}

INSTANTIATE_TEST_SUITE_P(MtryValues, MtrySweep, ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace lattice::rf
