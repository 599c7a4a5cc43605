// Tests for the incremental likelihood engine: dirty-partial reuse must be
// indistinguishable from full recomputation across arbitrary mutation
// sequences, and the matrix cache's CLOCK eviction must keep serving the
// hot set within its whole-tree capacity, in a platform-independent order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "phylo/likelihood.hpp"
#include "phylo/simulate.hpp"
#include "util/rng.hpp"

namespace lattice::phylo {
namespace {

// One randomized step of the GA's mutation repertoire applied in place.
void random_mutation(Tree& tree, util::Rng& rng) {
  const double which = rng.uniform();
  if (which < 0.3) {
    const std::vector<int> internals = tree.internal_edge_nodes();
    if (!internals.empty()) {
      const int node =
          internals[static_cast<std::size_t>(rng.below(internals.size()))];
      tree.nni(node, static_cast<int>(rng.below(2)));
      return;
    }
  } else if (which < 0.5) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int prune = static_cast<int>(rng.below(tree.n_nodes()));
      const int graft = static_cast<int>(rng.below(tree.n_nodes()));
      if (tree.spr(prune, graft)) return;
    }
  }
  const int index = static_cast<int>(rng.below(tree.n_nodes()));
  if (index != tree.root()) {
    const double factor = rng.lognormal(0.0, 0.3);
    const double updated =
        std::clamp(tree.branch_length(index) * factor, 1e-8, 10.0);
    tree.set_branch_length(index, updated);
  }
}

TEST(IncrementalLikelihood, MatchesFullRecomputeAcross1000Mutations) {
  util::Rng rng(20260806);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(16, 300, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine incremental(patterns);
  incremental.enable_matrix_cache();
  LikelihoodEngine full(patterns);
  full.enable_incremental(false);

  Tree tree = dataset.tree;
  for (int step = 0; step < 1000; ++step) {
    random_mutation(tree, rng);
    const double inc = incremental.log_likelihood(tree, model);
    const double ref = full.log_likelihood(tree, model);
    ASSERT_NEAR(inc, ref, 1e-10 * std::max(1.0, std::abs(ref)))
        << "diverged at step " << step;
  }
  // The whole point: mutations touch a path to the root, not the tree.
  EXPECT_GT(incremental.partials_reused(), 0u);
  EXPECT_LT(incremental.partials_recomputed(), full.partials_recomputed());
}

TEST(IncrementalLikelihood, FreshTreeObjectFallsBackToFullRecompute) {
  util::Rng rng(7);
  ModelSpec spec;
  const auto dataset = simulate_dataset(10, 200, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine engine(patterns);
  const double a = engine.log_likelihood(dataset.tree, model);
  // A copy has a fresh uid: the engine must not trust stale partials even
  // though per-node revisions coincide.
  Tree copy = dataset.tree;
  copy.set_branch_length(0, copy.branch_length(0) * 3.0);
  const double b = engine.log_likelihood(copy, model);
  EXPECT_NE(a, b);

  LikelihoodEngine fresh(patterns);
  EXPECT_DOUBLE_EQ(b, fresh.log_likelihood(copy, model));
}

TEST(IncrementalLikelihood, SingleBranchPerturbationReusesMostPartials) {
  util::Rng rng(11);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(32, 500, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine engine(patterns);
  Tree tree = dataset.tree;
  engine.log_likelihood(tree, model);
  const std::uint64_t after_first = engine.partials_recomputed();

  // Perturb one leaf branch: only its ancestor path should recompute.
  tree.set_branch_length(0, tree.branch_length(0) * 1.1);
  engine.log_likelihood(tree, model);
  const std::uint64_t second = engine.partials_recomputed() - after_first;
  const std::uint64_t n_internal = tree.n_nodes() - tree.n_leaves();
  EXPECT_LT(second, n_internal * 4);  // strictly fewer than all (node, cat)
  EXPECT_GT(engine.partials_reused(), 0u);
}

TEST(IncrementalLikelihood, AminoAcidAndCodonModelsStayConsistent) {
  util::Rng rng(23);
  ModelSpec spec;
  spec.data_type = DataType::kAminoAcid;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 2;
  const auto dataset = simulate_dataset(8, 120, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine incremental(patterns);
  LikelihoodEngine full(patterns);
  full.enable_incremental(false);

  Tree tree = dataset.tree;
  util::Rng mut_rng(29);
  for (int step = 0; step < 100; ++step) {
    random_mutation(tree, mut_rng);
    const double inc = incremental.log_likelihood(tree, model);
    const double ref = full.log_likelihood(tree, model);
    ASSERT_NEAR(inc, ref, 1e-10 * std::max(1.0, std::abs(ref)));
  }
}

TEST(MatrixCache, SecondChanceEvictionKeepsServingUnderPressure) {
  util::Rng rng(31);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(24, 200, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  // Between two evaluations of the hot tree, a random tree brings 46
  // branches x 4 rates of new matrices; 24 of them overflow the 8 resident
  // trees many times over. The CLOCK hand must keep evicting while results
  // stay exact, and the hot tree's matrices, referenced on every round,
  // must survive each pass of the hand.
  LikelihoodEngine tight(patterns);
  tight.enable_matrix_cache();
  tight.enable_incremental(false);
  LikelihoodEngine reference(patterns);
  reference.enable_incremental(false);

  Tree tree = dataset.tree;
  for (int step = 0; step < 24; ++step) {
    const Tree pressure = Tree::random(24, rng, 0.1);
    ASSERT_DOUBLE_EQ(tight.log_likelihood(pressure, model),
                     reference.log_likelihood(pressure, model));
    tree.set_branch_length(1, tree.branch_length(1) * 1.05);
    const std::uint64_t misses_before = tight.cache_misses();
    ASSERT_DOUBLE_EQ(tight.log_likelihood(tree, model),
                     reference.log_likelihood(tree, model));
    // Only the changed branch's 4 matrices are new (step 0 fills the rest).
    if (step > 0) {
      EXPECT_EQ(tight.cache_misses() - misses_before, 4u) << "step " << step;
    }
  }
  EXPECT_GT(tight.cache_evictions(), 0u);
  EXPECT_GT(tight.cache_misses(), 0u);
  EXPECT_GT(tight.cache_hits(), 0u);
}

TEST(MatrixCache, HotEntriesSurviveEviction) {
  util::Rng rng(37);
  ModelSpec spec;
  const auto dataset = simulate_dataset(6, 100, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine engine(patterns);
  engine.enable_matrix_cache();
  engine.enable_incremental(false);
  const Tree tree = dataset.tree;
  // 6 taxa -> 10 matrices per full evaluation, 80 resident. Three random
  // trees between re-evaluations of the same tree force evictions; the
  // re-evaluated tree's matrices were referenced since the hand last
  // passed them, so every later evaluation of it is all hits.
  engine.log_likelihood(tree, model);
  for (int round = 0; round < 12; ++round) {
    for (int cold = 0; cold < 3; ++cold) {
      engine.log_likelihood(Tree::random(6, rng, 0.1), model);
    }
    const std::uint64_t misses_before = engine.cache_misses();
    engine.log_likelihood(tree, model);
    EXPECT_EQ(engine.cache_misses(), misses_before) << "round " << round;
  }
  EXPECT_GT(engine.cache_evictions(), 0u);
  EXPECT_GT(engine.cache_hits(), 0u);
}

TEST(MatrixCache, HoldsAtMostResidentTreesOfMatrices) {
  util::Rng rng(41);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(12, 150, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);
  // 12 taxa: 22 edges (rooted binary, nodes - 1) x 4 rates per tree.
  const std::size_t capacity = LikelihoodEngine::kResidentTrees * 22 * 4;

  LikelihoodEngine engine(patterns);
  engine.enable_matrix_cache();
  for (int trial = 0; trial < 200; ++trial) {
    engine.log_likelihood(Tree::random(12, rng, 0.1), model);
    ASSERT_LE(engine.cache_entries(), capacity) << "after tree " << trial;
  }
  // 200 trees of distinct branch lengths fill the cache to the bound.
  EXPECT_EQ(engine.cache_entries(), capacity);
  EXPECT_GT(engine.cache_evictions(), 0u);
}

TEST(MatrixCache, EvictionOrderIsDeterministic) {
  util::Rng rng(43);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(10, 120, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  // Two compilations of one spec: the same matrices under different
  // serials, so the two caches hash every key differently. An eviction
  // that followed hash order would pick different victims.
  const SubstitutionModel model_a(spec);
  const SubstitutionModel model_b(spec);
  ASSERT_NE(model_a.serial(), model_b.serial());

  std::vector<Tree> trees;
  for (int i = 0; i < 40; ++i) trees.push_back(Tree::random(10, rng, 0.1));
  LikelihoodEngine a(patterns);
  LikelihoodEngine b(patterns);
  a.enable_matrix_cache();
  b.enable_matrix_cache();
  a.enable_incremental(false);
  b.enable_incremental(false);
  // Each new tree, then an older one: some revisits hit, some were evicted.
  for (std::size_t i = 0; i < trees.size(); ++i) {
    for (const std::size_t t : {i, i / 2, i / 5}) {
      ASSERT_DOUBLE_EQ(a.log_likelihood(trees[t], model_a),
                       b.log_likelihood(trees[t], model_b));
    }
  }
  EXPECT_GT(a.cache_evictions(), 0u);
  EXPECT_GT(a.cache_hits(), 0u);
  EXPECT_EQ(a.cache_hits(), b.cache_hits());
  EXPECT_EQ(a.cache_misses(), b.cache_misses());
  EXPECT_EQ(a.cache_evictions(), b.cache_evictions());
}

}  // namespace
}  // namespace lattice::phylo
