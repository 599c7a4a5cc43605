// Tests for the incremental likelihood engine: dirty-partial reuse must be
// indistinguishable from full recomputation across arbitrary mutation
// sequences, and the matrix cache's second-chance eviction must keep
// serving the hot set.
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

  // Capacity far below the working set (24 taxa -> 46 branches x 4 rates):
  // the old wholesale clear() would discard everything repeatedly; the
  // second-chance sweep must keep evicting while results stay exact.
  LikelihoodEngine tight(patterns);
  tight.enable_matrix_cache(16);
  tight.enable_incremental(false);
  LikelihoodEngine reference(patterns);
  reference.enable_incremental(false);

  Tree tree = dataset.tree;
  for (int step = 0; step < 5; ++step) {
    tree.set_branch_length(1, tree.branch_length(1) * 1.05);
    ASSERT_DOUBLE_EQ(tight.log_likelihood(tree, model),
                     reference.log_likelihood(tree, model));
  }
  EXPECT_GT(tight.cache_evictions(), 0u);
  EXPECT_GT(tight.cache_misses(), 0u);
}

TEST(MatrixCache, HotEntriesSurviveEviction) {
  util::Rng rng(37);
  ModelSpec spec;
  const auto dataset = simulate_dataset(6, 100, spec, rng, 0.1);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine engine(patterns);
  engine.enable_matrix_cache(8);
  Tree tree = dataset.tree;
  // 6 taxa -> 10 cached matrices per full evaluation; capacity 8 forces
  // sweeps. Re-evaluating the same tree repeatedly must still produce
  // hits, because recently referenced matrices get a second chance.
  engine.enable_incremental(false);
  for (int round = 0; round < 6; ++round) {
    engine.log_likelihood(tree, model);
  }
  EXPECT_GT(engine.cache_hits(), 0u);
}

}  // namespace
}  // namespace lattice::phylo
