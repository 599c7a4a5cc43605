// Tests for the engine extensions: consensus trees and bootstrap support
// (the portal's post-processing), the island-model parallel GA (GARLI's
// MPI flavor), and the BEAGLE-style transition-matrix cache.
#include <gtest/gtest.h>

#include <cmath>

#include "phylo/consensus.hpp"
#include "phylo/island.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/simulate.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lattice::phylo {
namespace {

std::vector<std::string> names_for(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("t" + std::to_string(i));
  return names;
}

// ---------------------------------------------------------------------------
// Bipartitions and consensus

TEST(Consensus, BipartitionCountsIdenticalTrees) {
  util::Rng rng(1);
  const Tree tree = Tree::random(10, rng);
  std::vector<Tree> trees{tree, tree, tree};
  const auto counts = bipartition_counts(trees);
  // 10 taxa unrooted -> 7 internal edges.
  EXPECT_EQ(counts.size(), 7u);
  for (const auto& [split, count] : counts) {
    EXPECT_EQ(count, 3u);
  }
}

TEST(Consensus, TreeBipartitionsDedupeRootSplit) {
  // Both root children induce the same unrooted split; it must appear once.
  util::Rng rng(2);
  const Tree tree = Tree::random(8, rng);
  const auto splits = tree_bipartitions(tree);
  EXPECT_EQ(splits.size(), 5u);  // n - 3 internal edges
  for (std::size_t i = 1; i < splits.size(); ++i) {
    EXPECT_NE(splits[i - 1], splits[i]);
  }
}

TEST(Consensus, IdenticalInputsReproduceTopology) {
  util::Rng rng(3);
  const Tree tree = Tree::random(9, rng);
  std::vector<Tree> trees{tree, tree, tree, tree};
  const ConsensusResult consensus = majority_rule_consensus(trees);
  EXPECT_EQ(Tree::robinson_foulds(consensus.tree, tree), 0u);
  // Every internal split is supported at 100%.
  for (const auto& [node, support] : consensus.support) {
    EXPECT_DOUBLE_EQ(support, 1.0);
  }
  // Support is per internal non-root *node*: n - 2 entries, with the two
  // root children carrying the same unrooted split (n - 3 distinct).
  EXPECT_EQ(consensus.support.size(), 7u);
}

TEST(Consensus, MajoritySplitsSurviveMinorityNoise) {
  // Three trees share ((t0,t1),(t2,t3)) structure on 6 taxa; one oddball
  // disagrees. The shared splits must survive, the oddball's must not.
  const auto names = names_for(6);
  const Tree shared1 =
      Tree::parse_newick("(((t0,t1),(t2,t3)),(t4,t5));", names);
  const Tree shared2 =
      Tree::parse_newick("(((t1,t0),(t3,t2)),(t5,t4));", names);
  const Tree shared3 =
      Tree::parse_newick("((t4,t5),((t0,t1),(t2,t3)));", names);
  const Tree oddball =
      Tree::parse_newick("(((t0,t4),(t2,t5)),(t1,t3));", names);
  std::vector<Tree> trees{shared1, shared2, shared3, oddball};
  const ConsensusResult consensus = majority_rule_consensus(trees);
  // The consensus must contain the shared splits: RF distance to a shared
  // topology counts only the unresolved/extra splits, and every shared
  // split has 3/4 support.
  for (const auto& [node, support] : consensus.support) {
    EXPECT_GE(support, 0.75);
  }
  EXPECT_GE(consensus.support.size(), 3u);
  // Consensus contains no split unique to the oddball.
  const auto consensus_splits = tree_bipartitions(consensus.tree);
  const auto odd_splits = tree_bipartitions(oddball);
  const auto shared_splits = tree_bipartitions(shared1);
  for (const auto& [node, support] : consensus.support) {
    (void)node;
  }
  std::size_t odd_only_found = 0;
  for (const auto& split : odd_splits) {
    bool in_shared = false;
    for (const auto& s : shared_splits) {
      if (s == split) in_shared = true;
    }
    if (in_shared) continue;
    // A minority split may appear in the binarized tree but never in the
    // supported set.
    for (const auto& [node, support] : consensus.support) {
      (void)support;
    }
    const auto result_node_splits = bipartition_counts(
        std::vector<Tree>{consensus.tree});
    if (result_node_splits.contains(split)) ++odd_only_found;
  }
  EXPECT_EQ(odd_only_found, 0u);
}

TEST(Consensus, ErrorsOnBadInput) {
  EXPECT_THROW(majority_rule_consensus({}), std::invalid_argument);
  util::Rng rng(4);
  std::vector<Tree> mismatched{Tree::random(5, rng), Tree::random(6, rng)};
  EXPECT_THROW(majority_rule_consensus(mismatched), std::invalid_argument);
  std::vector<Tree> ok{Tree::random(5, rng)};
  EXPECT_THROW(majority_rule_consensus(ok, 0.3), std::invalid_argument);
}

TEST(Consensus, BootstrapSupportOnReference) {
  util::Rng rng(5);
  const Tree reference = Tree::random(8, rng);
  // Replicates: mostly the reference, some randomized.
  std::vector<Tree> replicates;
  for (int i = 0; i < 8; ++i) replicates.push_back(reference);
  for (int i = 0; i < 2; ++i) replicates.push_back(Tree::random(8, rng));
  const auto support = bootstrap_support(reference, replicates);
  EXPECT_EQ(support.size(), 5u);  // n - 3 internal splits
  for (const auto& [node, value] : support) {
    EXPECT_GE(value, 0.8);  // at least the 8 exact copies agree
    EXPECT_LE(value, 1.0);
  }
  EXPECT_THROW(bootstrap_support(reference, {}), std::invalid_argument);
}

TEST(Consensus, SupportDistinguishesStrongAndWeakSplits) {
  const auto names = names_for(6);
  const Tree a = Tree::parse_newick("(((t0,t1),(t2,t3)),(t4,t5));", names);
  const Tree b = Tree::parse_newick("(((t0,t1),(t2,t4)),(t3,t5));", names);
  // (t0,t1) present in both; (t2,t3) only in a.
  const auto support = bootstrap_support(a, std::vector<Tree>{a, b});
  double strong = 0.0;
  double weak = 2.0;
  for (const auto& [node, value] : support) {
    strong = std::max(strong, value);
    weak = std::min(weak, value);
  }
  EXPECT_DOUBLE_EQ(strong, 1.0);
  EXPECT_DOUBLE_EQ(weak, 0.5);
}

// ---------------------------------------------------------------------------
// Island GA

TEST(IslandGa, FindsTreeAtLeastAsGoodAsSingleSearch) {
  util::Rng rng(6);
  ModelSpec spec;
  const auto dataset = simulate_dataset(8, 600, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);

  GaConfig single_config;
  single_config.genthresh = 40;
  single_config.seed = 11;
  GaSearch single(patterns, spec, single_config);
  single.run();

  IslandGaConfig island_config;
  island_config.island = single_config;
  island_config.n_islands = 4;
  island_config.migration_interval = 20;
  IslandGaSearch islands(patterns, spec, island_config);
  islands.run();

  EXPECT_GE(islands.best().log_likelihood,
            single.best().log_likelihood - 1.0);
  EXPECT_GT(islands.total_generations(), 0u);
}

TEST(IslandGa, ThreadCountDoesNotChangeResult) {
  util::Rng rng(7);
  ModelSpec spec;
  const auto dataset = simulate_dataset(7, 300, spec, rng, 0.2);
  const PatternizedAlignment patterns(dataset.alignment);

  IslandGaConfig config;
  config.island.genthresh = 25;
  config.island.seed = 21;
  config.n_islands = 3;
  config.migration_interval = 10;

  IslandGaSearch serial(patterns, spec, config);
  serial.run(nullptr);

  util::ThreadPool pool(4);
  IslandGaSearch parallel(patterns, spec, config);
  parallel.run(&pool);

  EXPECT_DOUBLE_EQ(serial.best().log_likelihood,
                   parallel.best().log_likelihood);
  EXPECT_EQ(serial.rounds(), parallel.rounds());
  EXPECT_EQ(serial.total_generations(), parallel.total_generations());
}

TEST(IslandGa, MigrationSpreadsGoodIndividuals) {
  util::Rng rng(8);
  ModelSpec spec;
  const auto dataset = simulate_dataset(7, 400, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  IslandGaConfig config;
  config.island.genthresh = 30;
  config.island.seed = 5;
  config.n_islands = 3;
  config.migration_interval = 15;
  IslandGaSearch search(patterns, spec, config);
  search.run();
  // After convergence with ring migration, all islands should hold the
  // champion (or something very near it).
  const double champion = search.best().log_likelihood;
  for (std::size_t i = 0; i < search.n_islands(); ++i) {
    EXPECT_GE(search.island(i).best().log_likelihood, champion - 20.0);
  }
}

TEST(IslandGa, IslandsShareOneCompiledStartModel) {
  util::Rng rng(12);
  const auto dataset = simulate_dataset(6, 80, ModelSpec{}, rng);
  const PatternizedAlignment patterns(dataset.alignment);
  IslandGaConfig config;
  config.island.population_size = 4;
  config.n_islands = 3;
  const IslandGaSearch search(patterns, ModelSpec{}, config);
  const SubstitutionModel* shared =
      search.island(0).population().front().compiled.get();
  ASSERT_NE(shared, nullptr);
  for (std::size_t i = 0; i < search.n_islands(); ++i) {
    for (const Individual& individual : search.island(i).population()) {
      EXPECT_EQ(individual.compiled.get(), shared) << "island " << i;
    }
  }
}

TEST(IslandGa, ConfigValidation) {
  util::Rng rng(9);
  const auto dataset = simulate_dataset(5, 60, ModelSpec{}, rng);
  const PatternizedAlignment patterns(dataset.alignment);
  IslandGaConfig config;
  config.n_islands = 0;
  EXPECT_THROW(IslandGaSearch(patterns, ModelSpec{}, config),
               std::invalid_argument);
  config.n_islands = 2;
  config.migration_interval = 0;
  EXPECT_THROW(IslandGaSearch(patterns, ModelSpec{}, config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Matrix cache

TEST(MatrixCache, CachedAndUncachedAgreeExactly) {
  util::Rng rng(10);
  ModelSpec spec;
  spec.rate_het = RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = simulate_dataset(10, 300, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);

  LikelihoodEngine plain(patterns);
  LikelihoodEngine cached(patterns);
  cached.enable_matrix_cache();

  for (int trial = 0; trial < 5; ++trial) {
    Tree tree = Tree::random(10, rng, 0.15);
    EXPECT_DOUBLE_EQ(plain.log_likelihood(tree, model),
                     cached.log_likelihood(tree, model));
  }
  EXPECT_GT(cached.cache_hits() + cached.cache_misses(), 0u);
}

TEST(MatrixCache, RepeatEvaluationsHitCache) {
  util::Rng rng(11);
  ModelSpec spec;
  const auto dataset = simulate_dataset(8, 200, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);
  LikelihoodEngine engine(patterns);
  engine.enable_matrix_cache();
  const Tree tree = Tree::random(8, rng, 0.15);
  (void)engine.log_likelihood(tree, model);
  const std::uint64_t misses_after_first = engine.cache_misses();
  (void)engine.log_likelihood(tree, model);
  EXPECT_EQ(engine.cache_misses(), misses_after_first);  // all hits
  EXPECT_GT(engine.cache_hits(), 0u);
}

TEST(MatrixCache, RebuiltModelDoesNotReuseStaleEntries) {
  util::Rng rng(12);
  ModelSpec spec;
  spec.nuc_model = NucModel::kHKY85;
  const auto dataset = simulate_dataset(6, 150, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  LikelihoodEngine engine(patterns);
  engine.enable_matrix_cache();
  const Tree tree = Tree::random(6, rng, 0.15);

  const SubstitutionModel before(spec);
  const double lnl_before = engine.log_likelihood(tree, before);
  spec.kappa = 9.0;
  const SubstitutionModel after(spec);
  const double lnl_after = engine.log_likelihood(tree, after);
  EXPECT_NE(lnl_before, lnl_after);
  // And the result matches a cache-free engine.
  LikelihoodEngine fresh(patterns);
  EXPECT_DOUBLE_EQ(lnl_after, fresh.log_likelihood(tree, after));
}

TEST(MatrixCache, CapacityBoundIsRespected) {
  util::Rng rng(13);
  ModelSpec spec;
  const auto dataset = simulate_dataset(6, 100, spec, rng, 0.15);
  const PatternizedAlignment patterns(dataset.alignment);
  const SubstitutionModel model(spec);
  LikelihoodEngine engine(patterns);
  engine.enable_matrix_cache(8);  // tiny capacity forces clears
  for (int trial = 0; trial < 20; ++trial) {
    Tree tree = Tree::random(6, rng, 0.15);
    const double a = engine.log_likelihood(tree, model);
    LikelihoodEngine fresh(patterns);
    EXPECT_DOUBLE_EQ(a, fresh.log_likelihood(tree, model));
  }
}

}  // namespace
}  // namespace lattice::phylo
