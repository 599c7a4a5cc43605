// PERF — google-benchmark microbenchmarks for the kernels everything else
// stands on: the RNG, the event queue, the Felsenstein pruning likelihood,
// the eigen decompositions behind P(t), CART/forest training and
// prediction, and a GA generation step.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/cost_model.hpp"
#include "core/estimator.hpp"
#include "phylo/ga.hpp"
#include "phylo/island.hpp"
#include "phylo/kernels/kernels.hpp"
#include "phylo/likelihood.hpp"
#include "phylo/linalg.hpp"
#include "phylo/model.hpp"
#include "phylo/simulate.hpp"
#include "rf/forest.hpp"
#include "sim/simulation.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace {

using namespace lattice;

// Shared fixture for the incremental-vs-full likelihood benchmarks: a
// 32-taxon alignment with 4 gamma categories, evaluated after a
// single-branch perturbation — the GA/Brent hot path. arg 0 selects DNA
// (4 states), arg 1 amino acids (20 states).
phylo::ModelSpec inc_bench_spec(std::int64_t arg) {
  phylo::ModelSpec spec;
  if (arg == 1) spec.data_type = phylo::DataType::kAminoAcid;
  spec.rate_het = phylo::RateHet::kGamma;
  spec.n_rate_categories = 4;
  return spec;
}

void run_likelihood_perturb(benchmark::State& state, bool incremental) {
  util::Rng rng(15);
  const phylo::ModelSpec spec = inc_bench_spec(state.range(0));
  const auto dataset = phylo::simulate_dataset(32, 1000, spec, rng, 0.1);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  phylo::LikelihoodEngine engine(patterns);
  engine.enable_incremental(incremental);
  engine.enable_matrix_cache();
  const phylo::SubstitutionModel model(spec);
  phylo::Tree tree = dataset.tree;
  benchmark::DoNotOptimize(engine.log_likelihood(tree, model));  // warm
  std::size_t branch = 0;
  for (auto _ : state) {
    const int index = static_cast<int>(branch++ % tree.n_nodes());
    if (index != tree.root()) {
      tree.set_branch_length(index, tree.branch_length(index) * 1.01);
    }
    benchmark::DoNotOptimize(engine.log_likelihood(tree, model));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(patterns.n_patterns()));
}

void BM_LikelihoodFull(benchmark::State& state) {
  run_likelihood_perturb(state, /*incremental=*/false);
}
BENCHMARK(BM_LikelihoodFull)->Arg(0)->Arg(1);

void BM_LikelihoodIncremental(benchmark::State& state) {
  run_likelihood_perturb(state, /*incremental=*/true);
}
BENCHMARK(BM_LikelihoodIncremental)->Arg(0)->Arg(1);

void BM_RngUniform(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform());
  }
}
BENCHMARK(BM_RngUniform);

void BM_SimScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.after(static_cast<double>(i % 37), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_fired());
  }
}
BENCHMARK(BM_SimScheduleFire);

void BM_EigenDecompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m[i * n + j] = m[j * n + i] = rng.normal();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(phylo::symmetric_eigen(m, n));
  }
}
BENCHMARK(BM_EigenDecompose)->Arg(4)->Arg(20)->Arg(61);

// One P(t) reconstruction: arg 0 is the state count (4 DNA, 20 amino
// acid, 61 codon), arg 1 the kernel tier (0 scalar, 1 the active tier), so
// the scalar and vector copies of the blocked kernel sit side by side.
void BM_TransitionMatrix(benchmark::State& state) {
  phylo::ModelSpec spec;
  switch (state.range(0)) {
    case 4: spec.data_type = phylo::DataType::kNucleotide; break;
    case 20: spec.data_type = phylo::DataType::kAminoAcid; break;
    default: spec.data_type = phylo::DataType::kCodon; break;
  }
  const phylo::SubstitutionModel model(spec);
  namespace kernels = phylo::kernels;
  const kernels::KernelOps& ops =
      state.range(1) == 0 ? kernels::ops_for(kernels::IsaTier::kScalar)
                          : kernels::active_ops();
  state.SetLabel(ops.name);
  std::vector<double> p(model.n_states() * model.n_states());
  for (auto _ : state) {
    model.transition_matrix(0.1, 1.0, p, ops);
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TransitionMatrix)->ArgsProduct({{4, 20, 61}, {0, 1}});

// One block kernel of one ISA tier on one 32-pattern block. args: tier
// (0 scalar, 1 avx2, 2 avx512), state count, kernel (0 internal children,
// 1 leaf children, 2 epilogue, 3 root sites). The child kernels time a
// node's pair of calls, the assign then the mul flavor, so the block
// never drifts; leaf blocks have about one missing state in eight.
void BM_BlockKernel(benchmark::State& state) {
  namespace kernels = phylo::kernels;
  constexpr std::size_t kB = kernels::kPatternBlock;
  const auto tier = static_cast<kernels::IsaTier>(state.range(0));
  if (!kernels::tier_supported(tier)) {
    state.SkipWithError("tier not supported on this host");
    return;
  }
  const kernels::KernelOps& ops = kernels::ops_for(tier);
  const auto ns = static_cast<std::size_t>(state.range(1));
  const std::int64_t kernel = state.range(2);
  static constexpr const char* kNames[] = {"internal", "leaf", "epilogue",
                                           "root"};
  state.SetLabel(std::string(ops.name) + " " + kNames[kernel]);
  util::Rng rng(11);
  util::aligned_vector<double> block(ns * kB), child(ns * kB), p(ns * ns);
  util::aligned_vector<double> sl(kB), sr(kB), sb(kB), site(kB), freqs(ns);
  util::aligned_vector<phylo::State> states(kB);
  for (auto& v : child) v = 0.1 + rng.uniform();
  for (auto& v : block) v = 0.1 + rng.uniform();
  for (auto& v : p) v = rng.uniform() / static_cast<double>(ns);
  for (auto& v : sl) v = -rng.uniform();
  for (auto& v : sr) v = -rng.uniform();
  for (auto& v : freqs) v = 1.0 / static_cast<double>(ns);
  for (auto& s : states) {
    s = rng.uniform() < 0.125 ? phylo::kMissing
                              : static_cast<phylo::State>(rng.below(ns));
  }
  const phylo::State* leaf = kernel == 1 ? states.data() : nullptr;
  const double* partial = kernel == 1 ? nullptr : child.data();
  for (auto _ : state) {
    switch (kernel) {
      case 0:
      case 1:
        ops.apply_child_assign(block.data(), partial, leaf, p.data(), ns);
        ops.apply_child_mul(block.data(), partial, leaf, p.data(), ns);
        break;
      case 2:
        ops.block_epilogue(block.data(), sb.data(), sl.data(), sr.data(), ns,
                           kB);
        break;
      default:
        ops.root_sites(block.data(), freqs.data(), ns, site.data());
        break;
    }
    benchmark::DoNotOptimize(block.data());
    benchmark::DoNotOptimize(site.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BlockKernel)->ArgsProduct({{0, 1, 2}, {4, 20, 61}, {0, 1, 2, 3}});

void BM_Likelihood(benchmark::State& state) {
  util::Rng rng(5);
  phylo::ModelSpec spec;
  spec.rate_het = phylo::RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto taxa = static_cast<std::size_t>(state.range(0));
  const auto dataset = phylo::simulate_dataset(taxa, 500, spec, rng, 0.1);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  phylo::LikelihoodEngine engine(patterns);
  const phylo::SubstitutionModel model(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.log_likelihood(dataset.tree, model));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(patterns.n_patterns()));
}
BENCHMARK(BM_Likelihood)->Arg(8)->Arg(24)->Arg(64);

void BM_LikelihoodCodonCacheAblation(benchmark::State& state) {
  // GA-like access pattern: re-evaluate trees whose branch lengths mostly
  // repeat. arg 0 = no cache, 1 = BEAGLE-style matrix cache.
  util::Rng rng(6);
  phylo::ModelSpec spec;
  spec.data_type = phylo::DataType::kCodon;
  const auto dataset = phylo::simulate_dataset(8, 60, spec, rng, 0.1);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  phylo::LikelihoodEngine engine(patterns);
  if (state.range(0) == 1) engine.enable_matrix_cache();
  const phylo::SubstitutionModel model(spec);
  phylo::Tree tree = dataset.tree;
  std::size_t branch = 0;
  for (auto _ : state) {
    // Perturb one branch per evaluation, as a GA mutation would.
    const int index = static_cast<int>(branch++ % tree.n_nodes());
    if (index != tree.root()) {
      tree.set_branch_length(index, tree.branch_length(index) * 1.01);
    }
    benchmark::DoNotOptimize(engine.log_likelihood(tree, model));
  }
}
BENCHMARK(BM_LikelihoodCodonCacheAblation)->Arg(0)->Arg(1);

void BM_GaGeneration(benchmark::State& state) {
  util::Rng rng(7);
  phylo::ModelSpec spec;
  const auto dataset = phylo::simulate_dataset(12, 300, spec, rng, 0.15);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  phylo::GaConfig config;
  config.genthresh = 1u << 30;
  config.max_generations = 1u << 30;
  phylo::GaSearch search(patterns, spec, config);
  for (auto _ : state) {
    search.step();
    benchmark::DoNotOptimize(search.best().log_likelihood);
  }
}
BENCHMARK(BM_GaGeneration);

// Island-model GA: one migration round (4 islands x 5 generations) per
// iteration on an Arg(0)-thread pool. Bit-identical for every thread
// count — the wall-clock spread across 1/2/4 threads is the point.
void BM_IslandGA(benchmark::State& state) {
  util::Rng rng(21);
  phylo::ModelSpec spec;
  spec.rate_het = phylo::RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = phylo::simulate_dataset(12, 240, spec, rng, 0.15);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  phylo::IslandGaConfig config;
  config.n_islands = 4;
  config.migration_interval = 5;
  config.max_rounds = 1u << 30;
  config.island.seed = 99;
  config.island.genthresh = 1u << 30;
  config.island.max_generations = 1u << 30;
  phylo::IslandGaSearch search(patterns, spec, config);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    search.round(&pool);
    benchmark::DoNotOptimize(search.best().log_likelihood);
  }
}
BENCHMARK(BM_IslandGA)->Arg(1)->Arg(2)->Arg(4);

void BM_ForestTrain(benchmark::State& state) {
  const core::GarliCostModel model;
  util::Rng rng(9);
  const auto corpus = core::generate_corpus(150, model, rng);
  const auto data = core::corpus_to_dataset(corpus, true);
  rf::ForestParams params;
  params.n_trees = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rf::RandomForest forest;
    forest.fit(data, params);
    benchmark::DoNotOptimize(forest.n_trees());
  }
}
BENCHMARK(BM_ForestTrain)->Arg(100)->Arg(500);

void BM_ForestPredict(benchmark::State& state) {
  const core::GarliCostModel model;
  util::Rng rng(11);
  const auto corpus = core::generate_corpus(150, model, rng);
  const auto data = core::corpus_to_dataset(corpus, true);
  rf::ForestParams params;
  params.n_trees = 500;
  rf::RandomForest forest;
  forest.fit(data, params);
  // Cycle over many varied rows: predicting one fixed row would let the
  // branch predictor learn its single path through every tree.
  constexpr std::size_t kRows = 4096;
  std::vector<std::vector<double>> rows;
  rows.reserve(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(core::to_feature_vector(core::random_features(rng)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(rows[i]));
    i = i + 1 == kRows ? 0 : i + 1;
  }
  // One iteration is one row, so the reported time is per row.
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredict);

// The estimator's forest shape: 300 trees (the benchmark harnesses'
// train_estimator), mtry 5 and min_leaf 2 (RuntimeEstimator::Config),
// fitted on a `rows`-row synthetic corpus. 150 rows is the paper's
// training matrix; ~500 is the corpus an online refit sees after a few
// hundred completions.
rf::ForestParams estimator_forest_params() {
  rf::ForestParams params = core::RuntimeEstimator::Config{}.forest;
  params.n_trees = 300;
  return params;
}

rf::Dataset estimator_corpus(std::size_t rows, std::uint64_t seed) {
  const core::GarliCostModel model;
  util::Rng rng(seed);
  return core::corpus_to_dataset(core::generate_corpus(rows, model, rng),
                                 true);
}

void BM_EstimatorForestTrain(benchmark::State& state) {
  const auto data =
      estimator_corpus(static_cast<std::size_t>(state.range(0)), 9);
  const rf::ForestParams params = estimator_forest_params();
  for (auto _ : state) {
    rf::RandomForest forest;
    forest.fit(data, params);
    benchmark::DoNotOptimize(forest.n_trees());
  }
}
BENCHMARK(BM_EstimatorForestTrain)
    ->Arg(150)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_EstimatorForestPredict(benchmark::State& state) {
  const auto data = estimator_corpus(150, 11);
  rf::RandomForest forest;
  forest.fit(data, estimator_forest_params());
  util::Rng rng(12);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 64; ++i) {
    rows.push_back(core::to_feature_vector(core::random_features(rng)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict(rows[i++ % rows.size()]));
  }
}
BENCHMARK(BM_EstimatorForestPredict);

void BM_CostModelSample(benchmark::State& state) {
  const core::GarliCostModel model;
  util::Rng rng(13);
  const core::GarliFeatures f = core::random_features(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample_runtime(f, rng));
  }
}
BENCHMARK(BM_CostModelSample);

// Standalone timing of the acceptance scenario (32-taxon, 4-category DNA,
// single-branch perturbation per evaluation), written to
// BENCH_likelihood.json so the perf trajectory is machine-readable without
// parsing google-benchmark output.
// One fixed-length island-GA run: `rounds` migration rounds on a
// `threads`-thread pool with every engine pinned to `tier`. Returns the
// per-round wall time plus the exact best-likelihood bits and generation
// count, so the caller can assert that thread count and ISA tier change
// the clock and nothing else.
struct IslandGaRun {
  double ns_per_round;
  double best_log_likelihood;
  std::size_t generations;
};

IslandGaRun run_island_ga(std::size_t threads,
                          phylo::kernels::IsaTier tier) {
  using clock = std::chrono::steady_clock;
  util::Rng rng(21);
  phylo::ModelSpec spec;
  spec.rate_het = phylo::RateHet::kGamma;
  spec.n_rate_categories = 4;
  const auto dataset = phylo::simulate_dataset(12, 240, spec, rng, 0.15);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  phylo::IslandGaConfig config;
  config.n_islands = 4;
  config.migration_interval = 5;
  config.max_rounds = 1u << 30;
  config.island.seed = 99;
  config.island.genthresh = 1u << 30;
  config.island.max_generations = 1u << 30;
  phylo::IslandGaSearch search(patterns, spec, config);
  search.force_isa(tier);
  util::ThreadPool pool(threads);
  constexpr int kRounds = 6;
  const auto start = clock::now();
  for (int r = 0; r < kRounds; ++r) search.round(&pool);
  const double ns =
      std::chrono::duration<double, std::nano>(clock::now() - start)
          .count() /
      kRounds;
  return {ns, search.best().log_likelihood, search.total_generations()};
}

/// Standalone forest timings at the estimator's shape for the JSON record:
/// the best of `reps` fits, and the mean ns per prediction over 10^4
/// random jobs. The prediction checksum pins the fitted function.
struct ForestTimings {
  double fit_ns_150 = 0.0;
  double fit_ns_500 = 0.0;
  double predict_ns = 0.0;
  double predict_checksum = 0.0;
};

ForestTimings time_forest() {
  using clock = std::chrono::steady_clock;
  const rf::ForestParams params = estimator_forest_params();
  const auto best_fit_ns = [&](const rf::Dataset& data, int reps) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      const auto start = clock::now();
      rf::RandomForest forest;
      forest.fit(data, params);
      const double ns =
          std::chrono::duration<double, std::nano>(clock::now() - start)
              .count();
      if (r == 0 || ns < best) best = ns;
    }
    return best;
  };
  ForestTimings out;
  const auto data = estimator_corpus(150, 9);
  out.fit_ns_150 = best_fit_ns(data, 10);
  out.fit_ns_500 = best_fit_ns(estimator_corpus(500, 9), 5);

  rf::RandomForest forest;
  forest.fit(data, params);
  util::Rng rng(12);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 10000; ++i) {
    rows.push_back(core::to_feature_vector(core::random_features(rng)));
  }
  const auto start = clock::now();
  for (const auto& row : rows) out.predict_checksum += forest.predict(row);
  out.predict_ns =
      std::chrono::duration<double, std::nano>(clock::now() - start)
          .count() /
      static_cast<double>(rows.size());
  return out;
}

void emit_likelihood_json() {
  using clock = std::chrono::steady_clock;
  util::Rng rng(15);
  const phylo::ModelSpec spec = inc_bench_spec(0);
  const auto dataset = phylo::simulate_dataset(32, 1000, spec, rng, 0.1);
  const phylo::PatternizedAlignment patterns(dataset.alignment);
  const phylo::SubstitutionModel model(spec);

  const auto time_mode = [&](bool incremental, int iters,
                             phylo::kernels::IsaTier tier) {
    phylo::LikelihoodEngine engine(patterns);
    engine.enable_incremental(incremental);
    engine.enable_matrix_cache();
    engine.force_isa(tier);
    phylo::Tree tree = dataset.tree;
    double sink = engine.log_likelihood(tree, model);  // warm
    std::size_t branch = 0;
    const auto start = clock::now();
    for (int i = 0; i < iters; ++i) {
      const int index = static_cast<int>(branch++ % tree.n_nodes());
      if (index != tree.root()) {
        tree.set_branch_length(index, tree.branch_length(index) * 1.01);
      }
      sink += engine.log_likelihood(tree, model);
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          clock::now() - start)
                          .count() /
                      iters;
    benchmark::DoNotOptimize(sink);
    return ns;
  };

  // full/incremental run on the active (best) tier; the scalar-pinned
  // full run is the vectorization baseline. vector_speedup is the
  // headline kernel win: same scenario, same engine, kernels apart.
  const phylo::kernels::IsaTier active = phylo::kernels::active_tier();
  const double full_ns = time_mode(false, 300, active);
  const double inc_ns = time_mode(true, 3000, active);
  const double scalar_full_ns =
      time_mode(false, 300, phylo::kernels::IsaTier::kScalar);

  // Island-GA wall clock at 1/2/4 pool threads, plus the determinism
  // cross-check: identical bits for every thread count and for the
  // scalar tier.
  const IslandGaRun ga1 = run_island_ga(1, active);
  const IslandGaRun ga2 = run_island_ga(2, active);
  const IslandGaRun ga4 = run_island_ga(4, active);
  const IslandGaRun ga_scalar =
      run_island_ga(1, phylo::kernels::IsaTier::kScalar);
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  const bool ga_identical =
      same_bits(ga1.best_log_likelihood, ga2.best_log_likelihood) &&
      same_bits(ga1.best_log_likelihood, ga4.best_log_likelihood) &&
      same_bits(ga1.best_log_likelihood, ga_scalar.best_log_likelihood) &&
      ga1.generations == ga2.generations &&
      ga1.generations == ga4.generations &&
      ga1.generations == ga_scalar.generations;

  const ForestTimings forest = time_forest();

  bench::JsonReport report("likelihood");
  report.set_host_facts();
  report.set("scenario",
             std::string("32-taxon 4-category DNA, single-branch "
                         "perturbation"));
  report.set("n_patterns", static_cast<std::uint64_t>(patterns.n_patterns()));
  report.set("isa_tier", std::string(phylo::kernels::tier_name(active)));
  report.set("full_ns_per_eval", full_ns);
  report.set("incremental_ns_per_eval", inc_ns);
  report.set("speedup", full_ns / inc_ns);
  report.set("scalar_full_ns_per_eval", scalar_full_ns);
  report.set("vector_speedup", scalar_full_ns / full_ns);
  report.set("island_ga_ns_1t", ga1.ns_per_round);
  report.set("island_ga_ns_2t", ga2.ns_per_round);
  report.set("island_ga_ns_4t", ga4.ns_per_round);
  report.set_flag("island_ga_identical", ga_identical);
  report.set("forest_fit_ns_150_rows", forest.fit_ns_150);
  report.set("forest_fit_ns_500_rows", forest.fit_ns_500);
  report.set("forest_predict_ns", forest.predict_ns);
  report.set("forest_predict_checksum", forest.predict_checksum);
  std::cout << "BENCH_likelihood.json: full " << full_ns / 1e3
            << " us/eval (" << phylo::kernels::tier_name(active)
            << "), scalar " << scalar_full_ns / 1e3
            << " us/eval, vector speedup " << scalar_full_ns / full_ns
            << "x, incremental " << inc_ns / 1e3 << " us/eval, island GA "
            << (ga_identical ? "bit-identical" : "DIVERGED")
            << " across 1/2/4 threads + scalar tier; 300-tree forest fit "
            << forest.fit_ns_150 / 1e6 << " ms (150 rows), "
            << forest.fit_ns_500 / 1e6 << " ms (500 rows), predict "
            << forest.predict_ns / 1e3 << " us\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_likelihood_json();
  return 0;
}
