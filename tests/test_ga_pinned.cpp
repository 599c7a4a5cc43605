// Pinned GA trajectories: fixed-seed GaSearch runs and IslandGaSearch
// runs (serial and on a two-worker pool) on DNA, amino-acid and codon data
// must end on the recorded best log-likelihood bits, likelihood-evaluation
// count and generation count. The values were captured from the search
// that compiled a fresh SubstitutionModel for every evaluation and built
// P(t) with a plain triple loop, so they hold the compiled-model reuse and
// the blocked P(t) kernel to that search bit for bit. A codon checkpoint
// -> restore -> continue case pins the resumed run the same way, and a
// codon search must serve most of its P(t) matrices from the cache.
//
// Set LATTICE_PRINT_PINNED=1 to print each case's values instead of only
// comparing them (how the table below is re-captured). tests/CMakeLists.txt
// also runs this binary under LATTICE_FORCE_ISA=scalar and =avx2, so every
// kernel tier must reach the same bits.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "phylo/alignment.hpp"
#include "phylo/ga.hpp"
#include "phylo/island.hpp"
#include "phylo/simulate.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"

namespace lattice::phylo {
namespace {

struct Outcome {
  std::uint64_t lnl_bits;
  std::uint64_t evaluations;
  std::uint64_t generations;
};

struct Data {
  ModelSpec spec;
  std::unique_ptr<PatternizedAlignment> patterns;
};

Data make_data(DataType type) {
  Data data;
  data.spec.data_type = type;
  data.spec.rate_het = RateHet::kGamma;
  data.spec.n_rate_categories = 4;
  std::size_t taxa = 8;
  std::size_t sites = 300;
  std::uint64_t seed = 41;
  if (type == DataType::kAminoAcid) {
    data.spec.aa_model = AaModel::kChemClass;
    taxa = 6;
    sites = 120;
    seed = 42;
  } else if (type == DataType::kCodon) {
    taxa = 6;
    sites = 60;
    seed = 43;
  }
  util::Rng rng(seed);
  const SimulatedDataset dataset =
      simulate_dataset(taxa, sites, data.spec, rng, 0.15);
  data.patterns = std::make_unique<PatternizedAlignment>(dataset.alignment);
  return data;
}

GaConfig ga_config(std::uint64_t seed) {
  GaConfig config;
  config.population_size = 4;
  config.genthresh = 1u << 30;
  config.max_generations = 40;
  config.seed = seed;
  return config;
}

void report(const char* name, const Outcome& got) {
  if (std::getenv("LATTICE_PRINT_PINNED") == nullptr) return;
  std::printf("pinned %s: {0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64
              "}\n",
              name, got.lnl_bits, got.evaluations, got.generations);
}

void expect_outcome(const char* name, const Outcome& got,
                    const Outcome& want) {
  report(name, got);
  EXPECT_EQ(got.lnl_bits, want.lnl_bits)
      << name << ": best lnL " << std::bit_cast<double>(got.lnl_bits)
      << " vs pinned " << std::bit_cast<double>(want.lnl_bits);
  EXPECT_EQ(got.evaluations, want.evaluations) << name;
  EXPECT_EQ(got.generations, want.generations) << name;
}

Outcome run_single(DataType type) {
  const Data data = make_data(type);
  GaSearch search(*data.patterns, data.spec, ga_config(7));
  const Individual& best = search.run();
  return {std::bit_cast<std::uint64_t>(best.log_likelihood),
          search.likelihood_evaluations(), search.generation()};
}

Outcome run_islands(DataType type, std::size_t pool_workers) {
  const Data data = make_data(type);
  std::optional<util::ThreadPool> pool;
  if (pool_workers > 0) pool.emplace(pool_workers);
  IslandGaConfig config;
  config.island = ga_config(11);
  config.n_islands = 3;
  config.migration_interval = 5;
  config.max_rounds = 4;
  IslandGaSearch search(*data.patterns, data.spec, config);
  util::ThreadPool* workers = pool ? &*pool : nullptr;
  const Individual& best = search.run(workers);
  std::uint64_t evaluations = 0;
  for (std::size_t i = 0; i < search.n_islands(); ++i) {
    evaluations += search.island(i).likelihood_evaluations();
  }
  return {std::bit_cast<std::uint64_t>(best.log_likelihood), evaluations,
          search.total_generations()};
}

// Captured values: {best lnL bits, evaluations, generations}.
constexpr Outcome kDnaSingle{0xc095a70dbb06383eULL, 164, 40};
constexpr Outcome kAaSingle{0xc08e59417a1eb539ULL, 164, 40};
constexpr Outcome kCodonSingle{0xc08083728729a0dfULL, 164, 40};
constexpr Outcome kDnaIslands{0xc095e98eb0ffe933ULL, 252, 60};
constexpr Outcome kAaIslands{0xc08dd0cada6b308bULL, 252, 60};
constexpr Outcome kCodonIslands{0xc07f154a8f262ac7ULL, 252, 60};
constexpr Outcome kCodonResumed{0xc08028a6927b68e2ULL, 100, 40};

// A single search evaluates serially; its cases keep their historical
// names (they once also ran the engine on a pool).
TEST(GaPinned, DnaSearchSerialAndPooled) {
  expect_outcome("dna single serial", run_single(DataType::kNucleotide),
                 kDnaSingle);
}

TEST(GaPinned, AminoAcidSearchSerialAndPooled) {
  expect_outcome("aa single serial", run_single(DataType::kAminoAcid),
                 kAaSingle);
}

TEST(GaPinned, CodonSearchSerialAndPooled) {
  expect_outcome("codon single serial", run_single(DataType::kCodon),
                 kCodonSingle);
}

TEST(GaPinned, DnaIslandsSerialAndPooled) {
  expect_outcome("dna islands serial",
                 run_islands(DataType::kNucleotide, 0), kDnaIslands);
  expect_outcome("dna islands pool2", run_islands(DataType::kNucleotide, 2),
                 kDnaIslands);
}

TEST(GaPinned, AminoAcidIslandsSerialAndPooled) {
  expect_outcome("aa islands serial", run_islands(DataType::kAminoAcid, 0),
                 kAaIslands);
  expect_outcome("aa islands pool2", run_islands(DataType::kAminoAcid, 2),
                 kAaIslands);
}

TEST(GaPinned, CodonIslandsSerialAndPooled) {
  expect_outcome("codon islands serial", run_islands(DataType::kCodon, 0),
                 kCodonIslands);
  expect_outcome("codon islands pool2", run_islands(DataType::kCodon, 2),
                 kCodonIslands);
}

TEST(GaPinned, CodonCheckpointRestoreContinue) {
  const Data data = make_data(DataType::kCodon);
  GaSearch first(*data.patterns, data.spec, ga_config(19));
  for (int i = 0; i < 15; ++i) first.step();
  const std::string saved = first.checkpoint();
  GaSearch resumed = GaSearch::restore(*data.patterns, saved);
  const Individual& best = resumed.run();
  // The restored engine counts only its own evaluations.
  expect_outcome("codon resumed",
                 {std::bit_cast<std::uint64_t>(best.log_likelihood),
                  resumed.likelihood_evaluations(), resumed.generation()},
                 kCodonResumed);
  // And the uninterrupted search ends in the same place.
  const Individual& straight = first.run();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(straight.log_likelihood),
            std::bit_cast<std::uint64_t>(best.log_likelihood));
}

// A child shares its parent's compiled model unless a model parameter
// changed, so its unchanged branches hit the P(t) cache. Compiling a fresh
// model per evaluation hit about one lookup in ten.
TEST(GaMatrixCache, CodonSearchServesMostMatricesFromCache) {
  const Data data = make_data(DataType::kCodon);
  GaSearch search(*data.patterns, data.spec, ga_config(7));
  search.run();
  const double hits = static_cast<double>(search.matrix_cache_hits());
  const double misses = static_cast<double>(search.matrix_cache_misses());
  ASSERT_GT(hits + misses, 0.0);
  if (std::getenv("LATTICE_PRINT_PINNED") != nullptr) {
    std::printf("codon matrix-cache hit fraction %.4f\n",
                hits / (hits + misses));
  }
  EXPECT_GE(hits / (hits + misses), 0.5);
}

}  // namespace
}  // namespace lattice::phylo
