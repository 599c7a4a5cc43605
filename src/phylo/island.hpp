// Island-model parallel GA search — the shape of GARLI's MPI version (the
// paper routes "tightly coupled jobs (e.g., MPI jobs)" to clusters with
// fast interconnects; GARLI's MPI build runs one population per rank with
// periodic migration of good individuals).
//
// Each island is an independent GaSearch with its own RNG stream; islands
// advance in lock-step rounds of `migration_interval` generations
// (optionally on a thread pool — islands are independent between
// migrations, so results are identical for any thread count), then the
// best individual of each island replaces the worst of its ring-neighbor.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "phylo/ga.hpp"
#include "util/threadpool.hpp"

namespace lattice::phylo {

struct IslandGaConfig {
  GaConfig island;              // per-island GA settings (seed is the base)
  std::size_t n_islands = 4;
  std::size_t migration_interval = 25;  // generations per round
  /// Stop after this many rounds even if islands keep improving.
  std::size_t max_rounds = 10000;
};

class IslandGaSearch {
 public:
  IslandGaSearch(const PatternizedAlignment& data, const ModelSpec& spec,
                 const IslandGaConfig& config,
                 const std::optional<Tree>& starting_tree = std::nullopt);

  /// Run to termination (all islands hit their genthresh, or max_rounds).
  /// Returns the best individual across islands.
  const Individual& run(util::ThreadPool* pool = nullptr);

  /// One migration round; returns false once terminated. The pool fans
  /// out the islands only: each island's likelihood evaluation stays
  /// serial, because nesting it on the same pool measured slower at 1, 2
  /// and 4 workers (docs/PERFORMANCE.md, "Measured results").
  bool round(util::ThreadPool* pool = nullptr);

  /// Pin every island's likelihood engine to one ISA kernel tier
  /// (clamped to host support). Tiers are bit-identical, so this cannot
  /// change the search trajectory — benches use it to compare tiers.
  void force_isa(kernels::IsaTier tier) {
    for (auto& island : islands_) island->force_isa(tier);
  }

  bool done() const;
  const Individual& best() const;
  std::size_t rounds() const { return rounds_; }
  std::size_t total_generations() const;
  std::size_t n_islands() const { return islands_.size(); }
  const GaSearch& island(std::size_t index) const {
    return *islands_.at(index);
  }

 private:
  IslandGaConfig config_;
  std::vector<std::unique_ptr<GaSearch>> islands_;
  std::size_t rounds_ = 0;
};

}  // namespace lattice::phylo
