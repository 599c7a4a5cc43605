#include "phylo/island.hpp"

#include <cassert>
#include <stdexcept>

namespace lattice::phylo {

IslandGaSearch::IslandGaSearch(const PatternizedAlignment& data,
                               const ModelSpec& spec,
                               const IslandGaConfig& config,
                               const std::optional<Tree>& starting_tree)
    : config_(config) {
  if (config_.n_islands == 0) {
    throw std::invalid_argument("island-ga: need at least one island");
  }
  if (config_.migration_interval == 0) {
    throw std::invalid_argument("island-ga: migration interval must be > 0");
  }
  // One compiled start model, shared by every island as migrants share
  // theirs: one eigendecomposition instead of one per island.
  const auto start_model = std::make_shared<const SubstitutionModel>(spec);
  islands_.reserve(config_.n_islands);
  for (std::size_t i = 0; i < config_.n_islands; ++i) {
    GaConfig island_config = config_.island;
    island_config.seed =
        config_.island.seed + i * 0x9e3779b97f4a7c15ULL;
    islands_.push_back(std::make_unique<GaSearch>(
        data, start_model, island_config, starting_tree));
  }
}

bool IslandGaSearch::done() const {
  if (rounds_ >= config_.max_rounds) return true;
  for (const auto& island : islands_) {
    if (!island->done()) return false;
  }
  return true;
}

bool IslandGaSearch::round(util::ThreadPool* pool) {
  if (done()) return false;
  ++rounds_;

  auto advance = [&](std::size_t i) {
    GaSearch& island = *islands_[i];
    for (std::size_t g = 0;
         g < config_.migration_interval && island.step(); ++g) {
    }
  };
  if (pool != nullptr && pool->size() > 1 && islands_.size() > 1) {
    pool->parallel_for(islands_.size(), advance);
  } else {
    for (std::size_t i = 0; i < islands_.size(); ++i) advance(i);
  }

  // Ring migration: island i's best replaces island (i+1)'s worst. Copies
  // are taken first so the exchange is order-independent.
  if (islands_.size() > 1) {
    std::vector<Individual> migrants;
    migrants.reserve(islands_.size());
    for (const auto& island : islands_) {
      migrants.push_back(island->best());
    }
    for (std::size_t i = 0; i < islands_.size(); ++i) {
      islands_[(i + 1) % islands_.size()]->inject(migrants[i]);
    }
  }
  return true;
}

const Individual& IslandGaSearch::run(util::ThreadPool* pool) {
  while (round(pool)) {
  }
  return best();
}

const Individual& IslandGaSearch::best() const {
  const Individual* champion = &islands_.front()->best();
  for (const auto& island : islands_) {
    if (island->best().log_likelihood > champion->log_likelihood) {
      champion = &island->best();
    }
  }
  return *champion;
}

std::size_t IslandGaSearch::total_generations() const {
  std::size_t total = 0;
  for (const auto& island : islands_) total += island->generation();
  return total;
}

}  // namespace lattice::phylo
