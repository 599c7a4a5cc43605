// GARLI-style genetic algorithm search over the joint space of tree
// topologies, branch lengths, and model parameters (Zwickl 2006). A small
// population of individuals evolves by topology mutations (NNI, SPR),
// branch-length multipliers, and model-parameter perturbations under
// elitist (mu + lambda) selection; the search terminates when no
// significant improvement has been seen for `genthresh` generations — the
// same termination parameter that is predictor #8 of the paper's runtime
// model.
//
// Searches are resumable: checkpoint() serializes the complete search state
// (population, generation counters, RNG state), matching the checkpointing
// the paper's team added to GARLI for BOINC execution.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "phylo/likelihood.hpp"
#include "phylo/model.hpp"
#include "phylo/tree.hpp"
#include "util/rng.hpp"

namespace lattice::phylo {

struct GaMutationWeights {
  double nni = 0.45;
  double spr = 0.15;
  double branch_length = 0.30;
  double model = 0.10;
};

struct GaConfig {
  std::size_t population_size = 4;
  /// Terminate after this many generations without an improvement larger
  /// than `significant_improvement` log units.
  std::size_t genthresh = 200;
  double significant_improvement = 0.01;
  std::size_t max_generations = 50000;
  GaMutationWeights weights;
  /// sigma of the lognormal branch-length multiplier mutation.
  double branch_sigma = 0.35;
  /// sigma of the lognormal model-parameter perturbation.
  double model_sigma = 0.15;
  std::uint64_t seed = 1;
};

struct Individual {
  Tree tree;
  ModelSpec model;
  double log_likelihood = 0.0;
  /// `model` compiled (eigendecomposed). A lineage shares one compiled
  /// model until a model-parameter mutation changes a parameter and drops
  /// it; null means the next evaluation compiles it. Immutable, so
  /// migrants share it across islands, and its serial keeps the engine's
  /// P(t) cache hitting from parent to child.
  std::shared_ptr<const SubstitutionModel> compiled;
};

class GaSearch {
 public:
  /// Start a search. With no starting tree, each individual begins from an
  /// independent random topology (GARLI's default); with one, all
  /// individuals start from it (the web form's "starting tree" upload).
  GaSearch(const PatternizedAlignment& data, const ModelSpec& spec,
           const GaConfig& config,
           const std::optional<Tree>& starting_tree = std::nullopt);

  /// Start a search from a start model already compiled (non-null; its
  /// spec() is the start spec), shared rather than compiled again:
  /// IslandGaSearch hands one to every island.
  GaSearch(const PatternizedAlignment& data,
           std::shared_ptr<const SubstitutionModel> start_model,
           const GaConfig& config,
           const std::optional<Tree>& starting_tree = std::nullopt);

  /// Run one generation. Returns false (and does nothing) once terminated.
  bool step();

  /// Run to termination; returns the best individual.
  const Individual& run();

  bool done() const;
  std::size_t generation() const { return generation_; }
  std::size_t generations_since_improvement() const {
    return since_improvement_;
  }
  const Individual& best() const;
  const std::vector<Individual>& population() const { return population_; }
  std::uint64_t likelihood_evaluations() const {
    return engine_.evaluations();
  }
  /// Transition matrices this search's engine served from / rebuilt for
  /// its P(t) cache.
  std::uint64_t matrix_cache_hits() const { return engine_.cache_hits(); }
  std::uint64_t matrix_cache_misses() const {
    return engine_.cache_misses();
  }

  /// Pin this search's likelihood engine to one ISA kernel tier (clamped
  /// to host support; see LikelihoodEngine::force_isa). All tiers are
  /// bit-identical, so the search trajectory does not depend on it.
  void force_isa(kernels::IsaTier tier) { engine_.force_isa(tier); }

  /// Replace the worst individual with `migrant` (island-model migration;
  /// GARLI's MPI version exchanges individuals between populations). The
  /// migrant's log_likelihood must already be evaluated for this data.
  /// Resets the termination counter if the migrant improves the best.
  void inject(const Individual& migrant);

  /// Serialize the full search state (versioned text format).
  std::string checkpoint() const;

  /// Resume from a checkpoint produced by the same alignment. Throws
  /// std::runtime_error on version/shape mismatch.
  static GaSearch restore(const PatternizedAlignment& data,
                          std::string_view checkpoint_text);

 private:
  explicit GaSearch(const PatternizedAlignment& data);

  Individual mutate(const Individual& parent);
  void evaluate(Individual& individual);
  std::size_t tournament_select();

  const PatternizedAlignment* data_;
  GaConfig config_;
  LikelihoodEngine engine_;
  util::Rng rng_;
  std::vector<Individual> population_;  // sorted best-first
  std::size_t generation_ = 0;
  std::size_t since_improvement_ = 0;
  double best_ever_ = 0.0;
};

}  // namespace lattice::phylo
