// The GARLI job abstraction: what the paper's web portal collects from the
// investigator and ships to a compute node. A job bundles a model
// specification, search-control settings, and optional starting tree /
// bootstrap flags; it round-trips through a garli.conf-style INI file, can
// be validated without running (the portal's "special GARLI validation
// mode" that screens submissions before scheduling), and can be executed
// for real against an alignment by the genetic-algorithm engine.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "phylo/alignment.hpp"
#include "phylo/ga.hpp"
#include "phylo/model.hpp"
#include "phylo/tree.hpp"
#include "util/ini.hpp"

namespace lattice::phylo {

/// The portal's per-submission replicate cap (the web interface's
/// maximum): validate_garli_job rejects searchreps above it, and
/// core::PortalConfig::kMaxReplicates is this value.
inline constexpr std::size_t kMaxSearchReplicates = 2000;

struct GarliJob {
  ModelSpec model;
  /// Independent GA searches bundled into this job (predictor #7; the
  /// scheduler raises this for very short jobs to amortize overhead).
  std::size_t search_replicates = 1;
  /// Termination window in generations (predictor #8).
  std::size_t genthresh = 200;
  std::size_t max_generations = 50000;
  std::size_t population_size = 4;
  enum class StartTopology { kRandom, kStepwise, kNeighborJoining };

  /// Newick starting tree (predictor #9 is its presence).
  std::optional<std::string> starting_tree;
  /// Without a user tree: stepwise-addition parsimony (GARLI's default),
  /// a neighbor-joining tree, or a random topology.
  StartTopology start_topology = StartTopology::kStepwise;

  bool stepwise_start() const {
    return start_topology == StartTopology::kStepwise;
  }
  /// Run each replicate on a bootstrap pseudo-replicate of the data.
  bool bootstrap = false;
  std::uint64_t seed = 1;

  bool has_starting_tree() const { return starting_tree.has_value(); }

  /// Serialize to garli.conf-style INI text.
  std::string to_config() const;
  /// Parse from garli.conf-style INI text. Throws std::runtime_error on
  /// malformed INI or unknown enum values.
  static GarliJob from_config(std::string_view text);
};

/// Result of the portal's pre-scheduling validation pass.
struct GarliValidation {
  bool ok = true;
  std::vector<std::string> problems;
};

/// Validate a job against its data without running a search: model
/// parameter bounds, replicate limits, starting-tree parsability and taxon
/// agreement, alignment sanity (>= 4 taxa, non-empty, data-type match).
GarliValidation validate_garli_job(const GarliJob& job,
                                   const Alignment& alignment);

struct GarliReplicateResult {
  Tree best_tree;
  double best_log_likelihood = 0.0;
  std::size_t generations = 0;
  std::uint64_t likelihood_evaluations = 0;
};

struct GarliRunResult {
  std::vector<GarliReplicateResult> replicates;
  /// Index of the replicate with the highest likelihood.
  std::size_t best_replicate = 0;
};

/// Execute the job for real (the compute-node side). Throws
/// std::invalid_argument if validation fails.
GarliRunResult run_garli_job(const GarliJob& job, const Alignment& alignment);

}  // namespace lattice::phylo
