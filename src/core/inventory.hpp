// Unified resource construction: a declarative ResourceSpec naming any of
// the grid's resource kinds (batch cluster, Condor pool, BOINC volunteer
// pool) plus one build_inventory() that instantiates a list of specs into
// a LatticeSystem; the paper's §IV federation is data (lattice_inventory).
//
// Layering: inventory lives in core — the orchestration layer — because a
// ResourceSpec names configs from grid AND boinc, and only core sits above
// both in the module DAG (tools/lattice-lint/layering.ini).
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "boinc/config.hpp"
#include "grid/resource.hpp"

namespace lattice::core {

class LatticeSystem;

/// One declaratively-specified resource: a name plus the kind-specific
/// config. Specs are plain data — build them, edit them (e.g. a fault plan
/// raising a pool's corruption rate), then instantiate with
/// build_inventory().
struct ResourceSpec {
  std::string name;
  std::variant<grid::BatchQueueResource::Config, grid::CondorPool::Config,
               boinc::BoincPoolConfig>
      config;

  grid::ResourceKind kind() const;

  static ResourceSpec cluster(std::string name,
                              grid::BatchQueueResource::Config config);
  static ResourceSpec condor(std::string name,
                             grid::CondorPool::Config config);
  static ResourceSpec boinc_pool(std::string name,
                                 boinc::BoincPoolConfig config);
};

/// Knobs for the canonical paper inventory (lattice_inventory).
struct InventoryOptions {
  /// Volunteer hosts; 0 leaves the BOINC pool out.
  std::size_t boinc_hosts = 300;
  std::uint64_t seed = 1;
  /// Volunteer-pool redundancy (BoincPoolConfig defaults when left
  /// alone): quorum 2 drives the validator and reissue paths.
  int boinc_min_quorum = 1;
  int boinc_target_nresults = 1;
  /// Data-transfer model for the volunteer pool (docs/NETWORKING.md).
  /// Disabled by default: staging stays free and the event stream is
  /// bit-identical to pre-lattice::net builds.
  net::NetConfig boinc_network{};
};

/// The Lattice Project's §IV inventory as specs: clusters at four
/// institutions (PBS/SGE, differing speeds and memory), four Condor pools,
/// and the international BOINC pool.
std::vector<ResourceSpec> lattice_inventory(const InventoryOptions& options);

/// Instantiate the specs into the system, in list order.
void build_inventory(LatticeSystem& system,
                     const std::vector<ResourceSpec>& specs);

/// Convenience: the canonical paper inventory in one call.
void build_inventory(LatticeSystem& system, const InventoryOptions& options);

}  // namespace lattice::core
