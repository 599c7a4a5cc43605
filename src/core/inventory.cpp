#include "core/inventory.hpp"

#include "core/lattice.hpp"

namespace lattice::core {

grid::ResourceKind ResourceSpec::kind() const {
  if (const auto* batch = std::get_if<grid::BatchQueueResource::Config>(&config)) {
    return batch->kind;
  }
  if (std::holds_alternative<grid::CondorPool::Config>(config)) {
    return grid::ResourceKind::kCondorPool;
  }
  return grid::ResourceKind::kBoincPool;
}

ResourceSpec ResourceSpec::cluster(std::string name,
                                   grid::BatchQueueResource::Config config) {
  return ResourceSpec{std::move(name), std::move(config)};
}

ResourceSpec ResourceSpec::condor(std::string name,
                                  grid::CondorPool::Config config) {
  return ResourceSpec{std::move(name), std::move(config)};
}

ResourceSpec ResourceSpec::boinc_pool(std::string name,
                                      boinc::BoincPoolConfig config) {
  return ResourceSpec{std::move(name), std::move(config)};
}

std::vector<ResourceSpec> lattice_inventory(const InventoryOptions& options) {
  std::vector<ResourceSpec> specs;

  const auto cluster = [&](const std::string& name, std::size_t nodes,
                           std::size_t cores, double speed, double memory,
                           grid::ResourceKind kind) {
    grid::BatchQueueResource::Config config;
    config.nodes = nodes;
    config.cores_per_node = cores;
    config.node_speed = speed;
    config.node_memory_gb = memory;
    config.kind = kind;
    config.mpi_capable = true;
    config.software = {"java"};
    specs.push_back(ResourceSpec::cluster(name, std::move(config)));
  };
  cluster("umd-deepthought", 32, 8, 1.6, 32.0, grid::ResourceKind::kPbsCluster);
  cluster("umd-cbcb", 16, 4, 1.2, 64.0, grid::ResourceKind::kSgeCluster);
  cluster("bowie-hpc", 8, 4, 0.8, 8.0, grid::ResourceKind::kPbsCluster);
  cluster("smithsonian-hpc", 12, 4, 1.0, 16.0, grid::ResourceKind::kSgeCluster);

  const char* pool_names[4] = {"umd-condor", "bowie-condor", "coppin-condor",
                               "smithsonian-condor"};
  const double pool_speeds[4] = {1.0, 0.7, 0.6, 0.9};
  for (int i = 0; i < 4; ++i) {
    grid::CondorPool::Config config;
    config.machines = 40;  // per pool
    config.mean_speed = pool_speeds[i];
    config.seed = options.seed + static_cast<std::uint64_t>(i) * 101;
    specs.push_back(ResourceSpec::condor(pool_names[i], std::move(config)));
  }

  if (options.boinc_hosts > 0) {
    boinc::BoincPoolConfig config;
    config.hosts = options.boinc_hosts;
    config.mean_speed = 0.8;
    config.speed_sigma = 0.6;
    config.seed = options.seed + 999;
    config.min_quorum = options.boinc_min_quorum;
    config.target_nresults = options.boinc_target_nresults;
    config.network = options.boinc_network;
    specs.push_back(ResourceSpec::boinc_pool("lattice-boinc", config));
  }
  return specs;
}

void build_inventory(LatticeSystem& system,
                     const std::vector<ResourceSpec>& specs) {
  for (const ResourceSpec& spec : specs) {
    std::visit(
        [&](const auto& config) {
          using Config = std::decay_t<decltype(config)>;
          if constexpr (std::is_same_v<Config, grid::BatchQueueResource::Config>) {
            system.add_cluster(spec.name, config);
          } else if constexpr (std::is_same_v<Config, grid::CondorPool::Config>) {
            system.add_condor_pool(spec.name, config);
          } else {
            system.add_boinc_pool(spec.name, config);
          }
        },
        spec.config);
  }
}

void build_inventory(LatticeSystem& system, const InventoryOptions& options) {
  build_inventory(system, lattice_inventory(options));
}

}  // namespace lattice::core
