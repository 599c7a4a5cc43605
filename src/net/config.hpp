// Configuration for the deterministic data-transfer cost model
// (docs/NETWORKING.md): per-host link classes with asymmetric up/down
// bandwidth and a fixed per-transfer latency, plus the shared project-server
// pipe capacities every transfer contends for. Pure data, header-only, so
// boinc::BoincPoolConfig can embed a NetConfig by value without pulling in
// the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lattice::net {

/// One volunteer last-mile class (the paper's pool mixed campus LANs with
/// home DSL and dial-up). Bandwidth is the access-link rate in Mbit/s,
/// asymmetric as consumer links are; latency is a fixed per-transfer setup
/// cost (connection + HTTP handshake) added after the bytes finish.
/// `fraction` is the class's share of the host population — fractions are
/// normalized over the profile, so they need not sum to 1.
struct LinkClassSpec {
  std::string name;
  double down_mbps = 16.0;
  double up_mbps = 1.0;
  double latency_s = 0.05;
  double fraction = 1.0;
};

/// A pool's transfer profile. Disabled by default: every existing
/// configuration keeps the free-staging fold (data time charged against
/// the work ledger at `BoincPoolConfig::kHostMbPerSecond`) bit-identically.
/// The server pipe capacities bound the *sum* of concurrent flow rates in
/// each direction (downloads ride server_down_mbps, uploads ride
/// server_up_mbps).
struct NetConfig {
  bool enabled = false;
  double server_down_mbps = 400.0;
  double server_up_mbps = 100.0;
  std::vector<LinkClassSpec> classes;

  /// Deterministic link-class index for host `key` (0-based dense key):
  /// the key is spread over [0,1) with the golden-ratio stride (exact IEEE
  /// multiply + fract, no RNG, no draw-order coupling) and mapped through
  /// the cumulative normalized class fractions. Defined in model.cpp.
  std::uint32_t class_of_host(std::uint64_t host_key) const;

  /// A representative volunteer profile (broadband/DSL/modem mix), enabled.
  static NetConfig volunteer_default();
};

}  // namespace lattice::net
