// Volunteer-pool configuration, split out of server.hpp so construction
// APIs (core::ResourceSpec / build_inventory) and fault plans can name the
// config without pulling in the whole server complex. Pure data: the
// defaults describe a healthy pool, and every fault knob defaults to the
// inert value so an unconfigured pool is bit-identical to the pre-fault
// model.
#pragma once

#include <cstdint>
#include <cstddef>

#include "grid/job.hpp"
#include "net/config.hpp"

namespace lattice::boinc {

struct BoincPoolConfig {
  std::size_t hosts = 500;
  double mean_speed = 1.0;
  double speed_sigma = 0.6;
  double mean_on_hours = 8.0;
  double mean_off_hours = 16.0;
  double mean_lifetime_days = 90.0;
  /// Baseline per-task error probability of a normal host.
  double host_error_probability = 0.01;
  /// BOINC's threat model is systematic, per-host unreliability (bad RAM,
  /// overclocking, tampering): this fraction of hosts errs at
  /// `flaky_error_probability` instead of the baseline.
  double flaky_host_fraction = 0.0;
  double flaky_error_probability = 0.5;
  /// Default per-result report deadline when a workunit does not carry one
  /// (the manual per-batch value the paper wants to replace with
  /// estimate-derived deadlines).
  double default_delay_bound = 14.0 * 86400.0;
  int target_nresults = 1;
  int min_quorum = 1;
  int max_total_results = 8;
  /// Adaptive replication (BOINC's reliable-host mechanism): with quorum 1,
  /// results from hosts that have not yet produced `trust_threshold`
  /// consecutive valid results are cross-checked against one extra replica
  /// before validation; results from trusted hosts validate immediately.
  bool adaptive_replication = false;
  int trust_threshold = 10;
  /// Transitioner poll period.
  double transitioner_period = 600.0;
  /// Fixed wall-clock cost per result on the host (scheduler RPC round
  /// trips, client bookkeeping) — what replicate bundling amortizes.
  static constexpr double kResultOverheadSeconds = 120.0;
  /// Volunteer last-mile bandwidth for the free-staging fold: with the
  /// transfer model off, job data time is charged against the work ledger
  /// at this rate instead of being simulated.
  static constexpr double kHostMbPerSecond = 0.5;
  /// Transfer cost model (docs/NETWORKING.md). Disabled by default: the
  /// free-staging fold above stays bit-identical. When enabled, downloads
  /// and uploads become contended net::Transfer events and the fold is off.
  net::NetConfig network{};
  grid::PlatformSpec platform{};
  std::uint64_t seed = 1;

  // Fault-injection knobs (lattice::fault writes these; all inert by
  // default so the RNG draw sequence of an unfaulted pool is unchanged).
  /// Per-task probability that a normal host fails the task outright
  /// (reported through the error path, distinct from silent corruption —
  /// host_error_probability — which only quorum validation catches).
  double host_compute_error_probability = 0.0;
  double flaky_compute_error_probability = 0.0;
  /// Weibull shape of the host on/off/lifetime interval distributions.
  /// 1.0 reproduces the exponential churn model draw-for-draw; <1 gives
  /// the heavy-tailed availability bursts measured on real desktop grids.
  double churn_weibull_shape = 1.0;
  /// Report-path faults: a finished result's report is lost entirely
  /// (drop) or arrives late (delay) — the transitioner's deadline heap is
  /// what recovers from both.
  double report_drop_probability = 0.0;
  double report_delay_probability = 0.0;
  double report_delay_seconds = 0.0;
};

}  // namespace lattice::boinc
