// BOINC server-side data model: workunits and their result instances.
// Mirrors the real schema's lifecycle — a workunit spawns result instances
// that are sent to hosts with a report deadline; the transitioner times out
// late results and issues replacements; the validator forms a quorum of
// returned results; the assimilator hands the canonical result back to the
// grid level.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/job.hpp"
#include "sim/simulation.hpp"

namespace lattice::boinc {

enum class ResultState : std::uint8_t {
  kUnsent,
  kInProgress,
  kSuccess,     // returned; awaiting validation
  kTimedOut,    // deadline passed without a report
  kAborted,     // server-side cancel (workunit already validated/cancelled)
  kError,       // host failed the computation
};

struct Result {
  std::uint64_t id = 0;
  std::uint64_t workunit_id = 0;
  std::uint64_t host_id = 0;  // 0 while unsent
  ResultState state = ResultState::kUnsent;
  sim::SimTime sent_time = 0.0;
  sim::SimTime deadline = 0.0;
  sim::SimTime received_time = 0.0;
  /// CPU-seconds the host spent on this instance.
  double cpu_seconds = 0.0;
  /// Opaque output fingerprint the validator compares (hosts with
  /// compute errors return a perturbed value).
  std::uint64_t output_hash = 0;
};

enum class WorkunitState : std::uint8_t {
  kActive,     // results outstanding or awaiting quorum
  kValidated,  // canonical result chosen; assimilated
  kCancelled,
  kError,      // exhausted max_total_results without quorum
};

struct Workunit {
  std::uint64_t id = 0;
  grid::GridJob* grid_job = nullptr;
  /// Compute demand in reference-machine seconds.
  double reference_work = 0.0;
  /// Staged data per attempt (copied from the grid job at submit): every
  /// result instance downloads input_mb before compute and uploads
  /// output_mb before reporting (free-staged when the transfer model is
  /// off, contended net::Transfer events when it is on).
  double input_mb = 0.0;
  double output_mb = 0.0;
  /// Report deadline given to each result instance, in seconds from send.
  double delay_bound = 0.0;
  /// Replication policy (the paper's project ran with quorum 1; the
  /// benchmarks sweep it).
  int target_nresults = 1;
  int min_quorum = 1;
  int max_total_results = 8;

  WorkunitState state = WorkunitState::kActive;
  std::vector<Result> results;
  sim::SimTime created = 0.0;

  int outstanding() const {
    int n = 0;
    for (const Result& r : results) {
      if (r.state == ResultState::kUnsent ||
          r.state == ResultState::kInProgress) {
        ++n;
      }
    }
    return n;
  }
  int successes() const {
    int n = 0;
    for (const Result& r : results) {
      if (r.state == ResultState::kSuccess) ++n;
    }
    return n;
  }
};

}  // namespace lattice::boinc
