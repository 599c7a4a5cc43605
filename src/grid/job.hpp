// Grid-level job representation: what The Lattice Project's meta-scheduler
// moves between resources. A job carries matchmaking requirements (platform,
// memory, MPI, software dependencies), its true compute demand in
// reference-machine seconds (hidden from the scheduler — the simulation's
// ground truth), and the a priori runtime estimate the scheduler is allowed
// to see.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"

namespace lattice::grid {

enum class OsType : std::uint8_t { kLinux, kWindows, kMacOS };
enum class Arch : std::uint8_t { kX86, kX86_64, kPowerPC };

struct PlatformSpec {
  OsType os = OsType::kLinux;
  Arch arch = Arch::kX86_64;

  auto operator<=>(const PlatformSpec&) const = default;
};

std::string platform_name(const PlatformSpec& platform);
std::optional<PlatformSpec> parse_platform(const std::string& name);

struct JobRequirements {
  /// Platforms the application binary is compiled for; empty means any.
  std::vector<PlatformSpec> platforms;
  double min_memory_gb = 0.0;
  bool needs_mpi = false;
  /// Software dependencies that must be present on the resource ("java").
  std::vector<std::string> software;

  /// Member-wise order. The grid level interns each distinct decision
  /// class with it once, at submit or demotion; the pump then compares
  /// class ids, never requirements.
  auto operator<=>(const JobRequirements&) const = default;
};

enum class JobState : std::uint8_t {
  kPending,    // at the grid level, not yet placed
  kQueued,     // accepted by a local resource, waiting for a slot
  kRunning,
  kCompleted,
  kFailed,     // interrupted/preempted/lost; may be rescheduled
  kCancelled,
};

std::string_view job_state_name(JobState state);

/// Why an attempt (or a whole job) failed. kNone marks success; everything
/// else is a failure class the retry policy can branch on — transient
/// compute errors retry anywhere, host churn and outages argue for a more
/// stable placement, deadline misses argue for a faster one.
enum class FailureCause : std::uint8_t {
  kNone,          // completed successfully
  kComputeError,  // the application errored on the execute machine
  kCorrupted,     // result rejected by quorum validation
  kHostVanished,  // preemption, host churn, permanent departure
  kOutage,        // the whole resource went down mid-attempt
  kDeadlineMiss,  // walltime limit or report deadline exceeded
  kCancelled,     // removed by user/operator request
};

std::string_view failure_cause_name(FailureCause cause);

/// The one application every grid job runs; the descriptor renderers
/// (Condor, PBS, SGE, RSL, BOINC workunit) print it.
inline constexpr std::string_view kApplication = "garli";

class LocalResource;

/// The requirements of a job that has none. A job built outside
/// LatticeSystem points here until it is given others.
inline const JobRequirements kNoRequirements{};

struct GridJob {
  std::uint64_t id = 0;
  /// Identifier of the portal submission this job belongs to (0 = none).
  std::uint64_t batch_id = 0;
  /// Portal user the job is billed to for fair-share accounting (0 = no
  /// user attribution; such jobs are never charged or reordered).
  std::uint64_t user_id = 0;
  /// Matchmaking requirements; never null, and they outlive the job.
  /// LatticeSystem points each job at the copy interned with its decision
  /// class, so a batch's jobs share one record.
  const JobRequirements* requirements = &kNoRequirements;

  /// True compute demand in seconds on the speed-1.0 reference machine.
  /// Only the execution simulation reads this.
  double true_reference_runtime = 0.0;
  /// Data staged to/from the execute machine per attempt (sequence data,
  /// checkpoints, result trees). Transfer time = size / resource
  /// bandwidth, on top of the fixed per-attempt overhead.
  double input_mb = 0.0;
  double output_mb = 0.0;
  /// The a priori estimate the scheduler sees (reference seconds);
  /// nullopt when no estimator is configured.
  std::optional<double> estimated_reference_runtime;

  /// The resource it is (or last was) placed on; null until first placed.
  LocalResource* resource = nullptr;
  sim::SimTime submit_time = 0.0;
  /// When the current local resource accepted the job (per attempt; the
  /// local queue wait observed by obs is start_time - queued_time).
  sim::SimTime queued_time = 0.0;
  sim::SimTime start_time = 0.0;
  sim::SimTime finish_time = 0.0;
  /// CPU-seconds burned by attempts that did not complete.
  double wasted_cpu_seconds = 0.0;
  int attempts = 0;

  // Retry-policy state (maintained by the grid level's on_outcome path).
  /// Failed attempts on unstable (desktop/volunteer) resources.
  int unstable_failures = 0;
  /// Dense id of the job's decision class (requirements, require_stable,
  /// input + output MB), interned by the grid level at submit and on
  /// demotion: jobs with equal ids present the same static inputs to the
  /// meta-scheduler.
  std::uint32_t decision_class = 0;
  JobState state = JobState::kPending;
  /// Cause of the most recent failed attempt (kNone until one fails).
  FailureCause last_failure = FailureCause::kNone;
  /// Set by the demotion policy: the meta-scheduler must place this job on
  /// a stable resource only.
  bool require_stable = false;
};
// Every live job holds one: ids 24 + requirements 8 + runtime and data 24
// + estimate 16 + resource 8 + four times and the waste 40 + two counts and
// the class 12 + three one-byte fields (+1 padding) = 136 B with libstdc++ on
// x86-64.
static_assert(sizeof(GridJob) <= 136, "GridJob grew");

}  // namespace lattice::grid
