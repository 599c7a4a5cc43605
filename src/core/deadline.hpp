// BOINC workunit deadline policy (paper §VI.A): "we can programmatically
// specify reasonable workunit deadlines" from the runtime estimate, replacing
// the manual per-batch values. The deadline must cover the job's wall time
// on a typical (slower, intermittently available) volunteer host plus
// slack for downtime; too tight causes spurious reissues of work that
// would have arrived, too loose lets departed hosts stall the batch.
#pragma once

#include <algorithm>

namespace lattice::core {

struct DeadlinePolicy {
  /// Slack multiplier applied to the estimated wall time.
  double slack = 4.0;
  /// Conservative speed assumed for the host that gets the task.
  static constexpr double kTypicalHostSpeed = 0.5;
  /// Fraction of wall-clock time a typical host is on and computing.
  static constexpr double kTypicalAvailability = 0.33;
  /// Deadlines never drop below this (client scheduling needs headroom).
  double min_deadline_seconds = 6.0 * 3600.0;
  static constexpr double kMaxDeadlineSeconds = 30.0 * 86400.0;
  /// Assumed staging bandwidth (Mbit/s) on the typical host's link, used
  /// to budget deadline headroom for the job's data transfers. Zero
  /// disables the transfer term (free staging, pre-lattice::net behavior).
  double typical_mbps = 0.0;

  /// Report deadline (seconds from send) for a job with the given
  /// estimated reference runtime and total staged data (input + output,
  /// MB). The transfer term is *not* divided by availability: the BOINC
  /// client keeps transfers moving across compute-off periods, so staging
  /// costs wall time at link speed, not duty-cycled time.
  double deadline_seconds(double estimated_reference_runtime,
                          double data_mb = 0.0) const {
    double wall = estimated_reference_runtime /
                  (kTypicalHostSpeed * kTypicalAvailability);
    if (typical_mbps > 0.0 && data_mb > 0.0) {
      wall += data_mb * 8.0 / typical_mbps;
    }
    return std::clamp(slack * wall, min_deadline_seconds,
                      kMaxDeadlineSeconds);
  }
};

}  // namespace lattice::core
