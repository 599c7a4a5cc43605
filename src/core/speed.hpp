// Resource speed calibration (paper §V.A): run a short reference GARLI job
// on each machine of a resource, average the runtimes, and define
//   speed = reference_runtime / averaged_runtime
// so the reference computer has speed 1.0 by construction, a machine twice
// as fast has speed 2.0, and so on. The meta-scheduler divides runtime
// estimates by this speed when ranking resources.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>

namespace lattice::core {

class SpeedCalibrator {
 public:
  /// `reference_runtime`: the benchmark job's runtime on the reference
  /// machine (by definition of speed 1.0).
  explicit SpeedCalibrator(double reference_runtime);

  /// Record benchmark runtimes observed on the individual machines of a
  /// resource; the resource speed uses their average. Throws
  /// std::invalid_argument on empty, non-positive or non-finite (NaN, inf)
  /// runtimes.
  void calibrate(const std::string& resource,
                 std::span<const double> machine_runtimes);

  /// Calibrated speed, or nullopt if the resource was never benchmarked.
  std::optional<double> speed(const std::string& resource) const;

  /// Speed with a 1.0 fallback for unbenchmarked resources.
  double speed_or_default(const std::string& resource) const;

  double reference_runtime() const { return reference_runtime_; }
  const std::map<std::string, double>& all() const { return speeds_; }

 private:
  double reference_runtime_;
  std::map<std::string, double> speeds_;
};

}  // namespace lattice::core
