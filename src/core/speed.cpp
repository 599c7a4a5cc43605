#include "core/speed.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace lattice::core {

SpeedCalibrator::SpeedCalibrator(double reference_runtime)
    : reference_runtime_(reference_runtime) {
  if (reference_runtime <= 0.0) {
    throw std::invalid_argument("speed: reference runtime must be positive");
  }
}

void SpeedCalibrator::calibrate(const std::string& resource,
                                std::span<const double> machine_runtimes) {
  if (machine_runtimes.empty()) {
    throw std::invalid_argument("speed: no benchmark runtimes");
  }
  for (double runtime : machine_runtimes) {
    // NaN passes a plain `<= 0.0` test, and a non-finite speed would
    // poison the MDS eta rank keys (whose order needs a strict weak order).
    if (!std::isfinite(runtime) || runtime <= 0.0) {
      throw std::invalid_argument(
          "speed: non-positive or non-finite benchmark runtime");
    }
  }
  const double average = util::mean(machine_runtimes);
  speeds_[resource] = reference_runtime_ / average;
}

std::optional<double> SpeedCalibrator::speed(
    const std::string& resource) const {
  const auto it = speeds_.find(resource);
  if (it == speeds_.end()) return std::nullopt;
  return it->second;
}

double SpeedCalibrator::speed_or_default(const std::string& resource) const {
  return speed(resource).value_or(1.0);
}

}  // namespace lattice::core
