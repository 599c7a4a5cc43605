#include "core/fairshare.hpp"

#include <cmath>

namespace lattice::core {

double FairShareLedger::decayed(const Entry& entry) const {
  const double age = now_ - entry.as_of;
  if (age <= 0.0) return entry.value;
  return entry.value * std::exp2(-age / FairShareConfig::kHalfLifeSeconds);
}

}  // namespace lattice::core
