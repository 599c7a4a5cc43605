// Portal user identity (paper §III): the science portal served live
// traffic from guest and registered accounts, and the multi-tenant layer
// needs a stable numeric identity plus a submission class to hang quotas,
// load shedding, and fair-share accounting on. Kept header-only and
// dependency-free so both the workload generator and the portal can share
// the vocabulary without an include cycle.
#pragma once

#include <cstdint>
#include <string>

namespace lattice::core {

/// Stable numeric user identity (0 = anonymous / no user attribution).
using UserId = std::uint64_t;

/// Submission class of a portal user. Guests are the unauthenticated web
/// tier (first to be shed under load); registered users are the paper's
/// normal accounts; power users are the AToL investigators whose batches
/// hit the 2000-replicate cap.
enum class UserClass : std::uint8_t {
  kGuest = 0,
  kRegistered = 1,
  kPower = 2,
};

/// Deterministic user id from an email address (FNV-1a 64), so callers that
/// only know an address get per-user accounting that stays stable across
/// calls with the same address.
inline UserId user_id_from_email(const std::string& email) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : email) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  // Reserve 0 for "anonymous" even if the hash lands there.
  return hash == 0 ? 1 : hash;
}

}  // namespace lattice::core
