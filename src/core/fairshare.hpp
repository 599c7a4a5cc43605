// Per-user fair-share accounting: a decayed usage odometer per user, the
// classic half-life scheme (Condor's user priorities, SLURM's fair-share
// factor). Every dispatched attempt charges its reference-seconds to the
// submitting user; the charge decays exponentially so a user who flooded
// the grid yesterday competes on even terms tomorrow.
//
// Determinism contract: decay is lazy per entry (value, as-of pair) and
// evaluated against an explicit clock advanced by settle(), never against
// wall time. Because decay is a monotone per-entry transform, the relative
// order of two users' odometers can only change at charge points — so a
// pump pass that sorts by (usage, job id) is a pure function of the charge
// history and the sim clock (DESIGN.md §15).
#pragma once

#include <cstddef>
#include <map>

#include "core/user.hpp"

namespace lattice::core {

struct FairShareConfig {
  /// Half-life of the usage odometer (seconds). A charge loses half its
  /// scheduling weight this long after it was applied.
  static constexpr double kHalfLifeSeconds = 6.0 * 3600.0;
  /// When true, the grid-level pump orders its pending queue by (decayed
  /// user usage, job id) each period, so a light user's batch overtakes a
  /// heavy user's backlog. Off by default: the baseline FIFO drain is
  /// untouched unless a scenario opts in.
  bool order_queue = false;
  /// Backpressure companion to order_queue: while the chosen resource
  /// already holds more than this many queued jobs per slot, the pump
  /// defers the dispatch and keeps the job in the grid-level queue — the
  /// queue fair-share ordering governs. Without it a cluster swallows the
  /// whole backlog into its own FIFO LRM queue on the first pump and
  /// ordering the (then empty) grid queue decides nothing. <= 0 disables
  /// deferral (the baseline drain-everything behavior).
  double backlog_per_slot = 0.0;
};

class FairShareLedger {
 public:
  /// Advance the decay clock. Charges and reads are interpreted "as of"
  /// the latest settled time; the pump settles to sim-now once per period.
  void settle(double now) {
    if (now > now_) now_ = now;
  }

  /// Charge `reference_seconds` of usage to `user` at the settled clock.
  /// User 0 (anonymous) is never charged — unattributed grid jobs must not
  /// share one giant odometer.
  void charge(UserId user, double reference_seconds) {
    if (user == 0 || reference_seconds <= 0.0) return;
    Entry& entry = entries_[user];
    entry.value = decayed(entry) + reference_seconds;
    entry.as_of = now_;
  }

  /// The user's decayed usage odometer (reference-seconds) as of the
  /// settled clock. Unknown users read 0.
  double usage(UserId user) const {
    const auto it = entries_.find(user);
    return it == entries_.end() ? 0.0 : decayed(it->second);
  }

  double now() const { return now_; }

 private:
  struct Entry {
    double value = 0.0;
    double as_of = 0.0;
  };

  double decayed(const Entry& entry) const;

  double now_ = 0.0;
  std::map<UserId, Entry> entries_;
};

}  // namespace lattice::core
