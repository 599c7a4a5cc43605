// Monitoring and Discovery Service — the Globus MDS role in the paper:
// scheduler providers on each resource periodically push ResourceInfo
// snapshots into a central directory; entries are valid for a short
// lifetime, and a resource whose reports stop arriving is marked offline so
// "no new jobs are scheduled there".
//
// The directory is flat: one name-ordered entry per *resource* (a
// cluster, a Condor pool, a BOINC pool — hosts never enter it), so a grid
// built by core::lattice_inventory holds 9 entries and a scenario 1–3. A
// report overwrites its entry, and matchmaking is one pass in name order
// that applies the TTL, capability and memory filters; the scheduler ranks
// what passes (core/metascheduler.hpp). Staleness is a pure time compare,
// so offline transitions need no maintenance (DESIGN.md §10).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "grid/job.hpp"
#include "grid/resource.hpp"
#include "sim/simulation.hpp"

namespace lattice::grid {

struct MdsEntry {
  ResourceInfo info;
  sim::SimTime last_report = 0.0;
  /// Calibrated speed relative to the reference machine (set by the
  /// grid-level speed calibration; 1.0 until calibrated).
  double speed = 1.0;
};

/// Tally of one matchmaking pass (feeds the
/// sched.match_candidates_scanned / sched.match_eligible counters).
struct MdsMatchStats {
  /// Directory entries examined (every registered entry).
  std::size_t candidates_scanned = 0;
  /// Entries that passed every filter.
  std::size_t eligible = 0;
};

class MdsDirectory {
 public:
  /// `ttl`: seconds a report stays valid ("typically on the order of
  /// minutes" in the paper).
  explicit MdsDirectory(sim::Simulation& sim, double ttl = 300.0);

  void report(const ResourceInfo& info);
  void set_speed(const std::string& resource, double speed);

  /// Heartbeat blackout (driven by lattice::fault): while set, reports from
  /// this resource are discarded, so its directory entry goes stale within
  /// one TTL and the scheduler stops considering it — the paper's "no new
  /// jobs are scheduled there" path, without the resource itself failing.
  void set_heartbeat_blackout(const std::string& resource, bool blackout);
  bool heartbeat_blackout(const std::string& resource) const {
    return blackout_.count(resource) != 0;
  }

  /// Entries whose last report is within the TTL (the resources the
  /// scheduler may consider).
  std::vector<MdsEntry> online() const;
  /// All entries, including stale ones (for monitoring displays).
  std::vector<MdsEntry> all() const;
  std::optional<MdsEntry> find(const std::string& resource) const;
  bool is_online(const std::string& resource) const;

  /// Matchmaking: append pointers to the online entries that satisfy
  /// `req` (platforms, software, MPI, memory) to `out`, in resource-name
  /// order — one pass over the directory. Returned pointers stay valid:
  /// entries are never removed.
  void match_online(const JobRequirements& req,
                    std::vector<const MdsEntry*>& out,
                    MdsMatchStats* stats = nullptr) const;

  /// Capability predicate of matchmaking (platforms, software, MPI —
  /// everything in JobRequirements except the per-entry memory floor).
  /// Public so the test reference filters with the same function.
  static bool class_matches(const JobRequirements& req,
                            const std::vector<PlatformSpec>& platforms,
                            const std::vector<std::string>& software,
                            bool mpi_capable);

  /// Load rank key: backlog per slot minus a free-slot tiebreaker. Lower is
  /// better. Public so the test reference ranks with bit-identical values.
  static double rank_key_load(const ResourceInfo& info);
  /// Expected-completion rank key *per unit of runtime estimate*: the
  /// Step-4 score with the (positive, per-decision-constant) estimate
  /// divided out, so one key ranks every job: (1 + backlog per slot) /
  /// speed, plus a slot-wait term when no slot is free. Lower is better.
  static double rank_key_eta(const ResourceInfo& info, double speed);

  double ttl() const { return ttl_; }

  /// Attach a periodic scheduler provider that polls `resource.info()`
  /// every `period` seconds (plus an initial report now).
  void attach_provider(LocalResource& resource, double period);

 private:
  sim::Simulation& sim_;
  double ttl_;
  std::map<std::string, MdsEntry> entries_;
  /// Resources whose heartbeats are currently suppressed.
  std::set<std::string> blackout_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> providers_;
  /// Reused by provider heartbeats (see attach_provider).
  ResourceInfo scratch_info_;
};

}  // namespace lattice::grid
