// Monitoring and Discovery Service — the Globus MDS role in the paper:
// scheduler providers on each resource periodically push ResourceInfo
// snapshots into a central directory; entries are valid for a short
// lifetime, and a resource whose reports stop arriving is marked offline so
// "no new jobs are scheduled there".
//
// Matchmaking index (the 10⁵-host scalability pass): entries are grouped
// into capability classes keyed by the matchmaking-relevant static
// capabilities — platform list, software list, MPI flag. A query evaluates
// the class predicate once per class and then touches only the members of
// matching classes (TTL and memory are cheap per-entry compares), instead
// of re-evaluating the full predicate against every registered resource.
// The index is maintained incrementally: a heartbeat re-files its entry
// only when the capability fields actually changed, and offline transitions
// need no maintenance at all because staleness is a pure time compare
// (invalidation rules in DESIGN.md §10).
//
// Rank index (the sub-linear decision pass): each capability class
// additionally keeps its members in the two scheduler rank orders — load
// (backlog spread) and expected-completion rate ("eta": the Step-4 score
// with the job's runtime estimate divided out, a positive per-decision
// constant, so the argmin is the same entry). best_ranked() streams
// candidates from the matching classes in ascending (rank key, name) order
// — a k-way merge over the per-class ordered maps — and stops at the first
// entry the caller's accept predicate takes, so a decision touches
// O(classes + log members + k) entries, where k is the rejected prefix
// (usually 0). Rank maintenance is lazy: a heartbeat re-files its entry in
// the rank maps only when the recomputed keys actually changed, a
// calibration (set_speed) or capability change re-files exactly the one
// entry, and TTL staleness again needs no maintenance (stale entries are
// skipped during the stream). Invalidation rules: DESIGN.md §11.
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

/// Rank order of a best_ranked() candidate stream.
enum class RankOrder {
  kLoad,  // backlog - 1e-3 * free_slots (the paper's naive spread)
  kEta,   // per-unit-estimate expected completion (speed + load + queue)
};

/// Tally of one indexed matchmaking query (feeds the
/// sched.match_candidates_scanned / sched.match_eligible counters).
struct MdsMatchStats {
  /// Capability classes whose predicate was evaluated.
  std::size_t classes_scanned = 0;
  /// Entries examined inside matching classes (TTL + memory checks).
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

  /// Indexed matchmaking: append pointers to the online entries that
  /// satisfy `req` (platforms, software, MPI, memory) to `out`, in
  /// resource-name order — the same order a linear scan over online()
  /// produces, so round-robin decisions match the test-only linear
  /// reference (tests/sched_reference.hpp). Returned pointers are valid
  /// until the next report() for that resource.
  void match_online(const JobRequirements& req,
                    std::vector<const MdsEntry*>& out,
                    MdsMatchStats* stats = nullptr) const;

  /// Capability-class predicate used by the index (platforms, software,
  /// MPI — everything in JobRequirements except the per-entry memory
  /// floor). Exposed for the matchmaking property test.
  static bool class_matches(const JobRequirements& req,
                            const std::vector<PlatformSpec>& platforms,
                            const std::vector<std::string>& software,
                            bool mpi_capable);

  /// Load rank key: backlog per slot minus a free-slot tiebreaker. Lower is
  /// better. Public so the test reference ranks with bit-identical values.
  static double rank_key_load(const ResourceInfo& info);
  /// Expected-completion rank key *per unit of runtime estimate*: the
  /// Step-4 score with the (positive, per-decision-constant) estimate
  /// divided out, so the ordering is job-independent and can be maintained
  /// in the directory: (1 + backlog per slot) / speed, plus a slot-wait
  /// term when no slot is free. Lower is better.
  static double rank_key_eta(const ResourceInfo& info, double speed);

  /// Stream the online entries matching `req` in ascending
  /// (rank key, name) order and return the first one `accept` takes (or
  /// nullptr). TTL and memory-floor rejects are skipped before `accept`
  /// sees the entry. The (key, name) order makes the result identical to
  /// "linear scan in name order keeping the first strict improvement" —
  /// the test reference's tie-break (tests/sched_reference.hpp).
  template <typename Accept>
  const MdsEntry* best_ranked(const JobRequirements& req, RankOrder order,
                              Accept&& accept,
                              MdsMatchStats* stats = nullptr) const {
    MdsMatchStats local;
    rank_cursors_.clear();
    for (const auto& [key, cls] : classes_) {
      ++local.classes_scanned;
      if (!class_matches(req, cls.platforms, cls.software, cls.mpi_capable)) {
        continue;
      }
      const RankMap& index =
          order == RankOrder::kLoad ? cls.by_load : cls.by_eta;
      if (!index.empty()) {
        rank_cursors_.push_back({index.begin(), index.end()});
      }
    }
    const MdsEntry* found = nullptr;
    while (found == nullptr && !rank_cursors_.empty()) {
      // Min cursor across the (few) matching classes — the global
      // (rank key, name) order is the merge of the per-class orders.
      std::size_t best = 0;
      for (std::size_t i = 1; i < rank_cursors_.size(); ++i) {
        if (rank_cursors_[i].first->first < rank_cursors_[best].first->first) {
          best = i;
        }
      }
      auto& cursor = rank_cursors_[best];
      const Entry* entry = cursor.first->second;
      ++cursor.first;
      if (cursor.first == cursor.second) {
        rank_cursors_[best] = rank_cursors_.back();
        rank_cursors_.pop_back();
      }
      ++local.candidates_scanned;
      if (sim_.now() - entry->data.last_report > ttl_) continue;  // stale
      if (req.min_memory_gb > entry->data.info.node_memory_gb) continue;
      ++local.eligible;
      if (accept(entry->data)) found = &entry->data;
    }
    if (stats != nullptr) *stats = local;
    return found;
  }

  double ttl() const { return ttl_; }
  /// Number of distinct capability classes currently indexed.
  std::size_t capability_classes() const { return classes_.size(); }

  /// Attach a periodic scheduler provider that polls `resource.info()`
  /// every `period` seconds (plus an initial report now).
  void attach_provider(LocalResource& resource, double period);

 private:
  struct Entry {
    MdsEntry data;
    /// Key of the capability class this entry is filed under.
    std::string class_key;
    // Rank keys this entry is currently filed under in its class's rank
    // maps (needed to erase the old positions on re-file).
    double load_key = 0.0;
    double eta_key = 0.0;
    /// Filed in the rank maps (false only transiently during re-filing).
    bool ranked = false;
  };
  /// Ordered rank-map key: primary rank value, resource name as the
  /// tie-break (pointing at Entry::data.info.name, whose address is stable
  /// — entries live in a node-based map and the name never changes, since
  /// it keys entries_).
  struct RankKey {
    double key;
    const std::string* name;
    bool operator<(const RankKey& other) const {
      if (key != other.key) return key < other.key;
      return *name < *other.name;
    }
  };
  using RankMap = std::map<RankKey, const Entry*>;
  using MemberMap = std::map<std::string, const Entry*>;
  /// One capability class: the shared matchmaking-relevant capabilities
  /// plus the (name-ordered) member set and the two rank orders over it.
  struct CapabilityClass {
    std::vector<PlatformSpec> platforms;
    std::vector<std::string> software;
    bool mpi_capable = false;
    MemberMap members;
    RankMap by_load;
    RankMap by_eta;
  };

  static std::string class_key_of(const ResourceInfo& info);
  void file_under_class(Entry& entry, std::string key);
  /// Insert `entry` into its class's rank maps at freshly computed keys.
  void rank(Entry& entry);
  /// Remove `entry` from its class's rank maps (no-op if not filed).
  void unrank(Entry& entry);

  sim::Simulation& sim_;
  double ttl_;
  std::map<std::string, Entry> entries_;
  /// Resources whose heartbeats are currently suppressed.
  std::set<std::string> blackout_;
  std::map<std::string, CapabilityClass> classes_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> providers_;
  /// Reused by provider heartbeats (see attach_provider).
  ResourceInfo scratch_info_;
  // Merge cursors reused across queries (allocation-lean decision path).
  mutable std::vector<std::pair<RankMap::const_iterator,
                                RankMap::const_iterator>>
      rank_cursors_;
  mutable std::vector<std::pair<MemberMap::const_iterator,
                                MemberMap::const_iterator>>
      member_cursors_;
};

}  // namespace lattice::grid
