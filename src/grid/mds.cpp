#include "grid/mds.hpp"

#include <algorithm>

namespace lattice::grid {

MdsDirectory::MdsDirectory(sim::Simulation& sim, double ttl)
    : sim_(sim), ttl_(ttl) {}

std::string MdsDirectory::class_key_of(const ResourceInfo& info) {
  // Canonical fingerprint of the matchmaking-relevant capabilities:
  // sorted platform names + MPI flag + sorted software list.
  std::vector<std::string> platforms;
  platforms.reserve(info.platforms.size());
  for (const PlatformSpec& platform : info.platforms) {
    platforms.push_back(platform_name(platform));
  }
  // lattice-lint: allow(decision-sort) — class filing, not a per-decision path: runs on first report or capability change only
  std::sort(platforms.begin(), platforms.end());
  std::vector<std::string> software = info.software;
  // lattice-lint: allow(decision-sort) — same rare class-filing path, never per decision
  std::sort(software.begin(), software.end());

  std::string key;
  for (const std::string& platform : platforms) {
    key += platform;
    key += ',';
  }
  key += info.mpi_capable ? "|mpi|" : "|nompi|";
  for (const std::string& item : software) {
    key += item;
    key += ',';
  }
  return key;
}

double MdsDirectory::rank_key_load(const ResourceInfo& info) {
  const double slots = std::max<double>(info.total_slots, 1.0);
  const double busy =
      static_cast<double>(info.total_slots - info.free_slots);
  const double backlog =
      (static_cast<double>(info.queued_jobs) + busy) / slots;
  return backlog - 1e-3 * static_cast<double>(info.free_slots);
}

double MdsDirectory::rank_key_eta(const ResourceInfo& info, double speed) {
  const double slots = std::max<double>(info.total_slots, 1.0);
  const double busy =
      static_cast<double>(info.total_slots - info.free_slots);
  const double backlog =
      (static_cast<double>(info.queued_jobs) + busy) / slots;
  const double inv_speed = 1.0 / speed;
  double key = inv_speed * (1.0 + backlog);
  if (info.free_slots == 0) {
    // Must wait for a slot; penalize by the mean wall time of what is
    // ahead in line (approximated by this job's own wall time — which is
    // the unit here, the estimate having been divided out).
    key += inv_speed * (static_cast<double>(info.queued_jobs) + 1.0) / slots;
  }
  return key;
}

void MdsDirectory::rank(Entry& entry) {
  CapabilityClass& cls = classes_.find(entry.class_key)->second;
  entry.load_key = rank_key_load(entry.data.info);
  entry.eta_key = rank_key_eta(entry.data.info, entry.data.speed);
  cls.by_load.emplace(RankKey{entry.load_key, &entry.data.info.name},
                      &entry);
  cls.by_eta.emplace(RankKey{entry.eta_key, &entry.data.info.name}, &entry);
  entry.ranked = true;
}

void MdsDirectory::unrank(Entry& entry) {
  if (!entry.ranked) return;
  CapabilityClass& cls = classes_.find(entry.class_key)->second;
  cls.by_load.erase(RankKey{entry.load_key, &entry.data.info.name});
  cls.by_eta.erase(RankKey{entry.eta_key, &entry.data.info.name});
  entry.ranked = false;
}

void MdsDirectory::file_under_class(Entry& entry, std::string key) {
  // Caller (report) has already unranked the entry; rank maps never hold
  // an entry across a re-file.
  if (entry.class_key == key) return;
  if (!entry.class_key.empty()) {
    const auto old_it = classes_.find(entry.class_key);
    old_it->second.members.erase(entry.data.info.name);
    if (old_it->second.members.empty()) classes_.erase(old_it);
  }
  auto [it, inserted] = classes_.try_emplace(key);
  if (inserted) {
    it->second.platforms = entry.data.info.platforms;
    it->second.software = entry.data.info.software;
    it->second.mpi_capable = entry.data.info.mpi_capable;
  }
  it->second.members[entry.data.info.name] = &entry;
  entry.class_key = std::move(key);
}

void MdsDirectory::report(const ResourceInfo& info) {
  // A blacked-out resource's heartbeats never reach the directory; its
  // entry simply ages past the TTL and the scheduler routes around it.
  if (!blackout_.empty() && blackout_.count(info.name) != 0) return;
  auto [it, inserted] = entries_.try_emplace(info.name);
  Entry& entry = it->second;
  // Incremental index maintenance: the canonical class key is rebuilt (and
  // the entry re-filed) only when the capability fields actually changed —
  // first report, or a capability upgrade. Ordinary heartbeats compare the
  // raw fields (cheap, no allocation) and just refresh the load/timestamp
  // data in place.
  const bool capabilities_changed =
      inserted || entry.data.info.mpi_capable != info.mpi_capable ||
      entry.data.info.platforms != info.platforms ||
      entry.data.info.software != info.software;
  if (capabilities_changed) {
    // Unrank before the info assignment: the erase keys are the cached
    // rank values plus the (unchanged) name. Re-filed after the move even
    // when the canonical class key happens to be unchanged (e.g. a
    // platform-list reorder), so the rank maps never double-file.
    unrank(entry);
    entry.data.info = info;
    entry.data.last_report = sim_.now();
    file_under_class(entry, class_key_of(info));
    rank(entry);
    return;
  }
  // Heartbeat fast path: capabilities (and the name, which keys entries_)
  // are unchanged, so only the volatile load fields need copying — no
  // string or vector traffic.
  ResourceInfo& dst = entry.data.info;
  dst.kind = info.kind;
  dst.total_slots = info.total_slots;
  dst.free_slots = info.free_slots;
  dst.queued_jobs = info.queued_jobs;
  dst.node_memory_gb = info.node_memory_gb;
  dst.stable = info.stable;
  entry.data.last_report = sim_.now();
  // Lazy rank maintenance: re-file only when the load fields moved the
  // rank keys — an idle resource's steady heartbeats touch nothing.
  if (rank_key_load(dst) != entry.load_key ||
      rank_key_eta(dst, entry.data.speed) != entry.eta_key) {
    unrank(entry);
    rank(entry);
  }
}

void MdsDirectory::set_speed(const std::string& resource, double speed) {
  const auto it = entries_.find(resource);
  if (it == entries_.end()) return;
  if (it->second.data.speed == speed) return;
  // Calibration moves the eta rank key; re-file just this entry.
  unrank(it->second);
  it->second.data.speed = speed;
  rank(it->second);
}

void MdsDirectory::set_heartbeat_blackout(const std::string& resource,
                                          bool blackout) {
  if (blackout) {
    blackout_.insert(resource);
    // Expire the current entry immediately instead of waiting for natural
    // TTL decay: push its last report just past the validity window.
    const auto it = entries_.find(resource);
    if (it != entries_.end()) {
      it->second.data.last_report =
          std::min(it->second.data.last_report, sim_.now() - ttl_ - 1.0);
    }
  } else {
    blackout_.erase(resource);
  }
}

std::vector<MdsEntry> MdsDirectory::online() const {
  std::vector<MdsEntry> out;
  for (const auto& [name, entry] : entries_) {
    if (sim_.now() - entry.data.last_report <= ttl_) {
      out.push_back(entry.data);
    }
  }
  return out;
}

std::vector<MdsEntry> MdsDirectory::all() const {
  std::vector<MdsEntry> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry.data);
  return out;
}

std::optional<MdsEntry> MdsDirectory::find(
    const std::string& resource) const {
  const auto it = entries_.find(resource);
  if (it == entries_.end()) return std::nullopt;
  return it->second.data;
}

bool MdsDirectory::is_online(const std::string& resource) const {
  const auto it = entries_.find(resource);
  return it != entries_.end() &&
         sim_.now() - it->second.data.last_report <= ttl_;
}

bool MdsDirectory::class_matches(const JobRequirements& req,
                                 const std::vector<PlatformSpec>& platforms,
                                 const std::vector<std::string>& software,
                                 bool mpi_capable) {
  if (!req.platforms.empty()) {
    bool platform_ok = false;
    for (const PlatformSpec& wanted : req.platforms) {
      for (const PlatformSpec& offered : platforms) {
        if (wanted == offered) {
          platform_ok = true;
          break;
        }
      }
    }
    if (!platform_ok) return false;
  }
  if (req.needs_mpi && !mpi_capable) return false;
  for (const std::string& dependency : req.software) {
    if (std::find(software.begin(), software.end(), dependency) ==
        software.end()) {
      return false;
    }
  }
  return true;
}

void MdsDirectory::match_online(const JobRequirements& req,
                                std::vector<const MdsEntry*>& out,
                                MdsMatchStats* stats) const {
  const std::size_t first = out.size();
  MdsMatchStats local;
  member_cursors_.clear();
  for (const auto& [key, cls] : classes_) {
    ++local.classes_scanned;
    if (!class_matches(req, cls.platforms, cls.software, cls.mpi_capable)) {
      continue;
    }
    if (!cls.members.empty()) {
      member_cursors_.push_back({cls.members.begin(), cls.members.end()});
    }
  }
  // K-way merge over the (already name-ordered) member maps of the
  // matching classes: the eligible set is appended directly in the global
  // name order a linear directory scan produces, so round-robin indexing
  // is decision-identical to the test reference — and nothing, in
  // particular no retained prefix already in `out`, is ever (re-)sorted.
  while (!member_cursors_.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < member_cursors_.size(); ++i) {
      if (member_cursors_[i].first->first < member_cursors_[best].first->first) {
        best = i;
      }
    }
    auto& cursor = member_cursors_[best];
    const Entry* entry = cursor.first->second;
    ++cursor.first;
    if (cursor.first == cursor.second) {
      member_cursors_[best] = member_cursors_.back();
      member_cursors_.pop_back();
    }
    ++local.candidates_scanned;
    if (sim_.now() - entry->data.last_report > ttl_) continue;  // stale
    if (req.min_memory_gb > entry->data.info.node_memory_gb) continue;
    out.push_back(&entry->data);
  }
  local.eligible = out.size() - first;
  if (stats != nullptr) *stats = local;
}

void MdsDirectory::attach_provider(LocalResource& resource, double period) {
  report(resource.info());
  providers_.push_back(std::make_unique<sim::PeriodicTask>(
      sim_, sim_.now() + period, period, [this, &resource] {
        // One shared scratch (single-threaded sim): steady-state heartbeats
        // reuse its string/vector capacity instead of allocating a fresh
        // ResourceInfo per report.
        resource.info_into(scratch_info_);
        report(scratch_info_);
      }));
}

}  // namespace lattice::grid
