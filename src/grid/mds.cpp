#include "grid/mds.hpp"

#include <algorithm>

namespace lattice::grid {

MdsDirectory::MdsDirectory(sim::Simulation& sim, double ttl)
    : sim_(sim), ttl_(ttl) {}

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

void MdsDirectory::report(const ResourceInfo& info) {
  // A blacked-out resource's heartbeats never reach the directory; its
  // entry simply ages past the TTL and the scheduler routes around it.
  if (!blackout_.empty() && blackout_.count(info.name) != 0) return;
  MdsEntry& entry = entries_[info.name];
  entry.info = info;
  entry.last_report = sim_.now();
}

void MdsDirectory::set_speed(const std::string& resource, double speed) {
  const auto it = entries_.find(resource);
  if (it != entries_.end()) it->second.speed = speed;
}

void MdsDirectory::set_heartbeat_blackout(const std::string& resource,
                                          bool blackout) {
  if (blackout) {
    blackout_.insert(resource);
    // Expire the current entry immediately instead of waiting for natural
    // TTL decay: push its last report just past the validity window.
    const auto it = entries_.find(resource);
    if (it != entries_.end()) {
      it->second.last_report =
          std::min(it->second.last_report, sim_.now() - ttl_ - 1.0);
    }
  } else {
    blackout_.erase(resource);
  }
}

std::vector<MdsEntry> MdsDirectory::online() const {
  std::vector<MdsEntry> out;
  for (const auto& [name, entry] : entries_) {
    if (sim_.now() - entry.last_report <= ttl_) {
      out.push_back(entry);
    }
  }
  return out;
}

std::vector<MdsEntry> MdsDirectory::all() const {
  std::vector<MdsEntry> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(entry);
  return out;
}

std::optional<MdsEntry> MdsDirectory::find(
    const std::string& resource) const {
  const auto it = entries_.find(resource);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool MdsDirectory::is_online(const std::string& resource) const {
  const auto it = entries_.find(resource);
  return it != entries_.end() &&
         sim_.now() - it->second.last_report <= ttl_;
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
  for (const auto& [name, entry] : entries_) {
    if (sim_.now() - entry.last_report > ttl_) continue;  // offline
    if (req.min_memory_gb > entry.info.node_memory_gb) continue;
    if (!class_matches(req, entry.info.platforms, entry.info.software,
                       entry.info.mpi_capable)) {
      continue;
    }
    out.push_back(&entry);
  }
  if (stats != nullptr) *stats = {entries_.size(), out.size() - first};
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
