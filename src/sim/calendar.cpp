#include "sim/calendar.hpp"

namespace lattice::sim {

namespace {
/// Compaction trigger, matching the kernel's (Simulation
/// kCompactMinEntries): compact once the queue holds at least this many
/// entries and tombstones outnumber live ones.
constexpr std::size_t kCompactMinEntries = 64;
}  // namespace

void Calendar::ensure_keys(std::size_t n) {
  if (keys_.size() < n) keys_.resize(n);
}

void Calendar::maybe_compact() {
  const std::size_t entries = queue_.entries();
  if (entries < kCompactMinEntries || entries - live_ <= live_) return;
  queue_.compact([this](const Entry& e) { return entry_live(e); });
}

void Calendar::pop_due(SimTime now) {
  due_.clear();
  const auto live = [this](const Entry& e) { return entry_live(e); };
  while (!queue_.near_empty() || queue_.refill(live, now)) {
    const Entry entry = queue_.front();
    if (!live(entry)) {
      queue_.pop_front();  // tombstone
      continue;
    }
    if (entry.when > now) break;  // lookahead barrier
    queue_.pop_front();
    keys_[entry.key].word &= ~KeySlot::kPending;
    --live_;
    due_.push_back(entry);
  }
}

}  // namespace lattice::sim
