#include "sim/calendar.hpp"

namespace lattice::sim {

void Calendar::ensure_keys(std::size_t n) {
  if (keys_.size() < n) keys_.resize(n);
}

void Calendar::maybe_compact() {
  queue_.maybe_compact(live_, [this](const Entry& e) { return entry_live(e); });
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
