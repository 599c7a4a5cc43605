#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lattice::sim {

void Simulation::set_observability(obs::MetricsRegistry* metrics,
                                   obs::Tracer* tracer) {
  if (metrics == nullptr || !metrics->enabled()) {
    obs_events_ = nullptr;
    obs_pending_ = nullptr;
    obs_handler_us_ = nullptr;
  } else {
    obs_events_ = &metrics->counter("sim.events_fired", "events",
                                    "events executed by the kernel");
    obs_pending_ = &metrics->gauge("sim.pending_events", "events",
                                   "scheduled events not yet fired");
    obs_handler_us_ = &metrics->histogram(
        "sim.handler_wall_us", {1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6}, "us",
        "wall-clock time spent inside one event handler");
  }
  obs_tracer_ = (tracer != nullptr && tracer->enabled()) ? tracer : nullptr;
  obs_track_ = obs_tracer_ ? obs_tracer_->track("sim.kernel") : 0;
}

std::uint32_t Simulation::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulation::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();  // eager: captured state is released right here
  if (++s.generation == 0) s.generation = 1;  // 0 is the invalid-handle mark
  s.next_free = free_head_;
  free_head_ = slot;
}

EventHandle Simulation::at(SimTime when, EventFn fn) {
  assert(fn);
  // One compare on the common path; only a time in the past (or NaN, which
  // compares false) takes the clamp branch, where a non-finite time would
  // otherwise reach the queue as a garbage slot index.
  if (!(when >= now_)) {
    if (!std::isfinite(when)) {
      throw std::invalid_argument("sim: event time is not finite");
    }
    when = now_;
  }
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  const std::uint32_t generation = slots_[slot].generation;
  // Distant events (a volunteer host's next power cycle, a departure weeks
  // out) park in the far band, O(1); the rest enter the 4-ary heap.
  queue_.push(Event{when, next_seq_++, slot, generation});
  ++live_;
  if (live_ > peak_pending_) peak_pending_ = live_;
  return EventHandle{(static_cast<std::uint64_t>(slot) << 32) | generation};
}

EventHandle Simulation::after(SimTime delay, EventFn fn) {
  return at(now_ + std::max(delay, 0.0), std::move(fn));
}

bool Simulation::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const auto slot = static_cast<std::uint32_t>(handle.id_ >> 32);
  const auto generation = static_cast<std::uint32_t>(handle.id_);
  if (slot >= slots_.size() || slots_[slot].generation != generation) {
    return false;  // already fired or already cancelled
  }
  release_slot(slot);
  --live_;
  // Cancellation leaves tombstones in both bands; bound the garbage so a
  // churn-heavy run (hosts cancelling completion events on every
  // preemption) cannot grow the structures past ~2x the live event count.
  // Rebuilding keeps the strict (when, seq) order, so firing is unaffected.
  if (queue_.maybe_compact(live_,
                           [this](const Event& e) { return entry_live(e); })) {
    ++compactions_;
  }
  return true;
}

void Simulation::fire(const Event& event) {
  // Move the closure out and free the slot before invoking, so the
  // handler can schedule into the freed slot or cancel itself (a no-op).
  EventFn fn = std::move(slots_[event.slot].fn);
  release_slot(event.slot);
  --live_;
  now_ = event.when;
  ++fired_;
  if (obs_events_ == nullptr) {  // fast path: observability detached
    fn();
    return;
  }
  obs_events_->inc();
  obs_pending_->set(static_cast<double>(live_));
  // lattice-lint: allow(wall-clock) — pure observation: feeds the sim.handler_wall_us histogram, never read back into simulation state
  const double t0 = obs::Tracer::wall_now_us();
  fn();
  // lattice-lint: allow(wall-clock) — pure observation: closes the handler-wall-time measurement opened above
  obs_handler_us_->observe(obs::Tracer::wall_now_us() - t0);
  if (obs_tracer_ != nullptr && fired_ % kTraceSamplePeriod == 0) {
    obs_tracer_->counter(obs_track_, "sim.pending_events", now_,
                         static_cast<double>(live_));
  }
}

bool Simulation::step() {
  const auto live = [this](const Event& e) { return entry_live(e); };
  while (!queue_.near_empty() ||
         queue_.refill(live, std::numeric_limits<SimTime>::infinity())) {
    const Event event = queue_.front();
    queue_.pop_front();
    if (!entry_live(event)) continue;  // cancelled: tombstone
    fire(event);
    return true;
  }
  return false;
}

std::uint64_t Simulation::run(SimTime until) {
  std::uint64_t count = 0;
  const auto live = [this](const Event& e) { return entry_live(e); };
  while (!queue_.near_empty() || queue_.refill(live, until)) {
    // Skip tombstones so the horizon check sees the next live event.
    const Event event = queue_.front();
    if (!entry_live(event)) {
      queue_.pop_front();
      continue;
    }
    if (event.when > until) break;
    queue_.pop_front();
    fire(event);
    ++count;
  }
  return count;
}

PeriodicTask::PeriodicTask(Simulation& sim, SimTime start, SimTime period,
                           EventFn fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  assert(period_ > 0.0);
  arm(start);
}

void PeriodicTask::arm(SimTime when) {
  next_ = sim_.at(when, [this] {
    if (!running_) return;
    fn_();
    if (running_) arm(sim_.now() + period_);
  });
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(next_);
}

}  // namespace lattice::sim
