// Deterministic discrete-event simulation kernel. All grid machinery —
// local resource managers, the MDS information service, the BOINC server and
// its volunteer hosts, and the meta-scheduler — runs as event handlers on
// one Simulation instance, so an entire multi-institution grid run is a
// single-threaded, fully reproducible computation.
//
// Time is a double in seconds from simulation start. Events at equal times
// fire in scheduling order (a monotone sequence number breaks ties), which
// keeps runs reproducible across platforms.
//
// Storage layout (the 10⁵-host scalability pass): a 4-ary implicit heap
// holds 24-byte POD entries (when, seq, slot⊕generation), so sift
// operations are plain memmoves over few cache lines; events far in the
// future (beyond kFarWindow) park in coarse time buckets, each sorted into
// a run only when the run loop reaches it, keeping the hot heap small;
// closures live in a generation-checked slot pool addressed by the heap
// entry, constructed in place with small-buffer storage (EventFn) so
// scheduling an ordinary capture allocates nothing. Cancellation
// destroys the closure eagerly — captured job payloads and host references
// are released immediately — and leaves a tombstone in the heap that is
// dropped lazily, with a full compaction pass once tombstones outnumber
// live entries (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/band_queue.hpp"
#include "sim/event_fn.hpp"

namespace lattice::obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class Tracer;
}  // namespace lattice::obs

namespace lattice::sim {

/// Handle for cancelling a scheduled event.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class Simulation;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;
};

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule fn at absolute time `when` (>= now). Events in the past are
  /// clamped to now; a NaN or -inf `when` throws std::invalid_argument.
  /// Accepts any callable; captures up to EventFn::kInlineBytes are stored
  /// without allocating.
  EventHandle at(SimTime when, EventFn fn);

  /// Schedule fn `delay` seconds from now (negative clamps to 0).
  EventHandle after(SimTime delay, EventFn fn);

  /// Cancel a pending event. Returns false if it already fired, was
  /// cancelled, or the handle is empty. The event's closure is destroyed
  /// eagerly — captured state is released before cancel() returns — while
  /// the heap entry becomes a tombstone removed lazily (or by compaction).
  bool cancel(EventHandle handle);

  /// Run until the event queue drains or now() would exceed `until`
  /// (default: run to exhaustion). Returns the number of events fired.
  std::uint64_t run(SimTime until = kForever);

  /// Fire at most one event. Returns false when the queue is empty.
  bool step();

  bool empty() const { return live_ == 0; }
  std::uint64_t events_fired() const { return fired_; }
  std::size_t pending() const { return live_; }
  /// High-water mark of pending() over the simulation's lifetime.
  std::size_t peak_pending() const { return peak_pending_; }
  /// Queue entries currently occupied by cancelled events (tombstones
  /// awaiting lazy removal or compaction). Exposed for tests/benches.
  std::size_t dead_entries() const { return queue_.entries() - live_; }
  /// Compaction passes performed (tombstone garbage collections).
  std::uint64_t compactions() const { return compactions_; }

  /// Attach observability sinks (pass nullptr/nullptr to detach). Records
  /// events fired, pending-queue depth, and per-handler wall time; with a
  /// tracer, samples the queue depth as a Chrome counter track every
  /// `kTraceSamplePeriod` events. Pure observation — enabling this never
  /// changes event order or timing (the test_obs determinism guard).
  void set_observability(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

  /// Queue-depth counter-sampling period (events) when tracing.
  static constexpr std::uint64_t kTraceSamplePeriod = 64;

  /// Compaction trigger: once the heap holds at least this many entries
  /// and more than half of them are tombstones, the dead entries are
  /// erased and the heap is rebuilt (same strict (when, seq) order, so
  /// firing order is unaffected).
  static constexpr std::size_t kCompactMinEntries = 64;

  static constexpr SimTime kForever = 1e300;

  /// Far-parking window (seconds): events scheduled at or beyond
  /// `far_threshold_` bypass the heap into a far bucket of this width and
  /// are sorted only when the near band drains past the threshold.
  /// Polling loops and task completions land in the near band; host
  /// lifetime events (power cycles days out, departures weeks out) park.
  static constexpr SimTime kFarWindow = 8.0 * 3600.0;

 private:
  /// POD queue entry; the closure lives in slots_[slot]. (when, seq) is
  /// the strict firing order — see TwoBandQueue.
  struct Event {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Closure storage with a generation stamp: a heap entry (or handle)
  /// addresses a slot and is valid only while its generation matches, so
  /// cancelled/fired events become tombstones without touching the heap.
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoFreeSlot;
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  bool entry_live(const Event& event) const {
    return slots_[event.slot].generation == event.generation;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void maybe_compact();
  /// Execute one live, already-popped event (shared by run/step).
  void fire(const Event& event);

  /// Two-band storage (sorted run + 4-ary POD heap + far buckets,
  /// sim/band_queue.hpp): the heap at 10⁵ hosts would hold ~10⁵ pending
  /// entries and sift traffic would dominate the kernel, so entries are
  /// 24-byte PODs and distant events park in buckets (DESIGN.md §10).
  TwoBandQueue<Event> queue_{kFarWindow};
  std::vector<Slot> slots_;   // slot pool; freed slots chain via next_free
  std::uint32_t free_head_ = kNoFreeSlot;
  std::size_t live_ = 0;      // scheduled-but-not-fired events
  std::size_t peak_pending_ = 0;
  std::uint64_t compactions_ = 0;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;

  // Observability (null when not attached; see set_observability).
  obs::Counter* obs_events_ = nullptr;
  obs::Gauge* obs_pending_ = nullptr;
  obs::Histogram* obs_handler_us_ = nullptr;
  obs::Tracer* obs_tracer_ = nullptr;
  int obs_track_ = 0;
};

/// Repeating event helper: calls fn every `period` seconds starting at
/// `start` until stop() or the owning Simulation drains. Used for the MDS
/// reporting loops and BOINC daemon polling loops.
class PeriodicTask {
 public:
  PeriodicTask(Simulation& sim, SimTime start, SimTime period, EventFn fn);
  ~PeriodicTask() { stop(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm(SimTime when);

  Simulation& sim_;
  SimTime period_;
  EventFn fn_;
  EventHandle next_;
  bool running_ = true;
};

}  // namespace lattice::sim
