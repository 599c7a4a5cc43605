// Keyed pool calendar: bulk per-entity timers (volunteer-host churn at
// 10⁵–10⁶ hosts) kept out of the kernel event queue. One two-band queue
// (sim/band_queue.hpp) holds at most one live entry per key: most entries
// park in far buckets, and a bucket is sorted into a run only once the
// barrier reaches its start, so the hand-off from far band to firing is one
// sort per bucket rather than a heap sift per entry. Callers advance it to
// a conservative lookahead barrier — the `now` passed to advance(), placed
// at the next cross-pool interaction (dispatch, census read, transitioner
// tick) — and the due entries fire sequentially in strict (when, seq)
// order. Releasing no bucket past the barrier also keeps the handlers'
// re-arms parking in buckets rather than landing in the near heap.
//
// Handler contract (the lookahead-barrier invariant, DESIGN.md §11): a
// fire handler may mutate only its own key's timeline (schedule/cancel for
// that key) plus commutative pool-level accumulators (census deltas) and
// order-canonical appends (the idle list, appended in fire order, which is
// (when, seq) order). Each advance round pops *all* entries due by the
// barrier before firing any; entries a handler schedules at or before the
// barrier fire in a follow-up round of the same advance. Entries of one
// round never interleave into another, so cross-round (when) inversion is
// possible between *different* keys — harmless exactly because handlers of
// different keys are independent.
//
// Invalidation is epoch-based: each key carries a monotone epoch, bumped
// by every schedule()/cancel(), and an entry is live only while its
// stamped epoch matches — cancelled entries tombstone in place and are
// dropped lazily (or by compaction once tombstones outnumber live
// entries). The epoch and the key's pending flag share one 4-byte slot, so
// each schedule, cancel and pop makes one random access to per-key state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/band_queue.hpp"

namespace lattice::sim {

class Calendar {
 public:
  /// `far_window` as in TwoBandQueue.
  explicit Calendar(SimTime far_window) : queue_(far_window) {}

  /// Grow the key space to at least `n` keys (epochs start at 0).
  void ensure_keys(std::size_t n);

  /// Arm (or re-arm) `key`'s single pending entry at absolute time `when`.
  /// Any previously pending entry for the key is invalidated. Inline: the
  /// churn fast path re-arms once per fired flip (10⁵–10⁶ times per sweep).
  void schedule(SimTime when, std::uint32_t key) {
    KeySlot& slot = keys_[key];
    slot.word += KeySlot::kEpochStep;  // invalidate any pending entry
    queue_.push(Entry{when, next_seq_++, key, slot.epoch()});
    if (!slot.pending()) {
      // Fresh arm (the fired-flip re-arm path): no tombstone is created,
      // so the live/dead balance can only improve — skip the compaction
      // check entirely.
      slot.word |= KeySlot::kPending;
      ++live_;
      return;
    }
    maybe_compact();
  }

  /// Invalidate `key`'s pending entry, if any.
  void cancel(std::uint32_t key) {
    KeySlot& slot = keys_[key];
    slot.word += KeySlot::kEpochStep;
    if (slot.pending()) {
      slot.word &= ~KeySlot::kPending;
      --live_;
      maybe_compact();
    }
  }

  /// Fire every entry due at or before `now` in strict (when, seq) order,
  /// as `fire(key, when)`. Handlers may schedule new entries; those due by
  /// `now` fire in follow-up rounds.
  ///
  /// `prefetch(key)` is called kPrefetchAhead entries in front of the fire
  /// cursor. A batch visits keys in (when, seq) order — effectively random
  /// in key space — so a handler indexing a large per-key array can use the
  /// hook to hide the memory latency of upcoming entries behind the current
  /// handler's work. Templated over both so the per-entry calls are direct
  /// (and inlinable) rather than std::function dispatches — the handler
  /// runs once per churn flip, the hottest edge of a large sweep.
  template <typename Fire, typename Prefetch>
  void advance(SimTime now, Fire&& fire, Prefetch&& prefetch) {
    for (;;) {
      pop_due(now);
      if (due_.empty()) return;
      ++rounds_;
      // A handler may cancel/re-arm its own key; the epoch re-check drops
      // entries invalidated earlier in the batch. New entries due by `now`
      // are picked up by the next round.
      const std::size_t count = due_.size();
      for (std::size_t i = 0; i < count; ++i) {
        if (i + kPrefetchAhead < count) prefetch(due_[i + kPrefetchAhead].key);
        const Entry& entry = due_[i];
        if (!entry_live(entry)) continue;
        ++fired_;
        fire(entry.key, entry.when);
      }
    }
  }

  /// Entries fired so far (introspection for tests/benches).
  std::uint64_t fired() const { return fired_; }
  /// Advance rounds begun so far; read from a handler, the round of the
  /// entry being fired (introspection for tests).
  std::uint64_t rounds() const { return rounds_; }

 private:
  /// Fire-loop prefetch distance (entries). Batches average a few dozen
  /// entries; ~8 handler executions comfortably cover a DRAM round trip.
  static constexpr std::size_t kPrefetchAhead = 8;

  /// 24-byte POD calendar entry; strict (when, seq) firing order.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t key;
    std::uint32_t epoch;
  };

  /// Per-key state in one 4-byte word: bit 0 says the key holds a live
  /// entry; the upper 31 bits are the liveness stamp, bumped by adding
  /// kEpochStep (it wraps at 2³¹, far beyond any key's re-arms while a
  /// stale entry of it is parked).
  struct KeySlot {
    static constexpr std::uint32_t kPending = 1;
    static constexpr std::uint32_t kEpochStep = 2;
    std::uint32_t word = 0;
    std::uint32_t epoch() const { return word >> 1; }
    bool pending() const { return (word & kPending) != 0; }
  };

  bool entry_live(const Entry& entry) const {
    return entry.epoch == keys_[entry.key].epoch();
  }
  void maybe_compact();
  /// Pop one round's due-by-`now` prefix into due_ — queue pops, so
  /// already in (when, seq) order — dropping tombstones on the way and
  /// releasing no bucket that starts after `now`. Out of line: only the
  /// per-entry fire loop benefits from the template.
  void pop_due(SimTime now);

  TwoBandQueue<Entry> queue_;
  std::vector<Entry> due_;             // one round's (when, seq) batch
  std::vector<KeySlot> keys_;          // per-key state, indexed by key
  std::size_t live_ = 0;               // live entries held
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace lattice::sim
