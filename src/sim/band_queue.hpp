// Banded event storage shared by the kernel (Simulation) and the keyed
// pool calendar (Calendar): a 4-ary implicit min-heap of POD entries
// for the near future, a far band of coarse time buckets for entries at or
// beyond a sliding threshold, and an unsorted overflow band for the rare
// entry past the bucketed span. The banding keeps the hot heap small — a
// volunteer host's next power cycle half a day out never pays sift traffic
// until the near band drains down to it — while a refill touches only the
// entries of the next bucket, not the whole far band (the flat-vector far
// band this replaces rescanned every parked entry per refill, which
// dominated once the far band reached 10⁶ entries).
//
// Entry is any POD with `.when` (SimTime) and `.seq` (monotone u64) fields;
// (when, seq) is a strict total order, so every valid heap over the same
// entries pops in exactly the same sequence — what lets the structure be
// rebuilt (compaction) or change arity without affecting firing order
// (DESIGN.md §10, §11).
//
// Bucket b covers [b·width, (b+1)·width). The width is the construction
// window rounded down to a power of two, so `when / width` and
// `bucket · width` are exact in binary floating point — an entry's bucket
// and the released thresholds never suffer rounding, which is what keeps
// the banding invariant exact:
//
//   every heap entry < far_threshold() <= every far/overflow entry,
//
// with the threshold only ever increasing — so the banded pop order equals
// the single-heap pop order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace lattice::sim {

using SimTime = double;

template <typename Entry>
class TwoBandQueue {
 public:
  /// `far_window` is the nominal width of the near band: a push at or
  /// beyond far_threshold() parks in a far bucket; a drained heap refills
  /// bucket by bucket, advancing the threshold one bucket width at a time.
  explicit TwoBandQueue(SimTime far_window)
      : bucket_width_(std::exp2(std::floor(std::log2(far_window)))),
        far_threshold_(bucket_width_) {}

  /// Strict (when, seq) total order — no ties.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  void push(const Entry& entry) {
    if (entry.when < far_threshold_) {
      heap_.push_back(entry);
      sift_up(heap_.size() - 1);
      return;
    }
    ++far_count_;
    // Exact because bucket_width_ is a power of two (exponent shift).
    const double slot = entry.when / bucket_width_;
    if (slot >= static_cast<double>(horizon_bucket_)) {
      // Past the bucketed span (years out, or a degenerate `when`):
      // parked unsorted, re-bucketed if the threshold ever gets there.
      overflow_.push_back(entry);
      return;
    }
    const std::size_t idx = static_cast<std::size_t>(slot);
    if (idx >= buckets_.size()) buckets_.resize(idx + 1);
    buckets_[idx].push_back(entry);
  }

  bool heap_empty() const { return heap_.empty(); }
  const Entry& front() const { return heap_.front(); }

  void pop_front() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  /// Migrate the next far bucket(s) into the (drained) heap, advancing the
  /// threshold. `live(entry)` identifies tombstones to drop during the
  /// move. Returns true when the heap is non-empty afterwards.
  /// Correctness: refill only runs with the heap empty, every entry of
  /// bucket b satisfies b·width <= when < (b+1)·width, and releasing
  /// bucket b advances the threshold to exactly (b+1)·width — so the
  /// admitted set is a (when, seq)-prefix of the parked set and the global
  /// pop order is exactly the single-heap order.
  template <typename Live>
  bool refill(const Live& live) {
    while (heap_.empty()) {
      while (next_bucket_ < buckets_.size() && buckets_[next_bucket_].empty())
        ++next_bucket_;
      if (next_bucket_ >= buckets_.size()) {
        if (!rebase_overflow(live)) return false;
        continue;
      }
      // Swap the bucket out (releasing its storage) and admit its live
      // entries. The threshold advances before the move so the banding
      // invariant holds at every intermediate state.
      std::vector<Entry> bucket;
      bucket.swap(buckets_[next_bucket_]);
      far_count_ -= bucket.size();
      ++next_bucket_;
      far_threshold_ =
          static_cast<double>(next_bucket_) * bucket_width_;  // exact
      for (const Entry& entry : bucket) {
        if (live(entry)) heap_.push_back(entry);
      }
      heapify();
    }
    return true;
  }

  /// Erase every non-live entry from all bands and rebuild the heap.
  /// Rebuilding cannot reorder firing: (when, seq) is a strict total
  /// order, so any valid heap over the surviving entries pops identically.
  template <typename Live>
  void compact(const Live& live) {
    std::erase_if(heap_, [&](const Entry& e) { return !live(e); });
    far_count_ = 0;
    for (std::vector<Entry>& bucket : buckets_) {
      std::erase_if(bucket, [&](const Entry& e) { return !live(e); });
      far_count_ += bucket.size();
    }
    std::erase_if(overflow_, [&](const Entry& e) { return !live(e); });
    far_count_ += overflow_.size();
    heapify();
  }

  /// Total entries held (live + tombstones awaiting lazy removal).
  std::size_t entries() const { return heap_.size() + far_count_; }
  SimTime far_threshold() const { return far_threshold_; }

 private:
  /// Bucketed span beyond the threshold; entries further out than this
  /// many buckets wait in overflow_. Sized so every realistic interval
  /// (days–weeks at any bucket width) lands in a bucket directly and the
  /// overflow band stays empty outside degenerate configurations.
  static constexpr std::size_t kBucketSpan = 4096;

  /// The threshold ran past every bucket: re-home the overflow band.
  /// Returns false (nothing left anywhere far) or true after moving at
  /// least the earliest live overflow entry into a bucket.
  template <typename Live>
  bool rebase_overflow(const Live& live) {
    far_count_ -= overflow_.size();
    std::erase_if(overflow_, [&](const Entry& e) { return !live(e); });
    far_count_ += overflow_.size();
    if (overflow_.empty()) return false;
    SimTime min_when = std::numeric_limits<SimTime>::infinity();
    for (const Entry& entry : overflow_) min_when = std::min(min_when, entry.when);
    // Cap before the size_t cast (exact up to 2^52; unreachable in any
    // real run — this is pure undefined-behavior hygiene).
    const double min_slot =
        std::min(std::floor(min_when / bucket_width_), 4.5e15);
    next_bucket_ =
        std::max(next_bucket_, static_cast<std::size_t>(min_slot));
    far_threshold_ =
        std::max(far_threshold_,
                 static_cast<double>(next_bucket_) * bucket_width_);
    horizon_bucket_ = next_bucket_ + kBucketSpan;
    std::size_t write = 0;
    for (std::size_t read = 0; read < overflow_.size(); ++read) {
      const Entry entry = overflow_[read];
      const double slot = entry.when / bucket_width_;
      if (slot >= static_cast<double>(horizon_bucket_)) {
        overflow_[write++] = entry;
        continue;
      }
      const std::size_t idx = static_cast<std::size_t>(slot);
      if (idx >= buckets_.size()) buckets_.resize(idx + 1);
      buckets_[idx].push_back(entry);
    }
    overflow_.resize(write);
    return true;
  }

  void sift_up(std::size_t pos) {
    const Entry moving = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 4;
      if (!earlier(moving, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  void sift_down(std::size_t pos) {
    const std::size_t size = heap_.size();
    const Entry moving = heap_[pos];
    for (;;) {
      const std::size_t first = pos * 4 + 1;
      if (first >= size) break;
      std::size_t best;
      if (first + 4 <= size) {
        // Interior node: tournament over the 4 children (two independent
        // pairs, then the winners) — same 3 comparisons as a linear scan
        // but without a loop-carried dependency.
        const std::size_t a =
            earlier(heap_[first + 1], heap_[first]) ? first + 1 : first;
        const std::size_t b =
            earlier(heap_[first + 3], heap_[first + 2]) ? first + 3
                                                        : first + 2;
        best = earlier(heap_[b], heap_[a]) ? b : a;
      } else {
        best = first;
        for (std::size_t child = first + 1; child < size; ++child) {
          if (earlier(heap_[child], heap_[best])) best = child;
        }
      }
      if (!earlier(heap_[best], moving)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = moving;
  }

  void heapify() {
    if (heap_.size() < 2) return;
    for (std::size_t pos = (heap_.size() - 2) / 4 + 1; pos-- > 0;) {
      sift_down(pos);
    }
  }

  /// 4-ary implicit min-heap ordered by earlier(): shallower than a binary
  /// heap (log₄ levels), so a sift touches half the cache lines.
  std::vector<Entry> heap_;
  /// Far band: bucket b holds entries with when in [b·width, (b+1)·width),
  /// for b in [next_bucket_, horizon_bucket_). Released buckets keep empty
  /// husks (a few dozen bytes each) so indexing stays absolute.
  std::vector<std::vector<Entry>> buckets_;
  /// Overflow band: unsorted parking past the bucketed span.
  std::vector<Entry> overflow_;
  std::size_t next_bucket_ = 1;                        // first unreleased
  std::size_t horizon_bucket_ = 1 + kBucketSpan;       // first overflow
  std::size_t far_count_ = 0;  // entries across buckets + overflow
  SimTime bucket_width_;
  SimTime far_threshold_;
};

}  // namespace lattice::sim
