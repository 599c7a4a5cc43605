// Banded event storage shared by the kernel (Simulation) and the keyed
// pool calendar (Calendar): a far band of coarse time buckets for entries
// at or beyond a sliding threshold, an unsorted overflow band for the rare
// entry past the bucketed span, and a near band below the threshold. The
// near band is the released bucket as one sorted run, consumed by a
// cursor, plus a 4-ary implicit min-heap of POD entries holding only the
// entries pushed below the threshold after the release. A bucket is
// sorted once, when it comes due (Brown's calendar queue, CACM 1988), so a
// volunteer host's next power cycle half a day out costs one bucket append
// and its share of one sort, not a dependent, cache-missing heap sift per
// level — the heap stays as small as the late pushes.
//
// Entry is any POD with `.when` (SimTime) and `.seq` (monotone u64) fields;
// (when, seq) is a strict total order, so front() — the earlier of the run
// head and the heap top — pops in exactly the single-heap sequence, and the
// structure can be rebuilt (compaction) or re-banded without affecting
// firing order (DESIGN.md §10, §11).
//
// Bucket b covers [b·width, (b+1)·width). The width is the construction
// window rounded down to a power of two, so `when / width` and
// `bucket · width` are exact in binary floating point — an entry's bucket
// and the released thresholds never suffer rounding, which is what keeps
// the banding invariant exact:
//
//   every run/heap entry < far_threshold() <= every far/overflow entry,
//
// with the threshold only ever increasing — so the banded pop order equals
// the single-heap pop order.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace lattice::sim {

using SimTime = double;

template <typename Entry>
class TwoBandQueue {
 public:
  /// Bucketed span beyond the threshold; entries further out than this
  /// many buckets wait in overflow_. Sized so every realistic interval
  /// (days–weeks at any bucket width) lands in a bucket directly and the
  /// overflow band stays empty outside degenerate configurations.
  static constexpr std::size_t kBucketSpan = 4096;

  /// `far_window` is the nominal far-band bucket width: a push at or
  /// beyond far_threshold() parks in a far bucket; a drained near band
  /// refills bucket by bucket, advancing the threshold one bucket width at
  /// a time.
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

  /// True when neither the released run nor the heap holds an entry.
  bool near_empty() const { return run_pos_ == run_.size() && heap_.empty(); }
  /// The earliest near entry (requires !near_empty()).
  const Entry& front() const {
    return run_leads() ? run_[run_pos_] : heap_.front();
  }

  void pop_front() {
    if (run_leads()) {
      ++run_pos_;
      return;
    }
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }

  /// Release far buckets into the (drained) near band, advancing the
  /// threshold, until the near band holds an entry or the next bucket
  /// starts after `until` — a caller that stops at a horizon never
  /// releases a bucket it will not pop from, so pushes made before it
  /// resumes still park instead of landing in the heap. `live(entry)`
  /// identifies tombstones to drop on release. Returns true when the near
  /// band is non-empty afterwards.
  /// Correctness: release only runs with the near band empty, every entry
  /// of bucket b satisfies b·width <= when < (b+1)·width, and releasing
  /// bucket b advances the threshold to exactly (b+1)·width — so the
  /// admitted set is a (when, seq)-prefix of the parked set and the global
  /// pop order is exactly the single-heap order.
  template <typename Live>
  bool refill(const Live& live, SimTime until) {
    while (near_empty()) {
      if (next_bucket_ >= buckets_.size()) {
        if (!rebase_overflow(live)) return false;
        continue;
      }
      if (static_cast<double>(next_bucket_) * bucket_width_ > until) {
        return false;
      }
      // The threshold advances past every bucket walked, empty ones too,
      // so no later push can land in a bucket already passed; and it does
      // so before the entries move, so the banding invariant holds at
      // every intermediate state.
      std::vector<Entry>& bucket = buckets_[next_bucket_];
      ++next_bucket_;
      far_threshold_ =
          static_cast<double>(next_bucket_) * bucket_width_;  // exact
      if (bucket.empty()) continue;
      far_count_ -= bucket.size();
      std::erase_if(bucket, [&](const Entry& e) { return !live(e); });
      sort_into_run(bucket,
                    static_cast<double>(next_bucket_ - 1) * bucket_width_);
      std::vector<Entry>().swap(bucket);  // the husk keeps no storage
    }
    return true;
  }

  /// Erase every non-live entry from all bands and rebuild the heap.
  /// Rebuilding cannot reorder firing: (when, seq) is a strict total
  /// order, so any valid heap over the surviving entries pops identically,
  /// and filtering the run keeps it sorted.
  template <typename Live>
  void compact(const Live& live) {
    const auto dead = [&](const Entry& e) { return !live(e); };
    std::erase_if(heap_, dead);
    // The consumed prefix goes too: a popped entry can still test live.
    const auto unconsumed =
        run_.begin() + static_cast<std::ptrdiff_t>(run_pos_);
    run_.erase(std::remove_if(unconsumed, run_.end(), dead), run_.end());
    run_.erase(run_.begin(), unconsumed);
    run_pos_ = 0;
    far_count_ = 0;
    // Buckets below next_bucket_ are released or skipped husks, all empty.
    for (std::size_t b = next_bucket_; b < buckets_.size(); ++b) {
      std::erase_if(buckets_[b], dead);
      far_count_ += buckets_[b].size();
    }
    std::erase_if(overflow_, dead);
    far_count_ += overflow_.size();
    heapify();
  }

  /// Compaction trigger: compact once the queue holds at least this many
  /// entries and tombstones outnumber live ones.
  static constexpr std::size_t kCompactMinEntries = 64;

  /// Compact when the trigger holds for `live_count` live entries, so the
  /// garbage stays under ~2x the live count; returns whether it compacted.
  template <typename Live>
  bool maybe_compact(std::size_t live_count, const Live& live) {
    const std::size_t held = entries();
    if (held < kCompactMinEntries || held - live_count <= live_count) {
      return false;
    }
    compact(live);
    return true;
  }

  /// Total entries held (live + tombstones awaiting lazy removal).
  std::size_t entries() const {
    return heap_.size() + (run_.size() - run_pos_) + far_count_;
  }
  SimTime far_threshold() const { return far_threshold_; }

 private:
  /// Replace the run with `bucket`'s entries, all in the bucket starting
  /// at `start`, sorted on (when, seq). One counting pass places the
  /// entries slice by slice over ~n/2 equal-width time slices of the
  /// bucket; the slice index is monotone in `when`, so sorting each slice
  /// on its own sorts the run. Flip times spread over the bucket leave a
  /// few entries per slice, which makes the pass linear; entries sharing
  /// one instant share a slice, which costs at most one std::sort of them.
  void sort_into_run(const std::vector<Entry>& bucket, SimTime start) {
    const std::size_t n = bucket.size();
    const std::size_t slices = std::bit_floor(std::max<std::size_t>(n / 2, 1));
    // start <= when for every entry (bucket_width_ is a power of two), so
    // the product is >= 0.
    const double scale = static_cast<double>(slices) / bucket_width_;
    const auto slice_of = [&](const Entry& e) {
      return std::min(static_cast<std::size_t>((e.when - start) * scale),
                      slices - 1);
    };
    // 32-bit offsets halve the array both passes index at random; a
    // bucket holds far fewer than 2^32 entries.
    std::vector<std::uint32_t> cursor(slices, 0);
    for (const Entry& e : bucket) ++cursor[slice_of(e)];
    std::uint32_t begin = 0;
    for (std::uint32_t& count : cursor) begin += std::exchange(count, begin);
    run_.resize(n);
    run_pos_ = 0;
    for (const Entry& e : bucket) run_[cursor[slice_of(e)]++] = e;
    // cursor[s] is now slice s's end; slice s begins where s - 1 ends.
    auto first = run_.begin();
    for (const std::uint32_t end : cursor) {
      const auto last = run_.begin() + static_cast<std::ptrdiff_t>(end);
      std::sort(first, last,
                [](const Entry& a, const Entry& b) { return earlier(a, b); });
      first = last;
    }
  }

  /// The run head is the near band's earliest entry.
  bool run_leads() const {
    return run_pos_ < run_.size() &&
           (heap_.empty() || earlier(run_[run_pos_], heap_.front()));
  }

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

  /// Near band, part 1: the last released bucket, live entries sorted on
  /// (when, seq); run_[run_pos_] is the next unconsumed entry.
  std::vector<Entry> run_;
  std::size_t run_pos_ = 0;
  /// Near band, part 2: 4-ary implicit min-heap ordered by earlier() for
  /// entries pushed below the threshold after a release — shallower than
  /// a binary heap (log₄ levels), so a sift touches half the cache lines.
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
