// Unit tests for the discrete-event simulation kernel, its banded queue
// and the keyed pool calendar.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/band_queue.hpp"
#include "sim/calendar.hpp"
#include "sim/event_fn.hpp"
#include "sim/simulation.hpp"

namespace lattice::sim {
namespace {

TEST(Simulation, FiresEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(5.0, [&] { order.push_back(2); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(9.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(Simulation, EqualTimesFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(3.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, AfterSchedulesRelativeToNow) {
  Simulation sim;
  double fired_at = -1.0;
  sim.at(10.0, [&] {
    sim.after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulation, PastEventsClampToNow) {
  Simulation sim;
  double fired_at = -1.0;
  sim.at(10.0, [&] {
    sim.at(2.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(Sim, RejectsNonFiniteEventTime) {
  Simulation sim;
  sim.at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.at(-std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(sim.after(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_EQ(sim.pending(), 0u);
  // A finite past time still clamps to now.
  sim.at(5.0, [] {});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, RunUntilStopsAtHorizon) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  sim.at(3.0, [&] { ++fired; });
  EXPECT_EQ(sim.run(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.empty());
  sim.run();
  EXPECT_EQ(fired, 3);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  auto handle = sim.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation sim;
  auto handle = sim.at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(Simulation, DoubleCancelReturnsFalse) {
  Simulation sim;
  auto handle = sim.at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));
  sim.run();
}

TEST(Simulation, EmptyHandleCancelIsFalse) {
  Simulation sim;
  EventHandle handle;
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(Simulation, StepFiresExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsScheduledDuringRunAreFired) {
  Simulation sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 100) sim.after(1.0, next);
  };
  sim.at(0.0, next);
  sim.run();
  EXPECT_EQ(chain, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulation, PendingCountsLiveEvents) {
  Simulation sim;
  auto a = sim.at(1.0, [] {});
  sim.at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, CancelReleasesCapturedStateEagerly) {
  // ISSUE 4 satellite: a cancelled event must not pin its captured state
  // (job payloads, host references) until the tombstone surfaces.
  Simulation sim;
  auto payload = std::make_shared<int>(42);
  auto handle = sim.at(1e6, [payload] { (void)*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_EQ(payload.use_count(), 1);  // released at cancel, not at fire
  sim.run();
}

TEST(Simulation, CompactionBoundsTombstonesAndPreservesOrder) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(sim.at(1000.0 - i, [&order, i] { order.push_back(i); }));
  }
  // Cancel 90%: the dead fraction crosses 1/2, so the heap must compact.
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 != 0) sim.cancel(handles[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 100u);
  EXPECT_GE(sim.compactions(), 1u);
  EXPECT_LE(sim.dead_entries(), sim.pending());
  sim.run();
  // Survivors fire in time order: times were 1000-i, so descending i.
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_GT(order[k - 1], order[k]);
  }
}

TEST(Simulation, PeakPendingTracksHighWaterMark) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.at(static_cast<double>(i), [] {});
  EXPECT_EQ(sim.peak_pending(), 5u);
  sim.run();
  EXPECT_EQ(sim.peak_pending(), 5u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventFn, InlinesSmallCapturesAndBoxesLarge) {
  int hits = 0;
  auto small = [&hits] { ++hits; };
  static_assert(EventFn::fits_inline<decltype(small)>());
  EventFn small_fn(small);
  small_fn();
  EXPECT_EQ(hits, 1);

  std::array<double, 16> big_payload{};
  big_payload[7] = 7.5;
  double sum = 0.0;
  auto big = [big_payload, &sum] { sum += big_payload[7]; };
  static_assert(!EventFn::fits_inline<decltype(big)>());
  EventFn big_fn(big);
  EventFn moved(std::move(big_fn));  // boxed closures move by pointer
  moved();
  EXPECT_DOUBLE_EQ(sum, 7.5);
}

TEST(EventFn, MoveTransfersOwnershipAndResetReleases) {
  auto payload = std::make_shared<int>(1);
  EventFn fn([payload] { (void)payload; });
  EXPECT_EQ(payload.use_count(), 2);
  EventFn other(std::move(fn));
  EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move) — asserting the moved-from contract
  EXPECT_TRUE(other);
  EXPECT_EQ(payload.use_count(), 2);
  other.reset();
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(PeriodicTask, FiresAtFixedInterval) {
  Simulation sim;
  std::vector<double> times;
  PeriodicTask task(sim, 1.0, 2.0, [&] { times.push_back(sim.now()); });
  sim.run(7.0);
  task.stop();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0, 7.0}));
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 0.0, 1.0, [&] {
    if (++count == 3) task.stop();
  });
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DestructorCancels) {
  Simulation sim;
  int count = 0;
  {
    PeriodicTask task(sim, 0.0, 1.0, [&] { ++count; });
    sim.run(2.0);
  }
  sim.run();
  EXPECT_EQ(count, 3);  // t=0,1,2 then destroyed
}

// --- TwoBandQueue against an ordered-set reference -------------------------

struct QueueEntry {
  SimTime when;
  std::uint64_t seq;
};

/// Drives a TwoBandQueue and a std::set ordered on (when, seq) through the
/// same operations. As in the pool calendar, a popped entry still tests
/// live: only a kill makes it a tombstone, so compaction must drop the
/// consumed part of the run by position.
class QueueHarness {
 public:
  static constexpr SimTime kWidth = 8.0;  // a power of two: exact buckets
  using Queue = TwoBandQueue<QueueEntry>;

  QueueHarness() : queue_(kWidth) {}

  void push(SimTime when) {
    const QueueEntry entry{when, next_seq_++};
    alive_.push_back(1);
    held_at_.push_back(held_.size());
    held_.push_back(entry);
    queue_.push(entry);
    reference_.emplace(entry.when, entry.seq);
  }

  /// Tombstone a held entry (`index` is taken modulo the held count).
  void kill(std::size_t index) {
    const QueueEntry entry = held_[index % held_.size()];
    alive_[entry.seq] = 0;
    reference_.erase({entry.when, entry.seq});
    forget(entry.seq);
  }

  void compact() {
    queue_.compact(live());
    EXPECT_EQ(queue_.entries(), reference_.size());
  }

  /// Pop every live entry due by `until`, as Simulation::run does, and
  /// check each against the reference's minimum.
  void drain(SimTime until) {
    while (!queue_.near_empty() || queue_.refill(live(), until)) {
      const QueueEntry entry = queue_.front();
      if (alive_[entry.seq] == 0) {
        queue_.pop_front();
        continue;
      }
      if (entry.when > until) break;
      queue_.pop_front();
      ASSERT_FALSE(reference_.empty());
      ASSERT_EQ(std::make_pair(entry.when, entry.seq), *reference_.begin())
          << "popped (" << entry.when << ", " << entry.seq << ")";
      reference_.erase(reference_.begin());
      forget(entry.seq);
      ++popped_;
    }
    // Nothing due by `until` may be left behind.
    if (!reference_.empty()) {
      ASSERT_GT(reference_.begin()->first, until);
    }
    ASSERT_GE(queue_.far_threshold(), last_threshold_);
    last_threshold_ = queue_.far_threshold();
    ASSERT_GE(queue_.entries(), reference_.size());
  }

  std::size_t live_count() const { return held_.size(); }
  std::uint64_t popped() const { return popped_; }
  /// The `when` of a held entry (`index` modulo the held count).
  SimTime live_when(std::size_t index) const {
    return held_[index % held_.size()].when;
  }

 private:
  /// Drop a popped or killed entry from held_ (swap with the last).
  void forget(std::uint64_t seq) {
    const std::size_t at = held_at_[seq];
    held_[at] = held_.back();
    held_at_[held_[at].seq] = at;
    held_.pop_back();
  }

  struct Live {
    const std::vector<std::uint8_t>* alive;
    bool operator()(const QueueEntry& e) const { return (*alive)[e.seq] != 0; }
  };
  Live live() const { return Live{&alive_}; }

  Queue queue_;
  std::vector<std::uint8_t> alive_{0};  // by seq; seq 0 is never used
  /// Entries pushed and neither popped nor killed, in no order, and each
  /// one's index there by seq: O(1) random picks.
  std::vector<QueueEntry> held_;
  std::vector<std::size_t> held_at_{0};
  std::set<std::pair<SimTime, std::uint64_t>> reference_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t popped_ = 0;
  SimTime last_threshold_ = 0.0;
};

TEST(TwoBandQueue, RandomOperationsMatchOrderedSetReference) {
  constexpr SimTime kWidth = QueueHarness::kWidth;
  constexpr auto kSpan = static_cast<double>(QueueHarness::Queue::kBucketSpan);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto uniform = [&rng](double lo, double hi) {
      return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto below = [&rng](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    QueueHarness harness;
    SimTime now = 0.0;
    for (int op = 0; op < 4000; ++op) {
      const std::size_t pick = below(100);
      if (pick < 25) {
        // Near future: mostly into the released bucket, behind or ahead
        // of the run cursor, so late pushes interleave with the run.
        harness.push(now + uniform(0.0, 2.0 * kWidth));
      } else if (pick < 35) {
        harness.push(now + uniform(0.0, 40.0 * kWidth));  // far buckets
      } else if (pick < 42) {
        // Exactly on a bucket boundary, often the next one to release.
        harness.push(kWidth * std::floor(now / kWidth + 1.0 +
                                         static_cast<double>(below(4))));
      } else if (pick < 50 && harness.live_count() > 0) {
        // Equal `when`: ties must break on seq across run and heap.
        harness.push(harness.live_when(below(harness.live_count())));
      } else if (pick < 53) {
        harness.push(now);
      } else if (pick < 56) {
        // Past the bucketed span: parks in the overflow band.
        harness.push(now + kWidth * (kSpan + uniform(0.0, 2.0 * kSpan)));
      } else if (pick < 57) {
        // A dense bucket: exercises the sort's slice distribution, with
        // a few repeated instants among the spread ones.
        const SimTime start = kWidth * std::floor(now / kWidth + 2.0);
        const std::size_t count = 64 + below(256);
        for (std::size_t i = 0; i < count; ++i) {
          harness.push(i % 16 == 0 ? start + kWidth / 2.0
                                   : start + uniform(0.0, kWidth));
        }
      } else if (pick < 70 && harness.live_count() > 0) {
        harness.kill(below(harness.live_count()));
      } else if (pick < 72) {
        harness.compact();
      } else {
        const std::size_t how = below(10);
        if (how < 6) {
          now += uniform(0.0, 3.0 * kWidth);
        } else if (how < 8) {
          now = kWidth * std::ceil(now / kWidth + 0.5);  // on a boundary
        } else if (how < 9 && harness.live_count() > 0) {
          now = std::max(now, harness.live_when(below(harness.live_count())));
        } else {
          now += uniform(0.0, 100.0 * kWidth);
        }
        harness.drain(now);
      }
      if (testing::Test::HasFatalFailure()) return;
    }
    harness.drain(std::numeric_limits<SimTime>::infinity());
    EXPECT_EQ(harness.live_count(), 0u);
    EXPECT_GT(harness.popped(), 1000u);
  }
}

TEST(TwoBandQueue, SkipsAllTombstoneBuckets) {
  constexpr SimTime kWidth = QueueHarness::kWidth;
  QueueHarness harness;
  // Buckets 3..9 hold only entries that die before release; bucket 10
  // holds the survivors.
  for (int b = 3; b < 10; ++b) {
    for (int i = 0; i < 50; ++i) harness.push(kWidth * (b + i / 50.0));
  }
  while (harness.live_count() > 0) harness.kill(0);
  for (int i = 0; i < 5; ++i) harness.push(kWidth * (10 + i / 5.0));
  harness.drain(kWidth * 9.5);  // the tombstones release nothing due
  EXPECT_EQ(harness.popped(), 0u);
  harness.drain(kWidth * 11.0);
  EXPECT_EQ(harness.popped(), 5u);
}

TEST(TwoBandQueue, PushBehindACompactedAwayBucketStillPops) {
  constexpr SimTime kWidth = QueueHarness::kWidth;
  QueueHarness harness;
  // The only far entry dies and compaction empties its bucket, so a
  // refill walks past every bucket without releasing one; the threshold
  // must follow, or a later push into a walked-past bucket is stranded.
  harness.push(kWidth * 10.5);
  harness.kill(0);
  harness.compact();
  harness.drain(std::numeric_limits<SimTime>::infinity());
  harness.push(kWidth * 2.5);
  harness.drain(std::numeric_limits<SimTime>::infinity());
  EXPECT_EQ(harness.popped(), 1u);
}

TEST(TwoBandQueue, EqualTimesMergeRunAndHeapInSeqOrder) {
  constexpr SimTime kWidth = QueueHarness::kWidth;
  QueueHarness harness;
  const SimTime tie = kWidth * 5.5;
  // Many entries share `tie` and a bucket boundary: the released bucket's
  // sort must order them by seq.
  for (int i = 0; i < 200; ++i) {
    harness.push(i % 2 == 0 ? tie : kWidth * 5.0);
  }
  harness.drain(kWidth * 5.25);  // releases bucket 5, pops the boundary ties
  EXPECT_EQ(harness.popped(), 100u);
  // Late pushes at the same instant land in the heap behind the run.
  for (int i = 0; i < 20; ++i) harness.push(tie);
  harness.drain(tie);
  EXPECT_EQ(harness.popped(), 220u);
  EXPECT_EQ(harness.live_count(), 0u);
}

// --- Calendar against a round-replaying reference ---------------------------

/// Reference pool calendar: a std::set of (when, seq, key) plus per-key
/// epochs. advance() replays the documented rounds literally: take every
/// entry due by the barrier, then fire them in (when, seq) order, and
/// repeat while anything is due.
class ReferenceCalendar {
 public:
  explicit ReferenceCalendar(std::size_t keys) : slots_(keys) {}

  void schedule(SimTime when, std::uint32_t key) {
    cancel(key);
    const std::uint64_t seq = next_seq_++;
    slots_[key].pending = queue_.emplace(when, seq, key).first;
    slots_[key].armed = true;
  }
  void cancel(std::uint32_t key) {
    ++slots_[key].epoch;
    if (slots_[key].armed) queue_.erase(slots_[key].pending);
    slots_[key].armed = false;
  }

  template <typename Fire, typename Prefetch>
  void advance(SimTime now, Fire&& fire, Prefetch&& /*prefetch*/) {
    for (;;) {
      std::vector<std::tuple<SimTime, std::uint32_t, std::uint64_t>> round;
      while (!queue_.empty() && std::get<0>(*queue_.begin()) <= now) {
        const auto [when, seq, key] = *queue_.begin();
        round.emplace_back(when, key, slots_[key].epoch);
        slots_[key].armed = false;
        queue_.erase(queue_.begin());
      }
      if (round.empty()) return;
      ++rounds_;
      for (const auto& [when, key, epoch] : round) {
        if (slots_[key].epoch != epoch) continue;
        ++fired_;
        fire(key, when);
      }
    }
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t rounds() const { return rounds_; }

 private:
  using Queue = std::set<std::tuple<SimTime, std::uint64_t, std::uint32_t>>;
  struct Slot {
    Queue::iterator pending;
    bool armed = false;
    std::uint64_t epoch = 0;
  };
  Queue queue_;
  std::vector<Slot> slots_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
  std::uint64_t rounds_ = 0;
};

struct Fired {
  std::uint64_t round;
  std::uint32_t key;
  SimTime when;
  bool operator==(const Fired&) const = default;
};

/// One scripted calendar run: random arms and cancels between barriers,
/// and handlers that re-arm their own key before, at and past the
/// barrier. Returns every fire as (round, key, when).
template <typename Cal>
std::vector<Fired> run_calendar_script(Cal& cal, std::uint64_t seed) {
  constexpr std::uint32_t kKeys = 96;
  constexpr SimTime kWidth = 8.0;  // the calendar's bucket width
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  std::vector<Fired> log;
  SimTime now = 0.0;
  for (std::uint32_t key = 0; key < kKeys; ++key) {
    cal.schedule(uniform(0.0, 30.0 * kWidth), key);
  }
  const auto fire = [&](std::uint32_t key, SimTime when) {
    log.push_back({cal.rounds(), key, when});
    const std::uint64_t pick = below(10);
    if (pick < 3) {
      cal.schedule(when + uniform(0.0, 3.0 * kWidth), key);  // often due
    } else if (pick < 4) {
      cal.schedule(now, key);  // exactly at the barrier
    } else if (pick < 5) {
      cal.schedule(when, key);  // the same instant, next round
    } else if (pick < 9) {
      cal.schedule(now + uniform(0.0, 20.0 * kWidth), key);
    }  // else: the key stays unarmed until the script re-arms it
  };
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t pick = below(10);
    if (pick < 3) {
      cal.schedule(now + uniform(0.0, 10.0 * kWidth),
                   static_cast<std::uint32_t>(below(kKeys)));
    } else if (pick < 4) {
      cal.cancel(static_cast<std::uint32_t>(below(kKeys)));
    } else {
      now += below(4) == 0 ? kWidth * std::ceil(now / kWidth + 0.5) - now
                           : uniform(0.0, 2.0 * kWidth);
      cal.advance(now, fire, [](std::uint32_t) {});
    }
  }
  return log;
}

TEST(Calendar, MatchesRoundReplayingReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Calendar calendar(8.0);
    calendar.ensure_keys(96);
    ReferenceCalendar reference(96);
    const std::vector<Fired> got = run_calendar_script(calendar, seed);
    const std::vector<Fired> want = run_calendar_script(reference, seed);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "fire " << i << ": got (round " << got[i].round << ", key "
          << got[i].key << ", when " << got[i].when << "), want (round "
          << want[i].round << ", key " << want[i].key << ", when "
          << want[i].when << ")";
    }
    EXPECT_EQ(calendar.fired(), reference.fired());
    EXPECT_EQ(calendar.rounds(), reference.rounds());
    EXPECT_GT(calendar.rounds(), 1000u);
  }
}

}  // namespace
}  // namespace lattice::sim
