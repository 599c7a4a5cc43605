// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

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

}  // namespace
}  // namespace lattice::sim
