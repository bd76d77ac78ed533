// Unit tests for the discrete-event simulation core: ordering,
// cancellation, periodic tasks, determinism.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace wavm3::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  sim.run_to_completion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] { sim.schedule_in(1.5, [&] { fired_at = sim.now(); }); });
  sim.run_to_completion();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulator, CannotScheduleIntoPast) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run_to_completion();
  EXPECT_THROW(sim.schedule_at(0.5, [] {}), util::ContractError);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run_to_completion();
  EXPECT_FALSE(fired);
}

TEST(Simulator, PendingCountTracksLifecycle) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_to_completion();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  std::vector<double> fired;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(static_cast<double>(i), [&fired, &sim] { fired.push_back(sim.now()); });
  sim.run_until(3.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, PeriodicFiresAtFixedCadence) {
  Simulator sim;
  std::vector<double> ticks;
  auto handle = sim.schedule_periodic(0.0, 0.5, [&] { ticks.push_back(sim.now()); });
  sim.schedule_at(2.6, [&handle] { handle.cancel(); });
  sim.run_to_completion();
  ASSERT_EQ(ticks.size(), 6u);  // 0, 0.5, 1, 1.5, 2, 2.5
  for (std::size_t i = 0; i < ticks.size(); ++i)
    EXPECT_DOUBLE_EQ(ticks[i], 0.5 * static_cast<double>(i));
}

TEST(Simulator, PeriodicCancelFromInsideCallback) {
  Simulator sim;
  int count = 0;
  Simulator::PeriodicHandle handle;
  handle = sim.schedule_periodic(0.0, 1.0, [&] {
    if (++count == 3) handle.cancel();
  });
  sim.run_to_completion();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicCallbackIsFreed) {
  // Whatever the callback owns is released once the periodic task ends
  // (cancelled, then drained) or its simulator goes away with it still
  // queued.
  auto owned = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = owned;
  {
    Simulator sim;
    auto handle = sim.schedule_periodic(0.0, 1.0, [owned] { ++*owned; });
    sim.schedule_at(2.5, [&handle] { handle.cancel(); });
    sim.run_to_completion();
    EXPECT_EQ(*owned, 3);
    owned.reset();
    EXPECT_TRUE(watch.expired());
  }
  owned = std::make_shared<int>(0);
  const std::weak_ptr<int> queued = owned;
  {
    Simulator sim;
    sim.schedule_periodic(0.0, 1.0, [owned] { ++*owned; });
    sim.run_until(1.5);
    owned.reset();
  }
  EXPECT_TRUE(queued.expired());
}

TEST(Simulator, RunToCompletionCapsRunaway) {
  Simulator sim;
  sim.schedule_periodic(0.0, 0.001, [] {});  // never cancelled
  EXPECT_THROW(sim.run_to_completion(1000), util::ContractError);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.schedule_in(0.1, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run_to_completion();
  EXPECT_EQ(depth, 50);
  EXPECT_NEAR(sim.now(), 4.9, 1e-9);
}

}  // namespace
}  // namespace wavm3::sim
