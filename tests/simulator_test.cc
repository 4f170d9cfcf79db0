#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/channel.h"

namespace laminar {
namespace {

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime(3.0), [&] { order.push_back(3); });
  sim.ScheduleAt(SimTime(1.0), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime(2.0), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 3.0);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(SimTime(1.0), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// Equal-time events fire in scheduling order whichever way they were
// scheduled: from a callback, from top-level code between two Step() calls,
// or by re-arming the running event.
TEST(SimulatorTest, TiesBreakInSchedulingOrderAcrossContexts) {
  Simulator sim;
  std::vector<int> order;
  auto record = [&order](int label) { return [&order, label] { order.push_back(label); }; };
  const SimTime tie(5.0);
  sim.ScheduleAt(SimTime(1.0), [&] { sim.ScheduleAt(tie, record(0)); });
  bool rearmed = false;
  sim.ScheduleAt(SimTime(2.0), [&] {
    if (rearmed) {
      order.push_back(3);
      return;
    }
    rearmed = true;
    sim.ScheduleAt(tie, record(2));
    sim.RearmCurrentAfter(3.0);
    sim.ScheduleAt(tie, record(4));
  });
  sim.ScheduleAt(SimTime(3.0), [&] { sim.ScheduleAt(tie, record(6)); });
  ASSERT_TRUE(sim.Step());  // t=1: schedules 0 from a callback
  sim.ScheduleAt(tie, record(1));
  ASSERT_TRUE(sim.Step());  // t=2: schedules 2, re-arms itself as 3, then 4
  sim.ScheduleAt(tie, record(5));
  ASSERT_TRUE(sim.Step());  // t=3: schedules 6 from a callback
  sim.ScheduleAt(tie, record(7));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleAt(SimTime(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.IsPending(id));
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double cancel is a no-op
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(SimTime(i), [&] { ++count; });
  }
  sim.RunUntil(SimTime(5.5));
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 5.5);
  sim.RunUntilIdle();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      sim.ScheduleAfter(0.5, chain);
    }
  };
  sim.ScheduleAfter(0.5, chain);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 50.0);
}

TEST(SimulatorTest, RunUntilTrueStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.ScheduleAt(SimTime(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.RunUntilTrue([&] { return count == 3; }));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.RunUntilTrue([&] { return count == 99; }));
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  double at = -1.0;
  sim.ScheduleAt(SimTime(2.0), [&] {
    sim.ScheduleAfter(0.0, [&] { at = sim.Now().seconds(); });
  });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(at, 2.0);
}

TEST(PeriodicTaskTest, FiresAtPeriodUntilStopped) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 2.0, [&] { ++ticks; });
  task.Start();
  sim.RunUntil(SimTime(9.0));
  EXPECT_EQ(ticks, 4);  // t = 2, 4, 6, 8
  task.Stop();
  sim.RunUntil(SimTime(20.0));
  EXPECT_EQ(ticks, 4);
}

TEST(PeriodicTaskTest, StopInsideCallbackHalts) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(&sim, 1.0, [&] { ++ticks; });
  PeriodicTask* ptr = &task;
  PeriodicTask stopper(&sim, 3.5, [&, ptr] { ptr->Stop(); });
  task.Start();
  stopper.Start();
  sim.RunUntil(SimTime(10.0));
  EXPECT_EQ(ticks, 3);
}

TEST(SimulatorTest, CancelOwnRearmInsideCallback) {
  Simulator sim;
  int fires = 0;
  EventId rearmed = kInvalidEventId;
  sim.ScheduleAfter(1.0, [&] {
    ++fires;
    rearmed = sim.RearmCurrentAfter(1.0);
    EXPECT_TRUE(sim.IsPending(rearmed));
    EXPECT_TRUE(sim.Cancel(rearmed));  // cancel while still executing
    EXPECT_FALSE(sim.IsPending(rearmed));
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Heap compaction triggered from inside a callback that has already re-armed
// itself must keep the re-armed entry (it is live, not a tombstone).
TEST(SimulatorTest, CompactionPreservesRearmedEvent) {
  Simulator sim;
  std::vector<EventId> victims;
  for (int i = 0; i < 300; ++i) {
    victims.push_back(sim.ScheduleAfter(50.0, [] {}));
  }
  int fires = 0;
  sim.ScheduleAfter(1.0, [&] {
    if (++fires == 1) {
      sim.RearmCurrentAfter(1.0);
      // Mass-cancel drives tombstones past the compaction threshold while
      // the re-armed entry sits in the heap with state kRearmed.
      for (EventId id : victims) {
        sim.Cancel(id);
      }
    }
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fires, 2);
}

// The execution trace of a run — (time, label) per fired event — must be
// bit-identical across two runs with the same seed, even under heavy
// Cancel/reschedule interleaving. This is the engine-level half of the
// determinism contract the parallel sweep (src/exp/sweep.h) relies on.
std::vector<std::pair<double, int>> CancelChurnTrace(uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  std::vector<std::pair<double, int>> trace;
  std::vector<EventId> pending;
  int next_label = 0;
  std::function<void()> spawn = [&] {
    // Fire: record, then schedule a few successors and cancel a random
    // pending event about half the time.
    trace.emplace_back(sim.Now().seconds(), next_label);
    int n = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < n; ++i) {
      ++next_label;
      pending.push_back(sim.ScheduleAfter(rng.Uniform(0.0, 5.0), spawn));
    }
    if (!pending.empty() && rng.Bernoulli(0.5)) {
      size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(pending.size()) - 1));
      sim.Cancel(pending[victim]);
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(victim));
    }
  };
  for (int i = 0; i < 64; ++i) {
    pending.push_back(sim.ScheduleAfter(rng.Uniform(0.0, 5.0), spawn));
  }
  sim.RunUntilIdle(20000);
  return trace;
}

TEST(SimulatorTest, ExecutionOrderIsBitIdenticalAcrossRuns) {
  auto a = CancelChurnTrace(42);
  auto b = CancelChurnTrace(42);
  ASSERT_GT(a.size(), 1000u);
  EXPECT_EQ(a, b);
  // A different seed must produce a different interleaving (sanity check
  // that the trace actually depends on the schedule).
  EXPECT_NE(a, CancelChurnTrace(43));
}

// Cancelled events leave tombstones in the heap but must release their pool
// slot immediately; sustained schedule/cancel churn may not grow the slab or
// let tombstones accumulate without bound.
TEST(SimulatorTest, CancelledEventsDoNotLeakPoolSlots) {
  Simulator sim;
  Rng rng(7);
  constexpr int kBurst = 1000;
  std::vector<EventId> burst;
  for (int round = 0; round < 200; ++round) {
    burst.clear();
    for (int i = 0; i < kBurst; ++i) {
      burst.push_back(sim.ScheduleAfter(rng.Uniform(0.1, 10.0), [] {}));
    }
    for (size_t i = 0; i < burst.size(); ++i) {
      if (i % 10 != 0) {  // cancel 90%
        sim.Cancel(burst[i]);
      }
    }
    // Fire more events than each round's 100 survivors so the live
    // population stays bounded and any slab growth would be a true leak.
    sim.RunUntilIdle(200);
  }
  // Slab growth is bounded by peak simultaneously-pending events (one
  // burst plus a little backlog), not by the 200k events scheduled.
  EXPECT_LE(sim.event_pool_slots(), 4 * kBurst);
  // Tombstone compaction keeps the heap within a constant factor of the
  // live-event count.
  EXPECT_LE(sim.heap_entries(), 4 * sim.pending_events() + 128);
  sim.RunUntilIdle();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
}

TEST(SerialChannelTest, QueuesConcurrentTransfers) {
  SerialChannel ch(100.0, 0.5);  // 100 B/s, 0.5 s startup
  SimTime done1 = ch.Transfer(SimTime(0.0), 100.0);  // 0.5 + 1.0 = 1.5
  EXPECT_DOUBLE_EQ(done1.seconds(), 1.5);
  // Issued at t=0 too, but must wait for the channel.
  SimTime done2 = ch.Transfer(SimTime(0.0), 200.0);  // 1.5 + 0.5 + 2.0
  EXPECT_DOUBLE_EQ(done2.seconds(), 4.0);
  // Issued after the channel is idle again.
  SimTime done3 = ch.Transfer(SimTime(10.0), 50.0);
  EXPECT_DOUBLE_EQ(done3.seconds(), 11.0);
  EXPECT_DOUBLE_EQ(ch.bytes_carried(), 350.0);
}

TEST(SerialChannelTest, IdealDurationMatchesAlphaBeta) {
  SerialChannel ch(1e9, 1e-3);
  EXPECT_DOUBLE_EQ(ch.IdealDuration(1e9), 1.001);
  EXPECT_DOUBLE_EQ(ch.IdealDuration(0.0), 1e-3);
}

}  // namespace
}  // namespace laminar
