// Unit tests for the sharded simulator's conservative-window executor
// (src/sim/shard_exec.*): window formation, barrier merge ordering, the
// serial fallback when the lookahead horizon collapses, and the
// ScheduleAfter clock-centralization regression.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace laminar {
namespace {

ShardOptions Opts(int shards, double lookahead, int workers = 0) {
  ShardOptions o;
  o.num_shards = shards;
  o.num_workers = workers;
  o.lookahead_seconds = lookahead;
  return o;
}

TEST(ShardExecTest, WindowsFormWhenLookaheadAdmitsParallelLanes) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  // Both lanes run in one window, on different workers when there are two,
  // so the shared counter must be atomic.
  std::atomic<int> executed = 0;
  for (int shard = 1; shard <= 2; ++shard) {
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAtOn(shard, SimTime(1.0 + i), [&executed] { ++executed; });
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(executed.load(), 16);
  EXPECT_EQ(sim.executed_events(), 16u);
  EXPECT_GT(sim.shard_windows(), 0u);
  EXPECT_GT(sim.shard_window_events(), 0u);
}

TEST(ShardExecTest, CollapsedHorizonFallsBackToSerial) {
  Simulator sim;
  ShardOptions o = Opts(2, /*lookahead=*/1e-9);
  o.min_window_seconds = 1.0;  // horizon < minimum width => never a window
  sim.ConfigureShards(o);
  int executed = 0;
  for (int shard = 1; shard <= 2; ++shard) {
    for (int i = 0; i < 8; ++i) {
      sim.ScheduleAtOn(shard, SimTime(1.0 + i), [&executed] { ++executed; });
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(executed, 16);
  EXPECT_EQ(sim.shard_windows(), 0u);
  EXPECT_EQ(sim.shard_serial_steps(), 16u);
}

// Staged effects (RunOrStage from window events) replay in global (time,
// rank) order at the barrier — interleaved lanes come out time-sorted, and
// a same-time pair keeps scheduling order.
TEST(ShardExecTest, BarrierMergeReplaysEffectsInTimeOrder) {
  Simulator sim;
  sim.ConfigureShards(Opts(4, /*lookahead=*/100.0));
  std::vector<double> order;
  for (int shard = 1; shard <= 4; ++shard) {
    for (int i = 0; i < 6; ++i) {
      double t = 0.25 * shard + i;  // interleaved across lanes
      sim.ScheduleAtOn(shard, SimTime(t), [&sim, &order, t] {
        sim.RunOrStage([&order, t] { order.push_back(t); });
      });
    }
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 24u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]) << "at " << i;
  }
  EXPECT_EQ(sim.shard_actions_replayed(), 24u);
}

TEST(ShardExecTest, SameTimeEffectsKeepSchedulingOrder) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  std::vector<int> order;
  // Both events at t=1.0; the lane-1 event was scheduled first, so its
  // staged effect must replay first (serial tie-break = scheduling order).
  sim.ScheduleAtOn(1, SimTime(1.0), [&] {
    sim.RunOrStage([&order] { order.push_back(1); });
    sim.RunOrStage([&order] { order.push_back(2); });
  });
  sim.ScheduleAtOn(2, SimTime(1.0), [&] {
    sim.RunOrStage([&order] { order.push_back(3); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Satellite regression: ScheduleAfter inside a window event computes the
// deadline against the executing lane's own clock, never the control lane's
// (which lags at the window floor).
TEST(ShardExecTest, ScheduleAfterUsesLaneLocalClockInsideWindows) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  std::vector<double> fire_times;
  sim.ScheduleAtOn(1, SimTime(5.0), [&] {
    // Same-lane follow-up: must land at 5.0 + 2.0, not Now()-of-lane-0 + 2.
    sim.ScheduleAfter(2.0, [&] { fire_times.push_back(sim.Now().seconds()); });
  });
  sim.ScheduleAtOn(2, SimTime(1.0), [] {});  // keeps lane 2 busy at the floor
  sim.RunUntilIdle();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 7.0);
}

// Cross-lane schedules staged from a window land on the target lane and run
// at their exact timestamp once they clear the lookahead horizon.
TEST(ShardExecTest, CrossLaneScheduleBeyondHorizonIsDelivered) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/1.0));
  std::vector<std::string> log;
  sim.ScheduleAtOn(1, SimTime(1.0), [&] {
    sim.ScheduleAtOn(2, SimTime(10.0), [&] {
      log.push_back("cross@" + std::to_string(sim.Now().seconds()));
    });
  });
  sim.ScheduleAtOn(2, SimTime(1.5), [&] { log.push_back("local"); });
  sim.RunUntilIdle();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "local");
  EXPECT_EQ(log[1], "cross@10.000000");
}

// The control lane's next event fences every window: replica-lane events at
// later times must not execute before it, which staged effects make
// observable.
TEST(ShardExecTest, ControlLaneEventFencesWindows) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  std::vector<std::string> order;
  sim.ScheduleAt(SimTime(3.0), [&] { order.push_back("control@3"); });
  for (int i = 1; i <= 6; ++i) {
    sim.ScheduleAtOn(1 + i % 2, SimTime(static_cast<double>(i)), [&order, i] {});
    sim.ScheduleAtOn(1 + i % 2, SimTime(static_cast<double>(i)),
                     [&sim, &order, i] {
                       sim.RunOrStage([&order, i] {
                         order.push_back("replica@" + std::to_string(i));
                       });
                     });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order[0], "replica@1");
  EXPECT_EQ(order[1], "replica@2");
  EXPECT_EQ(order[2], "control@3");  // fence honoured despite wide lookahead
  EXPECT_EQ(order[3], "replica@3");  // control event outranks same-time lanes
}

// Rearm (PeriodicTask-style) inside window events keeps firing on the lane.
TEST(ShardExecTest, RearmInsideWindowStaysOnLane) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  int fires = 0;
  sim.ScheduleAtOn(1, SimTime(1.0), [&] {
    ++fires;
    if (fires < 5) {
      sim.RearmCurrentAfter(1.0);
    }
  });
  sim.ScheduleAtOn(2, SimTime(0.5), [] {});
  sim.RunUntilIdle();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.executed_events(), 6u);
}

// An event budget must cut at exactly the same event as a serial run, so
// budgeted RunUntilTrue never opens windows.
TEST(ShardExecTest, BudgetedRunStaysSerial) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  int executed = 0;
  for (int shard = 1; shard <= 2; ++shard) {
    for (int i = 0; i < 10; ++i) {
      sim.ScheduleAtOn(shard, SimTime(1.0 + i), [&executed] { ++executed; });
    }
  }
  bool done = sim.RunUntilTrue([] { return false; }, /*max_events=*/7);
  EXPECT_FALSE(done);
  EXPECT_EQ(executed, 7);
  EXPECT_EQ(sim.shard_windows(), 0u);
}

// Worker threads produce the same replay order as inline execution.
TEST(ShardExecTest, WorkerThreadsMatchInlineExecution) {
  auto run = [](int workers) {
    Simulator sim;
    sim.ConfigureShards(Opts(4, /*lookahead=*/100.0, workers));
    std::vector<double> order;
    for (int shard = 1; shard <= 4; ++shard) {
      for (int i = 0; i < 16; ++i) {
        double t = 0.1 * shard + i;
        sim.ScheduleAtOn(shard, SimTime(t), [&sim, &order, t] {
          sim.RunOrStage([&order, t] { order.push_back(t); });
        });
      }
    }
    sim.RunUntilIdle();
    return order;
  };
  EXPECT_EQ(run(0), run(3));
}

TEST(ShardExecTest, PendingAndCancelAcrossLanes) {
  Simulator sim;
  sim.ConfigureShards(Opts(2, /*lookahead=*/100.0));
  int fired = 0;
  EventId keep = sim.ScheduleAtOn(1, SimTime(1.0), [&fired] { ++fired; });
  EventId kill = sim.ScheduleAtOn(2, SimTime(1.0), [&fired] { ++fired; });
  EXPECT_TRUE(sim.IsPending(keep));
  EXPECT_TRUE(sim.IsPending(kill));
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.Cancel(kill));
  EXPECT_FALSE(sim.IsPending(kill));
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.IsPending(keep));
}

}  // namespace
}  // namespace laminar
