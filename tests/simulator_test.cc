#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/channel.h"
#include "tests/scripted_events.h"

namespace laminar {
namespace {

// Records every continuation it runs.
class Recorder : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);

  explicit Recorder(Simulator* sim) : sim_(sim) { sim_->continuations().Register(kComp, this); }
  ~Recorder() override { sim_->continuations().Unregister(kComp); }

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override {
    fired.push_back({sim_->Now().seconds(), kind, p});
  }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {
    ADD_FAILURE() << "nothing is restored here";
  }

  struct Fired {
    double t;
    uint16_t kind;
    ContinuationPayload p;
  };
  std::vector<Fired> fired;

 private:
  Simulator* sim_;
};

TEST(SimulatorTest, DispatchesDescriptorToRegisteredClient) {
  Simulator sim;
  Recorder rec(&sim);
  sim.ScheduleContinuationAt(SimTime(2.0), Recorder::kComp, 7,
                             ContinuationPayload::Of(-3, 1LL << 40, 0,
                                                     ContinuationPayload::FromF64(0.5)));
  sim.ScheduleContinuationAfter(1.0, Recorder::kComp, 0xF000);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntilIdle();
  ASSERT_EQ(rec.fired.size(), 2u);
  EXPECT_EQ(rec.fired[0].t, 1.0);
  EXPECT_EQ(rec.fired[0].kind, 0xF000);
  EXPECT_EQ(rec.fired[1].t, 2.0);
  EXPECT_EQ(rec.fired[1].kind, 7);
  EXPECT_EQ(rec.fired[1].p.a, -3);
  EXPECT_EQ(rec.fired[1].p.b, 1LL << 40);
  EXPECT_EQ(ContinuationPayload::ToF64(rec.fired[1].p.d), 0.5);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<int> order;
  script.At(SimTime(3.0), [&] { order.push_back(3); });
  script.At(SimTime(1.0), [&] { order.push_back(1); });
  script.At(SimTime(2.0), [&] { order.push_back(2); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 3.0);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    script.At(SimTime(1.0), [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// Equal-time events fire in scheduling order whichever way they were
// scheduled: from a callback, from top-level code between two Step() calls,
// or by delay from the running event.
TEST(SimulatorTest, TiesBreakInSchedulingOrderAcrossContexts) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<int> order;
  auto record = [&order](int label) { return [&order, label] { order.push_back(label); }; };
  const SimTime tie(5.0);
  script.At(SimTime(1.0), [&] { script.At(tie, record(0)); });
  script.At(SimTime(2.0), [&] {
    script.At(tie, record(2));
    script.After(3.0, record(3));
    script.At(tie, record(4));
  });
  script.At(SimTime(3.0), [&] { script.At(tie, record(6)); });
  ASSERT_TRUE(sim.Step());  // t=1: schedules 0 from a callback
  script.At(tie, record(1));
  ASSERT_TRUE(sim.Step());  // t=2: schedules 2, then 3 by delay, then 4
  script.At(tie, record(5));
  ASSERT_TRUE(sim.Step());  // t=3: schedules 6 from a callback
  script.At(tie, record(7));
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  ScriptedEvents script(&sim);
  bool fired = false;
  EventId id = script.At(SimTime(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.IsPending(id));
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double cancel is a no-op
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  ScriptedEvents script(&sim);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    script.At(SimTime(i), [&] { ++count; });
  }
  sim.RunUntil(SimTime(5.5));
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 5.5);
  sim.RunUntilIdle();
  EXPECT_EQ(count, 10);
}

// Step() retires an event's slot before running it, so a chain in which each
// event schedules its successor reuses one slot throughout.
TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  ScriptedEvents script(&sim);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      script.After(0.5, chain);
    }
  };
  script.After(0.5, chain);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 50.0);
  EXPECT_EQ(sim.event_pool_slots(), 1u);
}

TEST(SimulatorTest, RunUntilTrueStopsEarly) {
  Simulator sim;
  ScriptedEvents script(&sim);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    script.At(SimTime(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.RunUntilTrue([&] { return count == 3; }));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(sim.RunUntilTrue([&] { return count == 99; }));
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  ScriptedEvents script(&sim);
  double at = -1.0;
  script.At(SimTime(2.0), [&] {
    script.After(0.0, [&] { at = sim.Now().seconds(); });
  });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(at, 2.0);
}

// Owns PeriodicTasks the way a component does: each task's tick kind is its
// index, and RunContinuation routes the tick to the task.
class TaskOwner : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem, 1);

  explicit TaskOwner(Simulator* sim) : sim_(sim) { sim_->continuations().Register(kComp, this); }
  ~TaskOwner() override { sim_->continuations().Unregister(kComp); }

  PeriodicTask& Add(double period, std::function<void()> fn) {
    tasks_.push_back(std::make_unique<PeriodicTask>(
        sim_, period, kComp, static_cast<uint16_t>(tasks_.size()), std::move(fn)));
    return *tasks_.back();
  }

  void RunContinuation(uint16_t kind, const ContinuationPayload&) override {
    tasks_[kind]->Fire();
  }
  void RestoreContinuation(uint16_t kind, const ContinuationPayload&, SimTime at) override {
    tasks_[kind]->RestorePending(at);
  }

 private:
  Simulator* sim_;
  std::vector<std::unique_ptr<PeriodicTask>> tasks_;
};

TEST(PeriodicTaskTest, FiresAtPeriodUntilStopped) {
  Simulator sim;
  TaskOwner owner(&sim);
  int ticks = 0;
  PeriodicTask& task = owner.Add(2.0, [&] { ++ticks; });
  task.Start();
  sim.RunUntil(SimTime(9.0));
  EXPECT_EQ(ticks, 4);  // t = 2, 4, 6, 8
  task.Stop();
  sim.RunUntil(SimTime(20.0));
  EXPECT_EQ(ticks, 4);
}

TEST(PeriodicTaskTest, StopInsideCallbackHalts) {
  Simulator sim;
  TaskOwner owner(&sim);
  int ticks = 0;
  PeriodicTask& task = owner.Add(1.0, [&] { ++ticks; });
  PeriodicTask& stopper = owner.Add(3.5, [&] { task.Stop(); });
  task.Start();
  stopper.Start();
  sim.RunUntil(SimTime(10.0));
  EXPECT_EQ(ticks, 3);
}

// An event that schedules a successor and cancels it before returning fires
// once and leaves nothing pending. The successor reuses the running event's
// retired slot, so the running event's own, now stale, id must not cancel it.
TEST(SimulatorTest, CancelOwnSuccessorInsideCallback) {
  Simulator sim;
  ScriptedEvents script(&sim);
  int fires = 0;
  EventId self = kInvalidEventId;
  self = script.After(1.0, [&] {
    ++fires;
    EXPECT_FALSE(sim.IsPending(self));
    EventId next = script.After(1.0, [&] { ++fires; });
    EXPECT_FALSE(sim.Cancel(self));  // stale: must not hit the successor
    EXPECT_TRUE(sim.IsPending(next));
    EXPECT_TRUE(sim.Cancel(next));  // cancel while still executing
    EXPECT_FALSE(sim.IsPending(next));
  });
  sim.RunUntilIdle();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Heap compaction triggered from inside a callback must keep the event that
// callback scheduled just before (it is live, not a tombstone).
TEST(SimulatorTest, CompactionPreservesEventScheduledInCallback) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<EventId> victims;
  for (int i = 0; i < 300; ++i) {
    victims.push_back(script.After(50.0, [] {}));
  }
  int fires = 0;
  std::function<void()> body = [&] {
    if (++fires == 1) {
      script.After(1.0, body);
      // Mass-cancel drives tombstones past the compaction threshold while
      // the fresh successor sits in the heap.
      for (EventId id : victims) {
        sim.Cancel(id);
      }
      EXPECT_LT(sim.heap_entries(), victims.size());  // compaction ran
    }
  };
  script.After(1.0, body);
  sim.RunUntilIdle();
  EXPECT_EQ(fires, 2);
}

// Schedules, cancels and records for ExecutionOrderIsBitIdenticalAcrossRuns:
// each firing records (time, label), schedules a few successors and cancels a
// random pending event about half the time.
class CancelChurn : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);

  CancelChurn(Simulator* sim, uint64_t seed) : sim_(sim), rng_(seed) {
    sim_->continuations().Register(kComp, this);
  }
  ~CancelChurn() override { sim_->continuations().Unregister(kComp); }

  void Spawn() { pending_.push_back(sim_->ScheduleContinuationAfter(rng_.Uniform(0.0, 5.0), kComp, 0)); }

  void RunContinuation(uint16_t, const ContinuationPayload&) override {
    trace.emplace_back(sim_->Now().seconds(), next_label_);
    int n = static_cast<int>(rng_.UniformInt(0, 3));
    for (int i = 0; i < n; ++i) {
      ++next_label_;
      Spawn();
    }
    if (!pending_.empty() && rng_.Bernoulli(0.5)) {
      size_t victim = static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(pending_.size()) - 1));
      sim_->Cancel(pending_[victim]);
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(victim));
    }
  }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {}

  std::vector<std::pair<double, int>> trace;

 private:
  Simulator* sim_;
  Rng rng_;
  std::vector<EventId> pending_;
  int next_label_ = 0;
};

// The execution trace of a run — (time, label) per fired event — must be
// bit-identical across two runs with the same seed, even under heavy
// Cancel/reschedule interleaving. This is the engine-level half of the
// determinism contract the parallel sweep (src/exp/sweep.h) relies on.
std::vector<std::pair<double, int>> CancelChurnTrace(uint64_t seed) {
  Simulator sim;
  CancelChurn churn(&sim, seed);
  for (int i = 0; i < 64; ++i) {
    churn.Spawn();
  }
  sim.RunUntilIdle(20000);
  return churn.trace;
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
  Recorder rec(&sim);
  Rng rng(7);
  constexpr int kBurst = 1000;
  std::vector<EventId> burst;
  for (int round = 0; round < 200; ++round) {
    burst.clear();
    for (int i = 0; i < kBurst; ++i) {
      burst.push_back(
          sim.ScheduleContinuationAfter(rng.Uniform(0.1, 10.0), Recorder::kComp, 0));
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
