#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "src/fault/fault_process.h"
#include "src/fault/heartbeat.h"
#include "src/fault/injector.h"
#include "tests/scripted_events.h"

namespace laminar {
namespace {

TEST(HeartbeatTest, DetectsDeathWithinBoundedDelay) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<std::pair<int, double>> detected;
  HeartbeatMonitor monitor(&sim, /*period=*/1.0, /*miss_threshold=*/2,
                           [&](int node) { detected.emplace_back(node, sim.Now().seconds()); });
  monitor.Register(0);
  monitor.Register(1);
  monitor.Start();
  script.At(SimTime(10.0), [&] { monitor.MarkDead(1); });
  sim.RunUntil(SimTime(30.0));
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0].first, 1);
  // Detection within (miss_threshold, miss_threshold + 1] periods.
  EXPECT_GT(detected[0].second, 10.0 + 2.0 * 1.0 - 1e-9);
  EXPECT_LE(detected[0].second, 10.0 + 3.0 * 1.0 + 1e-9);
}

TEST(HeartbeatTest, HealthyNodesNeverReported) {
  Simulator sim;
  int reports = 0;
  HeartbeatMonitor monitor(&sim, 0.5, 3, [&](int) { ++reports; });
  for (int i = 0; i < 8; ++i) {
    monitor.Register(i);
  }
  monitor.Start();
  sim.RunUntil(SimTime(100.0));
  EXPECT_EQ(reports, 0);
}

TEST(HeartbeatTest, ReviveResetsAndReportsOnlyOnce) {
  Simulator sim;
  ScriptedEvents script(&sim);
  int reports = 0;
  HeartbeatMonitor monitor(&sim, 1.0, 2, [&](int) { ++reports; });
  monitor.Register(0);
  monitor.Start();
  script.At(SimTime(5.0), [&] { monitor.MarkDead(0); });
  sim.RunUntil(SimTime(20.0));
  EXPECT_EQ(reports, 1);  // dead node reported exactly once
  monitor.Revive(0);
  sim.RunUntil(SimTime(40.0));
  EXPECT_EQ(reports, 1);  // revived node is healthy again
  monitor.MarkDead(0);
  sim.RunUntil(SimTime(60.0));
  EXPECT_EQ(reports, 2);  // and can fail again
}

TEST(FaultInjectorTest, RoutesKindsToHandlers) {
  Simulator sim;
  std::vector<int> machine_faults;
  HeartbeatMonitor monitor(&sim, 1.0, 2, [&](int m) { machine_faults.push_back(m); });
  monitor.Register(5);
  monitor.Start();

  int relay_faults = 0;
  int master_faults = 0;
  int trainer_faults = 0;
  FaultInjector injector(&sim);
  injector.set_heartbeats(&monitor);
  injector.set_on_relay_fault([&](int) { ++relay_faults; });
  injector.set_on_master_fault([&] { ++master_faults; });
  injector.set_on_trainer_fault([&] { ++trainer_faults; });

  injector.ScheduleAll({
      {10.0, FaultKind::kRolloutMachine, 5},
      {20.0, FaultKind::kRelayProcess, 2},
      {30.0, FaultKind::kMasterRelay, 0},
      {40.0, FaultKind::kTrainerWorker, 0},
  });
  sim.RunUntil(SimTime(60.0));
  EXPECT_EQ(machine_faults, std::vector<int>{5});
  EXPECT_EQ(relay_faults, 1);
  EXPECT_EQ(master_faults, 1);
  EXPECT_EQ(trainer_faults, 1);
  EXPECT_EQ(injector.injected(), 4);
}

TEST(FaultInjectorTest, RoutesTransientKindsAndCountsPerKind) {
  Simulator sim;
  std::vector<std::pair<int, double>> stalls;
  std::vector<std::pair<int, double>> flaps;
  std::vector<std::tuple<int, double, double>> slows;
  std::vector<int> drops;
  FaultInjector injector(&sim);
  injector.set_on_machine_stall([&](int m, double d) { stalls.emplace_back(m, d); });
  injector.set_on_link_flap([&](int m, double d) { flaps.emplace_back(m, d); });
  injector.set_on_replica_slow(
      [&](int r, double sev, double d) { slows.emplace_back(r, sev, d); });
  injector.set_on_message_drop([&](int m) { drops.push_back(m); });

  injector.ScheduleAll({
      {5.0, FaultKind::kMachineStall, 1, 2.0},
      {6.0, FaultKind::kLinkFlap, 2, 1.5},
      {7.0, FaultKind::kReplicaSlow, 3, 120.0, 0.25},
      {8.0, FaultKind::kMessageDrop, 0},
      {9.0, FaultKind::kMessageDrop, 4},
  });
  sim.RunUntil(SimTime(20.0));

  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0], (std::pair<int, double>{1, 2.0}));
  ASSERT_EQ(flaps.size(), 1u);
  EXPECT_EQ(flaps[0], (std::pair<int, double>{2, 1.5}));
  ASSERT_EQ(slows.size(), 1u);
  EXPECT_EQ(slows[0], (std::tuple<int, double, double>{3, 0.25, 120.0}));
  EXPECT_EQ(drops, (std::vector<int>{0, 4}));

  EXPECT_EQ(injector.injected(), 5);
  EXPECT_EQ(injector.count(FaultKind::kMachineStall), 1);
  EXPECT_EQ(injector.count(FaultKind::kLinkFlap), 1);
  EXPECT_EQ(injector.count(FaultKind::kReplicaSlow), 1);
  EXPECT_EQ(injector.count(FaultKind::kMessageDrop), 2);
  EXPECT_EQ(injector.count(FaultKind::kRolloutMachine), 0);
  int64_t total = 0;
  for (int64_t c : injector.counts()) {
    total += c;
  }
  EXPECT_EQ(total, injector.injected());
}

TEST(FaultInjectorDeathTest, ValidatesSchedules) {
  Simulator sim;
  FaultInjector injector(&sim);
  injector.set_num_machines(4);
  injector.set_num_replicas(8);

  EXPECT_DEATH(injector.Schedule({-1.0, FaultKind::kTrainerWorker, 0}),
               "scheduled in the past");
  EXPECT_DEATH(injector.Schedule({1.0, FaultKind::kRolloutMachine, 4}),
               "targets machine");
  EXPECT_DEATH(injector.Schedule({1.0, FaultKind::kMachineStall, -1, 2.0}),
               "targets machine");
  EXPECT_DEATH(injector.Schedule({1.0, FaultKind::kReplicaSlow, 8, 10.0, 0.5}),
               "targets replica");
  EXPECT_DEATH(injector.Schedule({1.0, FaultKind::kMachineStall, 0, -2.0}),
               "negative duration");
  EXPECT_DEATH(injector.Schedule({1.0, FaultKind::kReplicaSlow, 0, 10.0, 0.0}),
               "severity");
  EXPECT_DEATH(injector.Schedule({1.0, FaultKind::kReplicaSlow, 0, 10.0, 1.5}),
               "severity");

  // In-range events under the same armed ranges are accepted.
  injector.Schedule({1.0, FaultKind::kRolloutMachine, 3});
  injector.Schedule({1.0, FaultKind::kReplicaSlow, 7, 10.0, 0.5});
}

TEST(HeartbeatDeathTest, UnregisteredNodeOperationsCheckFail) {
  Simulator sim;
  HeartbeatMonitor monitor(&sim, 1.0, 2, nullptr);
  monitor.Register(0);
  EXPECT_DEATH(monitor.MarkDead(7), "unregistered node 7");
  EXPECT_DEATH(monitor.Revive(7), "unregistered node 7");
  EXPECT_DEATH(monitor.Stall(7, 1.0), "unregistered node 7");
  EXPECT_DEATH(monitor.ObserveRate(7, 1.0), "unknown rate source 7");
}

TEST(HeartbeatTest, SweepReportsInSortedNodeOrder) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<int> detected;
  HeartbeatMonitor monitor(&sim, 1.0, 2, [&](int node) { detected.push_back(node); });
  // Registration order deliberately scrambled: report order must follow node
  // ids, not insertion or hash order.
  monitor.Register(5);
  monitor.Register(1);
  monitor.Register(3);
  monitor.Start();
  script.At(SimTime(4.0), [&] {
    monitor.MarkDead(5);
    monitor.MarkDead(1);
    monitor.MarkDead(3);
  });
  sim.RunUntil(SimTime(15.0));
  EXPECT_EQ(detected, (std::vector<int>{1, 3, 5}));
}

TEST(HeartbeatTest, ShortStallHealsUnnoticed) {
  Simulator sim;
  ScriptedEvents script(&sim);
  int reports = 0;
  HeartbeatMonitor monitor(&sim, 1.0, 2, [&](int) { ++reports; });
  monitor.Register(0);
  monitor.Start();
  script.At(SimTime(5.0), [&] { monitor.Stall(0, 1.5); });
  sim.RunUntil(SimTime(30.0));
  EXPECT_EQ(reports, 0);
}

TEST(HeartbeatTest, LongStallEscalatesToFailureAndHealIsIgnored) {
  Simulator sim;
  ScriptedEvents script(&sim);
  std::vector<double> report_times;
  HeartbeatMonitor monitor(&sim, 1.0, 2,
                           [&](int) { report_times.push_back(sim.Now().seconds()); });
  monitor.Register(0);
  monitor.Start();
  // A 10 s freeze outlives the 2-period miss threshold: from the monitor's
  // view it is a crash, and the eventual heal must not resurrect the node.
  script.At(SimTime(5.2), [&] { monitor.Stall(0, 10.0); });
  sim.RunUntil(SimTime(40.0));
  ASSERT_EQ(report_times.size(), 1u);
  EXPECT_GT(report_times[0], 5.2 + 2.0);
  EXPECT_LE(report_times[0], 5.2 + 3.0 + 1e-9);
  EXPECT_EQ(monitor.failures_reported(), 1);
}

TEST(HeartbeatTest, PhiScoreGrowsWhileSilent) {
  Simulator sim;
  ScriptedEvents script(&sim);
  // Huge miss threshold: nothing gets reported, we only watch the score.
  HeartbeatMonitor monitor(&sim, 1.0, 1000, nullptr);
  monitor.Register(0);
  monitor.Start();
  double phi_healthy = -1.0;
  double phi_early = -1.0;
  double phi_late = -1.0;
  script.At(SimTime(1.5), [&] { phi_healthy = monitor.PhiScore(0); });
  script.At(SimTime(2.5), [&] { monitor.MarkDead(0); });
  script.At(SimTime(3.5), [&] { phi_early = monitor.PhiScore(0); });
  script.At(SimTime(12.5), [&] { phi_late = monitor.PhiScore(0); });
  sim.RunUntil(SimTime(20.0));
  EXPECT_LT(phi_healthy, 0.5);
  EXPECT_GT(phi_late, phi_early + 3.0);
  EXPECT_GT(phi_late, 4.0);
}

TEST(SlownessTest, WarmupAbsorbsWithoutScoring) {
  Simulator sim;
  HeartbeatMonitor monitor(&sim, 1.0, 2, nullptr);
  int flagged = 0;
  monitor.set_on_slow([&](int) { ++flagged; });
  monitor.RegisterRateSource(0);
  // Even rock-bottom rates cannot flag a source that has no baseline yet.
  for (int i = 0; i < 3; ++i) {
    monitor.ObserveRate(0, 0.01);
  }
  EXPECT_EQ(flagged, 0);
  EXPECT_EQ(monitor.SlownessScore(0), 0.0);
}

TEST(SlownessTest, DetectsRateCollapseAfterConsecutiveStrikes) {
  Simulator sim;
  HeartbeatMonitor monitor(&sim, 1.0, 2, nullptr);
  std::vector<int> slow;
  std::vector<int> recovered;
  monitor.set_on_slow([&](int s) { slow.push_back(s); });
  monitor.set_on_slow_recovered([&](int s) { recovered.push_back(s); });
  monitor.RegisterRateSource(3);

  for (int i = 0; i < 6; ++i) {
    monitor.ObserveRate(3, 1.0);  // warmup + healthy baseline
  }
  EXPECT_FALSE(monitor.IsSlow(3));
  EXPECT_NEAR(monitor.BaselineRate(3), 1.0, 1e-9);

  // A replica running at a quarter speed: first strike arms, second reports.
  monitor.ObserveRate(3, 0.25);
  EXPECT_TRUE(slow.empty());
  monitor.ObserveRate(3, 0.25);
  EXPECT_EQ(slow, (std::vector<int>{3}));
  EXPECT_TRUE(monitor.IsSlow(3));
  EXPECT_GE(monitor.SlownessScore(3), 8.0);
  // The healthy baseline stays frozen while suspected.
  EXPECT_NEAR(monitor.BaselineRate(3), 1.0, 1e-9);

  // Still sick: no duplicate report.
  monitor.ObserveRate(3, 0.3);
  EXPECT_EQ(monitor.slow_reported(), 1);

  // Back above recovery_ratio * baseline: quarantine lifts exactly once.
  monitor.ObserveRate(3, 0.9);
  EXPECT_EQ(recovered, (std::vector<int>{3}));
  EXPECT_FALSE(monitor.IsSlow(3));
  EXPECT_EQ(monitor.slow_recovered(), 1);
}

TEST(SlownessTest, HealthyJitterNeverFlags) {
  Simulator sim;
  HeartbeatMonitor monitor(&sim, 1.0, 2, nullptr);
  int flagged = 0;
  monitor.set_on_slow([&](int) { ++flagged; });
  monitor.RegisterRateSource(0);
  // +/-5% deterministic jitter around 1.0 — normal decode-rate noise.
  for (int i = 0; i < 500; ++i) {
    double jitter = (static_cast<double>((i * 37) % 11) - 5.0) / 100.0;
    monitor.ObserveRate(0, 1.0 + jitter);
  }
  EXPECT_EQ(flagged, 0);
  EXPECT_EQ(monitor.slow_reported(), 0);
  EXPECT_FALSE(monitor.IsSlow(0));
}

TEST(SlownessTest, SingleDipDoesNotFlag) {
  Simulator sim;
  HeartbeatMonitor monitor(&sim, 1.0, 2, nullptr);
  int flagged = 0;
  monitor.set_on_slow([&](int) { ++flagged; });
  monitor.RegisterRateSource(0);
  for (int i = 0; i < 5; ++i) {
    monitor.ObserveRate(0, 1.0);
  }
  monitor.ObserveRate(0, 0.2);  // one transient dip (e.g. a prefill burst)
  monitor.ObserveRate(0, 1.0);  // back to normal resets the strike counter
  monitor.ObserveRate(0, 0.2);
  monitor.ObserveRate(0, 1.0);
  EXPECT_EQ(flagged, 0);
}

FaultProcessConfig ChaosConfigForTest() {
  FaultProcessConfig pc;
  pc.start_seconds = 100.0;
  pc.horizon_seconds = 7200.0;
  pc.num_machines = 8;
  pc.num_replicas = 16;
  pc.machine_fail_per_hour = 3.0;
  pc.relay_fail_per_hour = 2.0;
  pc.master_fail_per_hour = 1.0;
  pc.trainer_fail_per_hour = 1.0;
  pc.machine_stall_per_hour = 6.0;
  pc.link_flap_per_hour = 6.0;
  pc.replica_slow_per_hour = 4.0;
  pc.message_drop_per_hour = 8.0;
  return pc;
}

TEST(FaultProcessTest, SameSeedSameScheduleFieldForField) {
  FaultProcess proc(ChaosConfigForTest());
  std::vector<FaultEvent> a = proc.Generate(123);
  std::vector<FaultEvent> b = proc.Generate(123);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_seconds, b[i].at_seconds) << i;  // bit-exact, not NEAR
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].target, b[i].target) << i;
    EXPECT_EQ(a[i].duration_seconds, b[i].duration_seconds) << i;
    EXPECT_EQ(a[i].severity, b[i].severity) << i;
  }
  // A different seed produces a genuinely different schedule.
  std::vector<FaultEvent> c = proc.Generate(124);
  EXPECT_TRUE(a.size() != c.size() || a[0].at_seconds != c[0].at_seconds);
}

TEST(FaultProcessTest, ScheduleSortedAndWithinWindow) {
  FaultProcessConfig pc = ChaosConfigForTest();
  FaultProcess proc(pc);
  std::vector<FaultEvent> schedule = proc.Generate(7);
  ASSERT_GT(schedule.size(), 20u);
  const double end = pc.start_seconds + pc.horizon_seconds;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const FaultEvent& e = schedule[i];
    EXPECT_GE(e.at_seconds, pc.start_seconds);
    EXPECT_LT(e.at_seconds, end);
    EXPECT_GE(e.duration_seconds, 0.0);
    EXPECT_GT(e.severity, 0.0);
    EXPECT_LE(e.severity, 1.0);
    switch (e.kind) {
      case FaultKind::kRolloutMachine:
      case FaultKind::kRelayProcess:
      case FaultKind::kMessageDrop:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, pc.num_machines);
        break;
      case FaultKind::kMachineStall:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, pc.num_machines);
        EXPECT_GE(e.duration_seconds, pc.stall_duration_lo);
        EXPECT_LE(e.duration_seconds, pc.stall_duration_hi);
        break;
      case FaultKind::kLinkFlap:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, pc.num_machines);
        EXPECT_GE(e.duration_seconds, pc.flap_duration_lo);
        EXPECT_LE(e.duration_seconds, pc.flap_duration_hi);
        break;
      case FaultKind::kReplicaSlow:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, pc.num_replicas);
        EXPECT_GE(e.duration_seconds, pc.slow_duration_lo);
        EXPECT_LE(e.duration_seconds, pc.slow_duration_hi);
        EXPECT_GE(e.severity, pc.slow_factor_lo);
        EXPECT_LE(e.severity, pc.slow_factor_hi);
        break;
      case FaultKind::kMasterRelay:
      case FaultKind::kTrainerWorker:
        break;
    }
    if (i > 0) {
      const FaultEvent& p = schedule[i - 1];
      bool ordered = p.at_seconds < e.at_seconds ||
                     (p.at_seconds == e.at_seconds &&
                      (static_cast<int>(p.kind) < static_cast<int>(e.kind) ||
                       (p.kind == e.kind && p.target <= e.target)));
      EXPECT_TRUE(ordered) << "events " << i - 1 << " and " << i << " out of order";
    }
  }
}

TEST(FaultProcessTest, ClassStreamsAreIndependent) {
  // Enabling one fault class must not perturb another class's arrivals for
  // the same seed (each class forks its own Rng stream).
  FaultProcessConfig only_machines;
  only_machines.start_seconds = 50.0;
  only_machines.horizon_seconds = 7200.0;
  only_machines.num_machines = 6;
  only_machines.machine_fail_per_hour = 5.0;
  std::vector<FaultEvent> base = FaultProcess(only_machines).Generate(42);
  ASSERT_FALSE(base.empty());

  FaultProcessConfig with_flaps = only_machines;
  with_flaps.link_flap_per_hour = 20.0;
  with_flaps.num_replicas = 12;
  with_flaps.replica_slow_per_hour = 10.0;
  std::vector<FaultEvent> mixed = FaultProcess(with_flaps).Generate(42);
  EXPECT_GT(mixed.size(), base.size());

  std::vector<FaultEvent> machine_only;
  for (const FaultEvent& e : mixed) {
    if (e.kind == FaultKind::kRolloutMachine) {
      machine_only.push_back(e);
    }
  }
  ASSERT_EQ(machine_only.size(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(machine_only[i].at_seconds, base[i].at_seconds) << i;
    EXPECT_EQ(machine_only[i].target, base[i].target) << i;
  }
}

TEST(FaultProcessDeathTest, RefusesNonFiniteRatesAndHorizon) {
  // An infinite rate draws zero-length gaps and an infinite horizon never
  // closes the window: either would append faults until memory runs out,
  // so the constructor refuses them before Generate can start.
  FaultProcessConfig inf_rate = ChaosConfigForTest();
  inf_rate.link_flap_per_hour = std::numeric_limits<double>::infinity();
  EXPECT_DEATH({ FaultProcess proc(inf_rate); }, "rate inf per hour");
  FaultProcessConfig nan_rate = ChaosConfigForTest();
  nan_rate.crash_restart_per_hour = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH({ FaultProcess proc(nan_rate); }, "rate nan per hour");
  FaultProcessConfig inf_horizon = ChaosConfigForTest();
  inf_horizon.horizon_seconds = std::numeric_limits<double>::infinity();
  EXPECT_DEATH({ FaultProcess proc(inf_horizon); }, "horizon inf");
}

}  // namespace
}  // namespace laminar
