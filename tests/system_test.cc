// End-to-end integration tests: each driver runs a miniature RL job and the
// paper's qualitative properties hold.
#include <gtest/gtest.h>

#include "src/core/laminar_system.h"
#include "src/core/run.h"
#include "src/fault/injector.h"
#include "tests/scripted_events.h"

namespace laminar {
namespace {

RlSystemConfig SmallConfig(SystemKind system) {
  RlSystemConfig cfg;
  cfg.system = system;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.max_concurrency = 256;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.seed = 1234;
  return cfg;
}

class AllSystemsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(AllSystemsTest, CompletesIterationsWithSaneMetrics) {
  SystemReport rep = RunExperiment(SmallConfig(GetParam()));
  EXPECT_EQ(rep.iterations_completed, 3);
  EXPECT_GT(rep.throughput_tokens_per_sec, 0.0);
  EXPECT_GT(rep.mean_iteration_seconds, 0.0);
  // Token conservation: every iteration consumed exactly one global batch.
  for (const IterationStats& it : rep.iterations) {
    EXPECT_GT(it.tokens, 512.0 * 300);   // at least min-length trajectories
    EXPECT_LT(it.tokens, 512.0 * 20000);  // bounded by prompt+output caps
  }
  EXPECT_GE(rep.avg_kv_utilization, 0.0);
  EXPECT_LE(rep.avg_kv_utilization, 1.0);
  EXPECT_GT(rep.simulated_events, 100u);
}

TEST_P(AllSystemsTest, DeterministicAcrossRuns) {
  SystemReport a = RunExperiment(SmallConfig(GetParam()));
  SystemReport b = RunExperiment(SmallConfig(GetParam()));
  EXPECT_DOUBLE_EQ(a.throughput_tokens_per_sec, b.throughput_tokens_per_sec);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.simulated_events, b.simulated_events);
}

INSTANTIATE_TEST_SUITE_P(Systems, AllSystemsTest,
                         ::testing::Values(SystemKind::kVerlSync, SystemKind::kOneStep,
                                           SystemKind::kStreamGen,
                                           SystemKind::kPartialRollout,
                                           SystemKind::kLaminar),
                         [](const auto& info) {
                           std::string name = SystemKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SyncSystemTest, OnPolicyAndGenerationDominated) {
  SystemReport rep = RunExperiment(SmallConfig(SystemKind::kVerlSync));
  EXPECT_DOUBLE_EQ(rep.mean_consume_staleness, 0.0);
  EXPECT_DOUBLE_EQ(rep.mixed_version_fraction, 0.0);
  // Figure 1(b): generation dominates the iteration.
  EXPECT_GT(rep.generation_fraction, 0.4);
}

TEST(OneStepTest, StalenessIsExactlyBoundedByOne) {
  SystemReport rep = RunExperiment(SmallConfig(SystemKind::kOneStep));
  EXPECT_LE(rep.max_consume_staleness, 1.0);
  EXPECT_GT(rep.mean_consume_staleness, 0.0);
  EXPECT_DOUBLE_EQ(rep.mixed_version_fraction, 0.0);
}

TEST(StreamGenTest, ConsumesCurrentBatchNoStaleness) {
  SystemReport rep = RunExperiment(SmallConfig(SystemKind::kStreamGen));
  // Stream generation trains on the in-flight batch (staleness bound 1 means
  // data is at most from the current generation round).
  EXPECT_LE(rep.max_consume_staleness, 1.0);
  EXPECT_DOUBLE_EQ(rep.mixed_version_fraction, 0.0);
}

TEST(PartialRolloutTest, ProducesMixedVersionTrajectories) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kPartialRollout);
  cfg.measure_iterations = 4;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_GT(rep.mixed_version_fraction, 0.0);
  // Interruptions force rollout waiting at every publish.
  EXPECT_GT(rep.rollout_wait_mean_seconds, 0.0);
}

TEST(LaminarTest, TrajectoryLevelAsynchronyProperties) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.measure_iterations = 4;
  SystemReport rep = RunExperiment(cfg);
  // Single consistent policy version per trajectory — never mixed.
  EXPECT_DOUBLE_EQ(rep.mixed_version_fraction, 0.0);
  // Inherent staleness stays small without any explicit bound (Figure 10).
  EXPECT_LE(rep.max_inherent_staleness, 6.0);
  EXPECT_GT(rep.rollout_busy_fraction, 0.8);
  // The actor's publish stall is far below a global sync.
  EXPECT_LT(rep.actor_stall_mean_seconds, 0.5);
}

TEST(LaminarTest, BeatsLockstepBaselinesAtScale) {
  RlSystemConfig cfg;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 64;
  cfg.global_batch = 2048;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.system = SystemKind::kLaminar;
  double laminar = RunExperiment(cfg).throughput_tokens_per_sec;
  cfg.system = SystemKind::kVerlSync;
  double verl = RunExperiment(cfg).throughput_tokens_per_sec;
  cfg.system = SystemKind::kOneStep;
  double one_step = RunExperiment(cfg).throughput_tokens_per_sec;
  EXPECT_GT(laminar, verl);
  EXPECT_GT(laminar, one_step);
}

TEST(LaminarTest, RepackImprovesThroughputAndKvUtilization) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.total_gpus = 32;
  cfg.global_batch = 1024;
  cfg.measure_iterations = 3;
  SystemReport with = RunExperiment(cfg);
  cfg.repack_enabled = false;
  SystemReport without = RunExperiment(cfg);
  EXPECT_GT(with.repack_events, 0);
  EXPECT_GT(with.repack_sources_released, 0);
  EXPECT_EQ(without.repack_events, 0);
  // Table 1's direction: higher KV utilization with repack.
  EXPECT_GE(with.avg_kv_utilization, without.avg_kv_utilization * 0.98);
  EXPECT_GE(with.throughput_tokens_per_sec, without.throughput_tokens_per_sec * 0.95);
}

TEST(LaminarTest, SurvivesRolloutMachineFailure) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.measure_iterations = 4;
  auto driver = MakeDriver(cfg);
  auto* laminar = static_cast<LaminarSystem*>(driver.get());
  ScriptedEvents script(&laminar->sim());
  // Kill rollout machine 0 shortly into the run; the manager must redirect
  // its in-flight work and schedule a replacement.
  script.At(SimTime(40.0), [laminar] {
    laminar->heartbeats()->MarkDead(0);
  });
  SystemReport rep = driver->Run();
  EXPECT_EQ(rep.iterations_completed, 5);
  EXPECT_GT(laminar->manager()->stats().failures_handled, 0);
  EXPECT_GT(laminar->manager()->stats().trajectories_redirected, 0);
}

TEST(LaminarTest, SurvivesTrainerFailure) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.measure_iterations = 3;
  auto driver = MakeDriver(cfg);
  auto* laminar = static_cast<LaminarSystem*>(driver.get());
  ScriptedEvents script(&laminar->sim());
  script.At(SimTime(60.0), [laminar] {
    laminar->trainer().Kill(/*recovery_seconds=*/45.0);
  });
  SystemReport rep = driver->Run();
  EXPECT_EQ(rep.iterations_completed, 4);
}

TEST(LaminarTest, SurvivesMasterRelayFailure) {
  // 7B/64 gives Laminar 24 rollout GPUs = 3 machines, so a master failure
  // has survivors to elect from.
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.total_gpus = 64;
  cfg.global_batch = 1024;
  cfg.measure_iterations = 3;
  auto driver = MakeDriver(cfg);
  auto* laminar = static_cast<LaminarSystem*>(driver.get());
  ScriptedEvents script(&laminar->sim());
  script.At(SimTime(30.0), [laminar] {
    laminar->heartbeats()->MarkDead(laminar->relays()->master());
  });
  SystemReport rep = driver->Run();
  EXPECT_EQ(rep.iterations_completed, 4);
  EXPECT_GE(laminar->relays()->master_elections(), 1);
}

TEST(ToolCallingTest, MultiTurnTaskRunsOnLaminarAndVerl) {
  for (SystemKind system : {SystemKind::kLaminar, SystemKind::kVerlSync}) {
    RlSystemConfig cfg = SmallConfig(system);
    cfg.task = TaskKind::kToolCalling;
    cfg.measure_iterations = 2;
    SystemReport rep = RunExperiment(cfg);
    EXPECT_EQ(rep.iterations_completed, 3) << SystemKindName(system);
    EXPECT_GT(rep.throughput_tokens_per_sec, 0.0);
  }
}

TEST(SamplerTest, AllSamplerKindsWork) {
  for (SamplerKind sampler :
       {SamplerKind::kFifo, SamplerKind::kFreshness, SamplerKind::kStalenessCapped}) {
    RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
    cfg.sampler = sampler;
    SystemReport rep = RunExperiment(cfg);
    EXPECT_EQ(rep.iterations_completed, 3);
  }
}

TEST(LaminarTest, AppendixCPartialRolloutHybrid) {
  // The Appendix-C discussion: partial rollout can be grafted onto Laminar.
  // In-flight trajectories then adopt fresh versions (mixed-version data
  // appears), trading data purity for even lower staleness.
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.laminar_partial_rollout = true;
  cfg.measure_iterations = 4;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_EQ(rep.iterations_completed, 5);
  EXPECT_GT(rep.mixed_version_fraction, 0.0);
  SystemReport plain = RunExperiment(SmallConfig(SystemKind::kLaminar));
  EXPECT_DOUBLE_EQ(plain.mixed_version_fraction, 0.0);
}

TEST(StaticThresholdAblationTest, Runs) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.repack_static_threshold = true;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_EQ(rep.iterations_completed, 3);
}

TEST(RewardProgressTest, LaminarLearnsOverIterations) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.warmup_iterations = 0;
  cfg.measure_iterations = 12;
  cfg.global_batch = 768;
  SystemReport rep = RunExperiment(cfg);
  ASSERT_GE(rep.reward_series.size(), 10u);
  double first = rep.reward_series.points().front().value;
  double last = rep.reward_series.points().back().value;
  EXPECT_GT(last, first);
}

TEST(LengthDriftTest, SystemHandlesEvolvingLengths) {
  RlSystemConfig cfg = SmallConfig(SystemKind::kLaminar);
  cfg.length_drift = true;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_EQ(rep.iterations_completed, 3);
}

}  // namespace
}  // namespace laminar
