// Parameterized property tests over randomized inputs: conservation laws of
// the rollout engine, optimality/monotonicity of the broadcast model, decode
// cost-model sanity across the parameter space, and buffer conservation.
#include <gtest/gtest.h>

#include <set>

#include "src/cluster/hardware.h"
#include "src/core/run.h"
#include "src/data/experience_buffer.h"
#include "src/data/prompt_pool.h"
#include "src/llm/decode_model.h"
#include "src/llm/model_spec.h"
#include "src/relay/broadcast_model.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

// --- Rollout engine conservation -------------------------------------------

class ReplicaConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicaConservationTest, DecodedTokensMatchSpecsExactly) {
  Rng rng(GetParam());
  Simulator sim;
  WorkloadConfig wl;
  wl.task = rng.Bernoulli(0.5) ? TaskKind::kMathReasoning : TaskKind::kToolCalling;
  PromptPool pool(WorkloadGenerator(wl, rng.Fork("wl")), 16, rng.Fork("pp"));
  DecodeModel decode(Qwen25_7B(), MachineSpec{}, 1);
  ReplicaConfig rc;
  rc.max_concurrency = static_cast<int>(rng.UniformInt(16, 512));
  RolloutReplica replica(&sim, rc, decode, decode.KvCapacityTokens());

  int64_t expected_decode = 0;
  int64_t expected_context = 0;
  std::set<TrajId> expected_ids;
  int batch = static_cast<int>(rng.UniformInt(2, 20)) * 16;
  std::vector<TrajectoryWork> works = pool.NextBatch(batch, 0, SimTime::Zero());
  for (const TrajectoryWork& w : works) {
    expected_decode += w.record.spec.total_decode_tokens();
    expected_context += w.record.spec.total_context_tokens();
    expected_ids.insert(w.record.id);
  }

  int64_t completed_context = 0;
  std::set<TrajId> completed_ids;
  replica.set_on_complete([&](TrajectoryRecord rec) {
    completed_ids.insert(rec.id);
    completed_context += rec.total_tokens();
    // Exactly one policy version: no partial rollout here.
    EXPECT_FALSE(rec.mixed_version());
  });
  replica.AssignWork(std::move(works));
  sim.RunUntilIdle();

  // Every trajectory completed exactly once; tokens conserved exactly.
  EXPECT_EQ(completed_ids, expected_ids);
  EXPECT_EQ(replica.metrics().decode_tokens, expected_decode);
  EXPECT_EQ(completed_context, expected_context);
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
  EXPECT_EQ(replica.num_reqs(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaConservationTest, ::testing::Range<uint64_t>(0, 12));

// Migration mid-flight must also conserve tokens.
class MigrationConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MigrationConservationTest, TokensSurviveRepeatedMigration) {
  Rng rng(GetParam() + 100);
  Simulator sim;
  WorkloadConfig wl;
  PromptPool pool(WorkloadGenerator(wl, rng.Fork("wl")), 16, rng.Fork("pp"));
  DecodeModel decode(Qwen25_7B(), MachineSpec{}, 1);
  ReplicaConfig rc;
  RolloutReplica a(&sim, rc, decode, decode.KvCapacityTokens());
  rc.id = 1;  // distinct continuation-registry instance
  RolloutReplica b(&sim, rc, decode, decode.KvCapacityTokens());

  int64_t expected_decode = 0;
  std::vector<TrajectoryWork> works = pool.NextBatch(64, 0, SimTime::Zero());
  for (const TrajectoryWork& w : works) {
    expected_decode += w.record.spec.total_decode_tokens();
  }
  int completed = 0;
  auto on_complete = [&](TrajectoryRecord) { ++completed; };
  a.set_on_complete(on_complete);
  b.set_on_complete(on_complete);
  a.AssignWork(std::move(works));

  // Bounce the in-flight work between the replicas a few times.
  RolloutReplica* replicas[2] = {&a, &b};
  for (int hop = 0; hop < 4; ++hop) {
    sim.RunUntil(sim.Now() + rng.Uniform(3.0, 20.0));
    auto moved = replicas[hop % 2]->ExtractAllWork();
    if (!moved.empty()) {
      replicas[(hop + 1) % 2]->AssignWork(std::move(moved),
                                          /*kv_transferred=*/rng.Bernoulli(0.5));
    }
  }
  sim.RunUntilIdle();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(a.metrics().decode_tokens + b.metrics().decode_tokens, expected_decode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationConservationTest,
                         ::testing::Range<uint64_t>(0, 8));

// --- Broadcast model properties ---------------------------------------------

struct BroadcastCase {
  double mbytes;
  double bandwidth;
  double startup;
  int nodes;
};

class BroadcastPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BroadcastPropertyTest, OptimalChunkBeatsNeighboursAndScalesGently) {
  Rng rng(GetParam());
  BroadcastParams p;
  p.message_bytes = rng.Uniform(1e8, 3e11);
  p.byte_time = 1.0 / rng.Uniform(1e9, 4e11);
  p.startup_time = rng.Uniform(1e-6, 1e-3);
  int nodes = static_cast<int>(rng.UniformInt(2, 2048));

  int k = OptimalChunkCount(p, nodes);
  double best = BroadcastTime(p, nodes, k);
  // No sampled k beats the optimum.
  for (int i = 0; i < 20; ++i) {
    int other = static_cast<int>(rng.UniformInt(1, 4 * k + 8));
    EXPECT_LE(best, BroadcastTime(p, nodes, other) + 1e-12);
  }
  // Bandwidth term is a lower bound; pipelining keeps total near it.
  double bandwidth_term = p.message_bytes * p.byte_time;
  EXPECT_GE(best, bandwidth_term);
  BroadcastTerms terms = DecomposeOptimalTime(p, nodes);
  EXPECT_LE(best, terms.total() * 1.05 + 1e-9);
  // Arrival times are monotone along the chain.
  EXPECT_LE(ArrivalTime(p, 1, k), ArrivalTime(p, nodes - 1 > 0 ? nodes - 1 : 1, k) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BroadcastPropertyTest, ::testing::Range<uint64_t>(0, 30));

// --- Decode cost model properties --------------------------------------------

class DecodePropertyTest
    : public ::testing::TestWithParam<std::tuple<ModelScale, int>> {};

TEST_P(DecodePropertyTest, CostModelSanity) {
  auto [scale, tp] = GetParam();
  ModelSpec model = ModelForScale(scale);
  if (model.weight_bytes() / tp > 70e9) {
    GTEST_SKIP() << "model does not fit at this TP";
  }
  DecodeModel m(model, MachineSpec{}, tp);
  double prev_per_token = 1e9;
  for (int batch : {1, 4, 16, 64, 256}) {
    double lat = m.StepLatency(batch, 2500.0);
    EXPECT_GT(lat, 0.0);
    // Longer contexts never decode faster.
    EXPECT_GE(m.StepLatency(batch, 8000.0), lat);
    // Per-token efficiency improves with batch in the memory-bound regime.
    double per_token = lat / batch;
    EXPECT_LT(per_token, prev_per_token);
    prev_per_token = per_token;
  }
  // More TP never hurts step latency at fixed batch (comm grows slower than
  // the shard shrinks in this regime).
  if (tp > 1) {
    DecodeModel single(model, MachineSpec{}, 1);
    if (model.weight_bytes() <= 70e9) {
      EXPECT_LT(m.StepLatency(8, 2500.0), single.StepLatency(8, 2500.0));
    }
  }
  EXPECT_GT(m.KvCapacityTokens(), 0.0);
  EXPECT_GT(m.RooflineBatchBound(2500.0), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DecodePropertyTest,
    ::testing::Combine(::testing::Values(ModelScale::k7B, ModelScale::k32B,
                                         ModelScale::k72B),
                       ::testing::Values(1, 2, 4, 8)));

// --- Experience buffer conservation ------------------------------------------

class BufferPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BufferPropertyTest, RandomPushSampleConservesRecords) {
  Rng rng(GetParam());
  std::unique_ptr<SamplerPolicy> sampler;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      sampler = MakeFifoSampler();
      break;
    case 1:
      sampler = MakeFreshnessSampler();
      break;
    default:
      sampler = MakeStalenessCappedSampler(static_cast<int>(rng.UniformInt(0, 5)));
  }
  ExperienceBuffer buffer(std::move(sampler));
  std::set<TrajId> outstanding;
  std::set<TrajId> seen;
  TrajId next = 0;
  int version = 0;
  for (int step = 0; step < 400; ++step) {
    if (rng.Bernoulli(0.6)) {
      TrajectoryRecord rec;
      rec.id = next++;
      rec.weight_versions = {static_cast<int>(rng.UniformInt(0, version))};
      rec.spec.AppendSegment({10, 0.0, 0});
      outstanding.insert(rec.id);
      buffer.Push(std::move(rec));
    } else {
      size_t n = static_cast<size_t>(rng.UniformInt(0, 8));
      if (buffer.CanSample(n) && n > 0) {
        for (auto& rec : buffer.Sample(n, version)) {
          // Never sampled twice, always previously pushed.
          EXPECT_TRUE(seen.insert(rec.id).second);
          EXPECT_EQ(outstanding.erase(rec.id), 1u);
          EXPECT_EQ(rec.consume_actor_version, version);
        }
      }
      if (rng.Bernoulli(0.3)) {
        ++version;
      }
    }
  }
  EXPECT_EQ(buffer.size(), outstanding.size());
  EXPECT_EQ(buffer.total_pushed(), static_cast<int64_t>(seen.size() + outstanding.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferPropertyTest, ::testing::Range<uint64_t>(0, 15));

// --- Metamorphic hardware-speed scaling --------------------------------------

// Multiplying every hardware rate (GPU FLOPs, HBM, link bandwidths) by k and
// every fixed latency/period by 1/k must compress the run's time axis by
// exactly 1/k and change nothing else: same events in the same causal order,
// every timestamp and span duration scaled, k-times the throughput. Power-of-
// two k makes the IEEE-double scaling exact, so the comparisons are exact
// equality, not tolerances. Verified against the full captured trace: this
// covers every subsystem that emits events, not just the headline metric.
class HardwareSpeedTest : public ::testing::TestWithParam<double> {};

TEST_P(HardwareSpeedTest, CompressesTheTimeAxisExactly) {
  const double k = GetParam();
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.max_concurrency = 256;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 3;
  cfg.seed = 1234;
  cfg.trace.enabled = true;
  SystemReport base = RunExperiment(cfg);
  cfg.hardware_speed = k;
  SystemReport fast = RunExperiment(cfg);
  ASSERT_NE(base.trace, nullptr);
  ASSERT_NE(fast.trace, nullptr);

  std::vector<TraceEvent> a = base.trace->InOrder();
  std::vector<TraceEvent> b = fast.trace->InOrder();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Ordering invariant: the i-th emitted event is the same logical event...
    ASSERT_EQ(base.trace->name(a[i].name), fast.trace->name(b[i].name)) << "event " << i;
    ASSERT_EQ(a[i].component, b[i].component) << "event " << i;
    ASSERT_EQ(a[i].kind, b[i].kind) << "event " << i;
    ASSERT_EQ(a[i].entity, b[i].entity) << "event " << i;
    ASSERT_EQ(a[i].arg, b[i].arg) << "event " << i;
    // ...with its timestamp and duration scaled by exactly 1/k.
    ASSERT_DOUBLE_EQ(a[i].time / k, b[i].time) << "event " << i;
    ASSERT_DOUBLE_EQ(a[i].duration / k, b[i].duration) << "event " << i;
  }
  EXPECT_DOUBLE_EQ(base.simulated_seconds / k, fast.simulated_seconds);
  EXPECT_DOUBLE_EQ(base.throughput_tokens_per_sec * k, fast.throughput_tokens_per_sec);
  // Token counts are workload properties and must never scale.
  EXPECT_EQ(base.total_decode_tokens, fast.total_decode_tokens);
  EXPECT_EQ(base.iterations_completed, fast.iterations_completed);
}

INSTANTIATE_TEST_SUITE_P(Factors, HardwareSpeedTest, ::testing::Values(2.0, 4.0));

}  // namespace
}  // namespace laminar
