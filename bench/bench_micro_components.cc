// Micro-benchmarks of the hot simulator/algorithm components
// (google-benchmark): event queue, replica decode advance, Best-Fit
// consolidation, broadcast math, decode-latency model, policy update.
#include <benchmark/benchmark.h>

#include "src/cluster/hardware.h"
#include "src/common/rng.h"
#include "src/llm/decode_model.h"
#include "src/llm/model_spec.h"
#include "src/policy/policy.h"
#include "src/relay/broadcast_model.h"
#include "src/repack/best_fit.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

// Counts its firings: the event-queue cases' continuation client.
class CountingClient : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);

  explicit CountingClient(Simulator* sim) : sim_(sim) {
    sim_->continuations().Register(kComp, this);
  }
  ~CountingClient() override { sim_->continuations().Unregister(kComp); }

  void RunContinuation(uint16_t, const ContinuationPayload&) override { ++fired; }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {}

  int fired = 0;

 private:
  Simulator* sim_;
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    CountingClient client(&sim);
    for (int i = 0; i < n; ++i) {
      sim.ScheduleContinuationAt(SimTime(static_cast<double>(i % 97)), CountingClient::kComp, 0);
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(client.fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    CountingClient client(&sim);
    std::vector<EventId> ids;
    ids.reserve(n);
    for (int i = 0; i < n; ++i) {
      ids.push_back(sim.ScheduleContinuationAt(SimTime(1.0 + i), CountingClient::kComp, 0));
    }
    for (int i = 0; i < n; i += 2) {
      sim.Cancel(ids[i]);
    }
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(16384);

// One replica drains a batch of single-segment works whose lengths differ by
// one token, so every advance is one decode step that ends exactly one
// member's segment. Items are advance events; the per-event cost shows how
// an advance scales with batch size.
void BM_ReplicaAdvance(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  DecodeModel decode(Qwen25_7B(), MachineSpec{}, 1);
  ReplicaConfig rc;
  rc.max_concurrency = batch;
  int64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    RolloutReplica replica(&sim, rc, decode, decode.KvCapacityTokens());
    std::vector<TrajectoryWork> works(batch);
    for (int i = 0; i < batch; ++i) {
      TrajectoryWork& w = works[i];
      w.record.id = i;
      w.record.spec.prompt_tokens = 64;
      w.record.spec.AppendSegment({32 + i, 0.0, 0});
      w.InitContext();
    }
    replica.AssignWork(std::move(works));
    sim.RunUntilIdle();
    events += static_cast<int64_t>(sim.executed_events());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ReplicaAdvance)->Arg(16)->Arg(256)->Arg(1024);

void BM_BestFitConsolidation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<ReplicaSnapshot> snaps;
  for (int i = 0; i < n; ++i) {
    ReplicaSnapshot s;
    s.replica_id = i;
    s.kv_used_frac = rng.Uniform(0.0, 0.6);
    s.kv_prev_frac = s.kv_used_frac + rng.Uniform(-0.1, 0.1);
    s.num_reqs = static_cast<int>(rng.UniformInt(1, 120));
    s.num_waiting = 0;
    s.busy = true;
    s.eligible = true;
    snaps.push_back(s);
  }
  RepackParams params;
  params.batch_bound = 256;
  for (auto _ : state) {
    RepackPlan plan = BestFitConsolidation(snaps, params);
    benchmark::DoNotOptimize(plan.moves.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BestFitConsolidation)->Arg(16)->Arg(128)->Arg(1024);

void BM_BroadcastOptimalTime(benchmark::State& state) {
  BroadcastParams params;
  params.message_bytes = 145.4e9;
  params.byte_time = 1.0 / 50e9;
  for (auto _ : state) {
    for (int nodes = 2; nodes <= 128; ++nodes) {
      benchmark::DoNotOptimize(OptimalBroadcastTime(params, nodes));
    }
  }
}
BENCHMARK(BM_BroadcastOptimalTime);

void BM_DecodeStepLatency(benchmark::State& state) {
  DecodeModel model(Qwen25_32B(), MachineSpec{}, 4);
  for (auto _ : state) {
    for (int batch = 1; batch <= 512; batch *= 2) {
      benchmark::DoNotOptimize(model.StepLatency(batch, 3000.0));
    }
  }
}
BENCHMARK(BM_DecodeStepLatency);

void BM_PolicyUpdateMinibatch(benchmark::State& state) {
  Policy policy{PolicyConfig{}};
  Rng rng(2);
  std::vector<TrajectoryRecord> batch;
  for (int i = 0; i < 512; ++i) {
    TrajectoryRecord rec;
    rec.prompt_id = i / 16;
    rec.difficulty = rng.Uniform();
    rec.weight_versions = {0};
    policy.ScoreTrajectory(rec, rng);
    batch.push_back(rec);
  }
  for (auto _ : state) {
    UpdateStats stats = policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
    benchmark::DoNotOptimize(stats.grad_norm);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_PolicyUpdateMinibatch);

}  // namespace
}  // namespace laminar

BENCHMARK_MAIN();
