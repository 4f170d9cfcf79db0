// Figure 9: KVCache utilization lifecycle during rollout generation.
// One 32B TP=4 replica generates a batch of 512 trajectories: utilization
// ramps to ~C_max, plateaus while waiting trajectories backfill freed space,
// and falls only once the waiting queue drains — the ramp-down phase that
// marks the replica as a repack source.
#include <cstdio>
#include <functional>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/data/prompt_pool.h"
#include "src/llm/model_spec.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

// Owns one PeriodicTask and routes its tick continuation to it.
class Ticker : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);

  Ticker(Simulator* sim, double period, std::function<void()> body)
      : sim_(sim), task_(sim, period, kComp, 0, std::move(body)) {
    sim_->continuations().Register(kComp, this);
  }
  ~Ticker() override { sim_->continuations().Unregister(kComp); }

  PeriodicTask& task() { return task_; }

  void RunContinuation(uint16_t, const ContinuationPayload&) override { task_.Fire(); }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {}

 private:
  Simulator* sim_;
  PeriodicTask task_;
};

void Run() {
  Banner("Figure 9: KVCache utilization lifecycle (32B, TP=4, 512 trajectories)");
  Simulator sim;
  DecodeModel decode(Qwen25_32B(), MachineSpec{}, 4);
  WorkloadConfig wl;
  wl.scale = ModelScale::k32B;
  PromptPool pool(WorkloadGenerator(wl, Rng(42)), 16, Rng(43));

  ReplicaConfig rc;
  rc.max_concurrency = 1024;
  RolloutReplica replica(&sim, rc, decode, decode.KvCapacityTokens());
  int completed = 0;
  replica.set_on_complete([&](TrajectoryRecord) { ++completed; });

  replica.AssignWork(pool.NextBatch(512, 0, SimTime::Zero()));

  struct Sample {
    double t;
    double kv;
    int running;
    int waiting;
  };
  std::vector<Sample> samples;
  Ticker sampler(&sim, 10.0, [&] {
    ReplicaSnapshot snap = replica.Snapshot();
    samples.push_back({sim.Now().seconds(), snap.kv_used_frac,
                       snap.num_reqs - snap.num_waiting, snap.num_waiting});
  });
  sampler.task().Start();
  sim.RunUntilTrue([&] { return completed == 512; });
  sampler.task().Stop();

  Table table({"time (s)", "KV util", "active", "waiting", "phase"});
  double peak = 0.0;
  for (const Sample& s : samples) {
    peak = std::max(peak, s.kv);
  }
  bool seen_peak = false;
  size_t step = std::max<size_t>(1, samples.size() / 40);
  for (size_t i = 0; i < samples.size(); i += step) {
    const Sample& s = samples[i];
    if (s.kv > 0.97 * peak) {
      seen_peak = true;
    }
    const char* phase = !seen_peak ? "ramp-up"
                        : (s.waiting > 0 ? "plateau (backfilling)" : "ramp-down (idle)");
    std::string bar(static_cast<size_t>(s.kv * 40), '#');
    table.AddRow({Table::Num(s.t, 0), Table::Pct(s.kv), Table::Int(s.running),
                  Table::Int(s.waiting), std::string(phase) + " " + bar});
  }
  table.Print();
  std::printf("\nPeak utilization: %s; generation finished at t=%.0f s.\n"
              "Paper: usage ramps to a natural threshold C_max, stays there while\n"
              "waiting trajectories backfill, and falls only when none are left —\n"
              "the consistent signal the repack monitor keys on.\n",
              Table::Pct(peak).c_str(), sim.Now().seconds());
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  laminar::InitBenchTracing(argc, argv);
  laminar::Run();
  return 0;
}
