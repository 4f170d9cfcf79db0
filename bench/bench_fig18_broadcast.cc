// Figure 18 + Appendix D: chain-based pipelined broadcast latency vs the
// number of relays, with the T(p,k) decomposition and the optimal chunk
// count k*.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/llm/model_spec.h"
#include "src/relay/broadcast_model.h"
#include "src/relay/relay_tier.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

BroadcastParams ParamsFor(const ModelSpec& model) {
  BroadcastParams p;
  p.message_bytes = model.weight_bytes();
  p.byte_time = 1.0 / 100e9;  // two bonded 400 Gbps NICs per hop
  p.startup_time = 5e-6;
  return p;
}

void AnalyticSection() {
  Banner("Figure 18: relay broadcast latency vs number of relays");
  Table table({"relays", "7B (s)", "32B (s)", "72B (s)", "k* (72B)"});
  for (int relays : {1, 2, 4, 8, 16, 32, 64, 127}) {
    int nodes = relays + 1;  // master + relays
    std::vector<std::string> row = {Table::Int(relays)};
    for (const ModelSpec& model : {Qwen25_7B(), Qwen25_32B(), Qwen25_72B()}) {
      row.push_back(Table::Num(OptimalBroadcastTime(ParamsFor(model), nodes), 3));
    }
    row.push_back(Table::Int(OptimalChunkCount(ParamsFor(Qwen25_72B()), nodes)));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("Paper: < 1.6 s for a 72B model from the master to 127 other relays;\n"
              "the broadcast time is near-constant in the chain length.\n");

  Banner("Appendix D: T(p, k*) decomposition, 72B weights");
  Table terms({"nodes", "bandwidth term (s)", "latency term (s)", "pipeline term (s)",
               "total (s)"});
  for (int nodes : {2, 16, 128, 1024, 2048}) {
    BroadcastTerms t = DecomposeOptimalTime(ParamsFor(Qwen25_72B()), nodes);
    terms.AddRow({Table::Int(nodes), Table::Num(t.bandwidth_term, 3),
                  Table::Num(t.latency_term, 4), Table::Num(t.pipeline_term, 3),
                  Table::Num(t.total(), 3)});
  }
  terms.Print();
  std::printf("The constant bandwidth term dominates; the p-dependent terms have a\n"
              "tiny coefficient (T_start) or grow only as O(sqrt(p)).\n");
}

// Kills relay 2 when its one scheduled continuation fires.
class RelayKiller : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);

  RelayKiller(Simulator* sim, RelayTier* tier) : sim_(sim), tier_(tier) {
    sim_->continuations().Register(kComp, this);
  }
  ~RelayKiller() override { sim_->continuations().Unregister(kComp); }

  void RunContinuation(uint16_t, const ContinuationPayload&) override { tier_->KillRelay(2); }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {}

 private:
  Simulator* sim_;
  RelayTier* tier_;
};

void SimulatedSection() {
  Banner("Simulated relay tier: publish-to-last-relay latency + fault repair");
  Table table({"relays", "broadcast (s)", "after mid-broadcast failure (s)"});
  for (int relays : {8, 32, 128}) {
    auto measure = [&](bool inject_fault) {
      Simulator sim;
      RelayTierConfig cfg;
      cfg.num_relays = relays;
      cfg.weight_bytes = Qwen25_72B().weight_bytes();
      cfg.rdma_bandwidth = 100e9;
      RelayTier tier(&sim, cfg);
      RelayKiller killer(&sim, &tier);
      tier.Publish(1);
      if (inject_fault) {
        sim.ScheduleContinuationAfter(1.0, RelayKiller::kComp, 0);
      }
      sim.RunUntilIdle();
      return tier.broadcast_seconds().max();
    };
    table.AddRow({Table::Int(relays), Table::Num(measure(false), 2),
                  Table::Num(measure(true), 2)});
  }
  table.Print();
  std::printf("Chain repair is O(1): a failure adds only the fixed rebuild delay.\n");
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  laminar::InitBenchTracing(argc, argv);
  laminar::AnalyticSection();
  laminar::SimulatedSection();
  return 0;
}
