// Chaos soak: the full Laminar system under many independent seeded fault
// schedules with the invariant checker armed on every run.
//
// Each seed drives a Poisson mix of fail-stop (machine/relay/master/trainer),
// transient (stall, link flap, message drop), and gray (fail-slow replica)
// faults against a small-but-real run. The table reports only deterministic
// fields — rerunning the soak must print byte-identical rows, which the
// harness itself verifies by running the first seed twice.
//
// Usage: bench_chaos_soak [--seeds N]  (N >= 1, default 24)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/core/run.h"

namespace laminar {
namespace {

RlSystemConfig SoakConfig(uint64_t chaos_seed) {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.group_size = 8;
  cfg.num_minibatches = 4;
  cfg.max_concurrency = 128;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 3;
  cfg.seed = 99;
  cfg.chaos_enabled = true;
  cfg.chaos_seed = chaos_seed;
  cfg.chaos.start_seconds = 30.0;
  cfg.chaos.horizon_seconds = 3600.0;
  cfg.chaos.machine_fail_per_hour = 4.0;
  cfg.chaos.relay_fail_per_hour = 8.0;
  cfg.chaos.master_fail_per_hour = 4.0;
  cfg.chaos.trainer_fail_per_hour = 4.0;
  cfg.chaos.machine_stall_per_hour = 60.0;
  cfg.chaos.link_flap_per_hour = 60.0;
  cfg.chaos.replica_slow_per_hour = 20.0;
  cfg.chaos.message_drop_per_hour = 120.0;
  cfg.invariants_enabled = true;
  return cfg;
}

// Deterministic per-seed summary (no wall-clock fields).
std::string Row(const SystemReport& rep) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%lld|%lld|%lld|%lld|%lld|%lld|%lld|%.3f|%d",
                static_cast<long long>(rep.faults_injected),
                static_cast<long long>(rep.slow_events),
                static_cast<long long>(rep.slow_recoveries),
                static_cast<long long>(rep.trajectories_dropped),
                static_cast<long long>(rep.duplicates_suppressed),
                static_cast<long long>(rep.invariant_checks),
                static_cast<long long>(rep.invariant_violations),
                rep.throughput_tokens_per_sec, rep.iterations_completed);
  return buf;
}

void Run(int num_seeds) {
  Banner("Chaos soak: seeded fault schedules with invariants armed");
  std::vector<RlSystemConfig> grid;
  for (int seed = 0; seed < num_seeds; ++seed) {
    grid.push_back(SoakConfig(static_cast<uint64_t>(seed)));
  }
  std::vector<SystemReport> reports = RunSweep(grid);

  Table table({"seed", "faults", "slow/rec", "dropped", "dup-supp", "inv checks",
               "violations", "tok/s", "iters"});
  int64_t total_faults = 0;
  int64_t total_violations = 0;
  for (int seed = 0; seed < num_seeds; ++seed) {
    const SystemReport& rep = reports[seed];
    total_faults += rep.faults_injected;
    total_violations += rep.invariant_violations;
    table.AddRow({Table::Int(seed), Table::Int(rep.faults_injected),
                  Table::Int(rep.slow_events) + "/" + Table::Int(rep.slow_recoveries),
                  Table::Int(rep.trajectories_dropped),
                  Table::Int(rep.duplicates_suppressed),
                  Table::Int(rep.invariant_checks),
                  Table::Int(rep.invariant_violations), Tps(rep.throughput_tokens_per_sec),
                  Table::Int(rep.iterations_completed)});
  }
  table.Print();
  std::printf("\n%d seeds, %lld faults injected, %lld invariant violations\n",
              num_seeds, static_cast<long long>(total_faults),
              static_cast<long long>(total_violations));

  // Reproducibility spot check: seed 0 rerun must match its sweep row.
  std::string again = Row(RunExperiment(grid[0]));
  if (again == Row(reports[0])) {
    std::printf("seed 0 rerun: byte-identical report (deterministic)\n");
  } else {
    std::printf("seed 0 rerun: MISMATCH\n  sweep: %s\n  rerun: %s\n",
                Row(reports[0]).c_str(), again.c_str());
  }
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  laminar::InitBenchTracing(argc, argv);
  int num_seeds = 24;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc &&
        !laminar::ParseCountFlag("--seeds", argv[++i], &num_seeds)) {
      return 2;
    }
  }
  laminar::Run(num_seeds);
  return 0;
}
