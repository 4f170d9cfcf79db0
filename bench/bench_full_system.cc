// Full-system macro-benchmark: end-to-end events/sec on representative
// driver runs (the data-path hot loop, not the simulator core — compare
// bench_sim_core). Emits BENCH_hotpath.json snapshots so each PR records a
// perf trajectory (see README "Perf smoke").
//
//   bench_full_system                        # table on stdout
//   bench_full_system --reps 5               # more samples per config
//   bench_full_system --json out.json --label post-refactor
//
// The simulated workload is deterministic, so `events` is identical across
// reps and across code changes that preserve byte-identity; only the wall
// clock moves. The best (fastest) rep is reported to cut scheduler noise.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/core/run.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

struct NamedConfig {
  std::string name;
  RlSystemConfig cfg;
};

RlSystemConfig ChaosConfig() {
  // Mirrors bench_chaos_soak's mix: fail-stop + transient chaos with the
  // invariant checker armed, exercising the redirect/recovery data paths
  // (PartialResponsePool::TakeByReplica, quarantine, repack).
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
  cfg.chaos_seed = 7;
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

std::vector<NamedConfig> BuildConfigs() {
  std::vector<NamedConfig> out;
  out.push_back({"laminar_math_7B_128gpu",
                 ThroughputConfig(SystemKind::kLaminar, ModelScale::k7B, 128)});
  out.push_back({"laminar_tool_7B_128gpu",
                 ThroughputConfig(SystemKind::kLaminar, ModelScale::k7B, 128,
                                  TaskKind::kToolCalling)});
  out.push_back({"laminar_math_32B_256gpu",
                 ThroughputConfig(SystemKind::kLaminar, ModelScale::k32B, 256)});
  out.push_back({"verl_math_7B_128gpu",
                 ThroughputConfig(SystemKind::kVerlSync, ModelScale::k7B, 128)});
  out.push_back({"laminar_chaos_16gpu", ChaosConfig()});
  // Single-run scale ceiling: a 1024-GPU fleet. Table 2 stops at 512 for
  // Laminar/32B; extend its 50/50 split one doubling with an explicit
  // placement.
  RlSystemConfig big = ThroughputConfig(SystemKind::kLaminar, ModelScale::k32B, 1024);
  big.train_gpus = 512;
  big.rollout_gpus = 512;
  out.push_back({"laminar_math_32B_1024gpu", big});
  return out;
}

struct RunResult {
  std::string name;
  uint64_t events = 0;
  double best_wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double tokens_per_sec = 0.0;  // simulated throughput (determinism witness)
};

RunResult Measure(const NamedConfig& nc, int reps) {
  RunResult r;
  r.name = nc.name;
  for (int rep = 0; rep < reps; ++rep) {
    std::unique_ptr<DriverBase> driver = MakeDriver(nc.cfg);
    auto start = std::chrono::steady_clock::now();
    SystemReport report = driver->Run();
    std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
    r.events = driver->sim().executed_events();
    r.tokens_per_sec = report.throughput_tokens_per_sec;
    if (rep == 0 || wall.count() < r.best_wall_seconds) {
      r.best_wall_seconds = wall.count();
    }
  }
  r.events_per_sec = static_cast<double>(r.events) / r.best_wall_seconds;
  return r;
}

void WriteJson(const std::string& path, const std::string& label,
               const std::vector<RunResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"bench_full_system\",\n  \"schema\": 1,\n"
      << "  \"label\": \"" << label << "\",\n  \"runs\": [\n";
  char buf[256];
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events\": %llu, "
                  "\"best_wall_seconds\": %.6f, \"events_per_sec\": %.0f, "
                  "\"sim_tokens_per_sec\": %.1f}%s\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.events),
                  r.best_wall_seconds, r.events_per_sec, r.tokens_per_sec,
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

void Run(int reps, const std::string& json_path, const std::string& label) {
  Banner("Full-system hot-path macro-benchmark (events/sec)");
  std::printf("%d rep(s) per config, best rep reported.\n\n", reps);
  std::vector<RunResult> results;
  Table table({"config", "events", "best wall (s)", "events/sec", "sim tokens/s"});
  for (const NamedConfig& nc : BuildConfigs()) {
    RunResult r = Measure(nc, reps);
    char wall[32], eps[32];
    std::snprintf(wall, sizeof(wall), "%.3f", r.best_wall_seconds);
    std::snprintf(eps, sizeof(eps), "%.0f", r.events_per_sec);
    table.AddRow({r.name, Table::Int(static_cast<double>(r.events)), wall, eps,
                  Tps(r.tokens_per_sec)});
    results.push_back(std::move(r));
  }
  table.Print();
  if (!json_path.empty()) {
    WriteJson(json_path, label, results);
  }
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  int reps = 3;
  std::string json_path;
  std::string label = "unlabeled";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      if (!laminar::ParseCountFlag("--reps", argv[++i], &reps)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--reps N] [--json PATH] [--label NAME]\n",
                   argv[0]);
      return 2;
    }
  }
  laminar::Run(reps, json_path, label);
  return 0;
}
