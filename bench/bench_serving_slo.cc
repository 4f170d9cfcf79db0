// Serving SLO harness (DESIGN.md §14): the online serving tier colocated on
// the training fleet versus a statically partitioned fleet. Both arms face
// the same seeded diurnal traffic on the same 7B fleet; the colocated arm
// admits serving onto any rollout replica (preempting rollout decode when KV
// is short), the static arm walls off dedicated serving replicas the rollout
// engine never touches. The claim under test: colocation wins rollout
// goodput at equal (>=99%) SLO attainment, because serving load rides the
// diurnal valley capacity instead of reserving peak capacity all day.
//
//   bench_serving_slo                       # table on stdout
//   bench_serving_slo --json out.json --label post-change
//   bench_serving_slo --trace-out serving.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/core/run.h"

namespace laminar {
namespace {

// A generation-bound 7B fleet: 12 trainer + 4 rollout GPUs, so rollout
// capacity is the iteration bottleneck and any replica lost to a static
// serving partition shows up directly in goodput. Traffic is modest enough
// that either arm can hold the SLO — the comparison is about the capacity
// each arm has left for training.
RlSystemConfig ServingArm(int dedicated_replicas) {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.train_gpus = 12;
  cfg.rollout_gpus = 4;
  cfg.global_batch = 512;
  cfg.group_size = 8;
  cfg.num_minibatches = 4;
  cfg.max_concurrency = 256;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 3;
  cfg.seed = 42;
  cfg.invariants_enabled = true;
  cfg.serving.enabled = true;
  cfg.serving.base_rate_per_sec = 1.0;
  cfg.serving.diurnal_amplitude = 0.6;
  cfg.serving.diurnal_period_seconds = 300.0;
  cfg.serving.slo_base_seconds = 60.0;
  cfg.serving.slo_per_token_seconds = 0.05;
  cfg.serving.dedicated_replicas = dedicated_replicas;
  return cfg;
}

struct ArmResult {
  std::string name;
  double goodput = 0.0;  // trained tokens per simulated second
  double attainment = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t timed_out = 0;
  int64_t preemptions = 0;
};

ArmResult Summarize(const std::string& name, const SystemReport& rep) {
  ArmResult r;
  r.name = name;
  double trained_tokens = 0.0;
  for (const IterationStats& it : rep.iterations) {
    trained_tokens += static_cast<double>(it.tokens);
  }
  // Goodput counts only tokens the trainer consumed, over the whole run:
  // serving decode and over-generation don't inflate it, and warmup drag
  // (e.g. a static arm limping to its first batch) isn't hidden.
  r.goodput = trained_tokens / rep.simulated_seconds;
  r.attainment = rep.serving_slo_attainment;
  r.p50 = rep.serving_latency_p50_seconds;
  r.p99 = rep.serving_latency_p99_seconds;
  r.admitted = rep.serving_admitted;
  r.rejected = rep.serving_rejected;
  r.timed_out = rep.serving_timed_out;
  r.preemptions = rep.serving_preemptions;
  return r;
}

void WriteJson(const std::string& path, const std::string& label,
               const std::vector<ArmResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"bench_serving_slo\",\n  \"schema\": 1,\n"
      << "  \"label\": \"" << label << "\",\n  \"runs\": [\n";
  char buf[512];
  for (size_t i = 0; i < results.size(); ++i) {
    const ArmResult& r = results[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"rollout_goodput_tokens_per_sec\": %.1f, "
                  "\"slo_attainment\": %.4f, \"latency_p50_seconds\": %.3f, "
                  "\"latency_p99_seconds\": %.3f, \"admitted\": %lld, "
                  "\"rejected\": %lld, \"timed_out\": %lld, "
                  "\"rollout_preemptions\": %lld}%s\n",
                  r.name.c_str(), r.goodput, r.attainment, r.p50, r.p99,
                  static_cast<long long>(r.admitted),
                  static_cast<long long>(r.rejected),
                  static_cast<long long>(r.timed_out),
                  static_cast<long long>(r.preemptions),
                  i + 1 < results.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

void Run(const std::string& json_path, const std::string& label) {
  Banner("Serving SLO: colocated tier vs static partition (7B, 12+4 GPUs)");
  std::vector<SystemReport> reports =
      RunSweep({ServingArm(/*dedicated_replicas=*/0), ServingArm(1)});
  std::vector<ArmResult> results;
  results.push_back(Summarize("colocated", reports[0]));
  results.push_back(Summarize("static_partition", reports[1]));

  Table table({"fleet policy", "rollout goodput (tok/s)", "SLO attainment",
               "latency p50/p99 (s)", "admitted", "rejected", "timed out",
               "preempted rollouts"});
  for (const ArmResult& r : results) {
    table.AddRow({r.name, Tps(r.goodput), Table::Pct(r.attainment),
                  Table::Num(r.p50) + "/" + Table::Num(r.p99),
                  Table::Int(static_cast<double>(r.admitted)),
                  Table::Int(static_cast<double>(r.rejected)),
                  Table::Int(static_cast<double>(r.timed_out)),
                  Table::Int(static_cast<double>(r.preemptions))});
  }
  table.Print();

  const ArmResult& colo = results[0];
  const ArmResult& part = results[1];
  std::printf("\nrollout goodput gain from colocation: %s at %s vs %s attainment\n",
              Table::Pct(colo.goodput / part.goodput - 1.0).c_str(),
              Table::Pct(colo.attainment).c_str(),
              Table::Pct(part.attainment).c_str());
  for (size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].invariant_violations != 0) {
      std::printf("WARNING: %s finished with %lld invariant violations\n",
                  results[i].name.c_str(),
                  static_cast<long long>(reports[i].invariant_violations));
    }
  }
  if (!json_path.empty()) {
    WriteJson(json_path, label, results);
  }
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  laminar::InitBenchTracing(argc, argv);
  std::string json_path;
  std::string label = "unlabeled";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    }
  }
  laminar::Run(json_path, label);
  return 0;
}
