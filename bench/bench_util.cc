#include "bench/bench_util.h"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "src/common/table.h"
#include "src/trace/trace_io.h"

namespace laminar {
namespace {

std::string g_trace_out;  // empty = tracing off
int g_trace_index = 0;    // per-process trace file counter

}  // namespace

void InitBenchTracing(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_trace_out = argv[i] + 12;
    }
  }
}

bool BenchTracingEnabled() { return !g_trace_out.empty(); }

void ArmTrace(RlSystemConfig& cfg) {
  if (BenchTracingEnabled()) {
    cfg.trace.enabled = true;
  }
}

void MaybeWriteTrace(const SystemReport& report) {
  if (!BenchTracingEnabled() || report.trace == nullptr) {
    return;
  }
  std::string base = g_trace_out;
  std::string ext;
  size_t slash = base.find_last_of('/');
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    ext = base.substr(dot);
    base.resize(dot);
  }
  char num[16];
  std::snprintf(num, sizeof(num), ".%03d", g_trace_index++);
  std::string path = base + num + ext;
  WriteTraceFile(*report.trace, path);
  std::fprintf(stderr, "trace: %zu events (%llu emitted) -> %s\n", report.trace->size(),
               static_cast<unsigned long long>(report.trace->total_emitted()),
               path.c_str());
}

RlSystemConfig ThroughputConfig(SystemKind system, ModelScale scale, int total_gpus,
                                TaskKind task) {
  RlSystemConfig cfg;
  cfg.system = system;
  cfg.scale = scale;
  cfg.task = task;
  cfg.total_gpus = total_gpus;
  cfg.global_batch = 8192;
  cfg.group_size = 16;
  cfg.num_minibatches = 16;
  cfg.max_concurrency = 1024;
  cfg.warmup_iterations = 2;
  cfg.measure_iterations = 3;
  cfg.seed = 2026;
  return cfg;
}

RlSystemConfig ConvergenceConfig(SystemKind system, ModelScale scale, int total_gpus) {
  RlSystemConfig cfg = ThroughputConfig(system, scale, total_gpus);
  cfg.num_minibatches = 4;  // mini-batch size 2048 (Table 3)
  cfg.max_concurrency = 256;
  cfg.sampler = SamplerKind::kFifo;
  cfg.warmup_iterations = 0;
  return cfg;
}

std::vector<SystemReport> RunSweep(const std::vector<RlSystemConfig>& configs) {
  if (!BenchTracingEnabled()) {
    return RunExperiments(configs);
  }
  std::vector<RlSystemConfig> armed = configs;
  for (RlSystemConfig& cfg : armed) {
    ArmTrace(cfg);
  }
  std::vector<SystemReport> reports = RunExperiments(armed);
  for (const SystemReport& rep : reports) {
    MaybeWriteTrace(rep);
  }
  return reports;
}

bool ParseCountFlag(const char* flag, const char* text, int* out) {
  const char* end = text + std::strlen(text);
  int value = 0;
  auto [stop, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || stop != end || value < 1) {
    std::fprintf(stderr, "%s takes an integer >= 1, got '%s'\n", flag, text);
    return false;
  }
  *out = value;
  return true;
}

void Banner(const std::string& title) {
  std::string bar(title.size() + 8, '=');
  std::printf("\n%s\n==  %s  ==\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

std::string Tps(double v) { return Table::Int(v); }

}  // namespace laminar
