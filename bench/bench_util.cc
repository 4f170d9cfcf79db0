#include "bench/bench_util.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/table.h"
#include "src/snapshot/snapshot.h"
#include "src/trace/trace_io.h"

namespace laminar {
namespace {

std::string g_trace_out;     // empty = tracing off
int g_trace_index = 0;       // per-process trace file counter
double g_snapshot_at = 0.0;  // 0 = no snapshot barrier
std::string g_snapshot_out;  // empty = don't write warm-start files
int g_snapshot_index = 0;    // per-process snapshot file counter
bool g_restore_armed = false;
SnapshotFile g_restore;  // decoded --restore-from file
RestoreMode g_restore_mode = RestoreMode::kDirect;

bool ParseRestoreMode(const char* value) {
  if (std::strcmp(value, "direct") == 0) {
    g_restore_mode = RestoreMode::kDirect;
  } else if (std::strcmp(value, "replay") == 0) {
    g_restore_mode = RestoreMode::kReplay;
  } else {
    std::fprintf(stderr, "--restore-mode must be direct or replay\n");
    std::exit(2);
  }
  return true;
}

void LoadRestoreFile(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "--restore-from: cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream data;
  data << in.rdbuf();
  std::string error;
  if (!DecodeSnapshotFile(data.str(), &g_restore, &error)) {
    std::fprintf(stderr, "--restore-from: %s: %s\n", path, error.c_str());
    std::exit(2);
  }
  g_restore_armed = true;
}

}  // namespace

void InitBenchTracing(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      g_trace_out = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      g_trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--snapshot-at") == 0 && i + 1 < argc) {
      g_snapshot_at = std::atof(argv[++i]);
    } else if (std::strncmp(argv[i], "--snapshot-at=", 14) == 0) {
      g_snapshot_at = std::atof(argv[i] + 14);
    } else if (std::strcmp(argv[i], "--snapshot-out") == 0 && i + 1 < argc) {
      g_snapshot_out = argv[++i];
    } else if (std::strncmp(argv[i], "--snapshot-out=", 15) == 0) {
      g_snapshot_out = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--restore-from") == 0 && i + 1 < argc) {
      LoadRestoreFile(argv[++i]);
    } else if (std::strncmp(argv[i], "--restore-from=", 15) == 0) {
      LoadRestoreFile(argv[i] + 15);
    } else if (std::strcmp(argv[i], "--restore-mode") == 0 && i + 1 < argc) {
      ParseRestoreMode(argv[++i]);
    } else if (std::strncmp(argv[i], "--restore-mode=", 15) == 0) {
      ParseRestoreMode(argv[i] + 15);
    }
  }
}

bool BenchTracingEnabled() { return !g_trace_out.empty(); }

void ArmTrace(RlSystemConfig& cfg) {
  if (BenchTracingEnabled()) {
    cfg.trace.enabled = true;
  }
}

bool BenchSnapshotEnabled() {
  return g_snapshot_at > 0.0 || g_restore_armed;
}

void ArmSnapshot(RlSystemConfig& cfg) {
  if (g_restore_armed) {
    cfg.restore_from = std::make_shared<const std::string>(g_restore.blob);
    cfg.restore_mode = g_restore_mode;
  } else if (g_snapshot_at > 0.0) {
    cfg.snapshot_at_seconds = g_snapshot_at;
  }
}

void MaybeWriteSnapshot(const SystemReport& report) {
  if (!BenchSnapshotEnabled()) {
    return;
  }
  if (report.snapshot == nullptr) {
    std::fprintf(stderr, "snapshot: %s: no snapshot captured (barrier past the "
                 "end of the run?)\n", report.label.c_str());
    return;
  }
  if (g_restore_armed) {
    bool bytes_equal = *report.snapshot == g_restore.blob;
    std::fprintf(stderr, "snapshot: %s: %s restore vs %s at t=%.6g s in %.3f s "
                 "wall: %zu field mismatch(es), blob %s\n",
                 report.label.c_str(),
                 g_restore_mode == RestoreMode::kDirect ? "direct-boot" : "replay",
                 g_restore.scenario_text.empty() ? "(unlabeled)"
                                                 : g_restore.scenario_text.c_str(),
                 g_restore.snapshot_at, report.restore_wall_seconds,
                 report.snapshot_mismatches.size(),
                 bytes_equal ? "byte-identical" : "DIFFERS");
    for (const std::string& m : report.snapshot_mismatches) {
      std::fprintf(stderr, "snapshot:   %s\n", m.c_str());
    }
  }
  if (!g_snapshot_out.empty()) {
    std::string base = g_snapshot_out;
    std::string ext;
    size_t slash = base.find_last_of('/');
    size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
      ext = base.substr(dot);
      base.resize(dot);
    }
    char num[16];
    std::snprintf(num, sizeof(num), ".%03d", g_snapshot_index++);
    std::string path = base + num + ext;
    SnapshotFile file;
    file.scenario_text = report.label;
    file.snapshot_at = report.snapshot_taken_at_seconds;
    file.blob = *report.snapshot;
    std::ofstream out(path, std::ios::binary);
    std::string encoded = EncodeSnapshotFile(file);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    std::fprintf(stderr, "snapshot: %zu bytes at t=%.6g s -> %s\n",
                 encoded.size(), file.snapshot_at, path.c_str());
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
  if (!BenchTracingEnabled() && !BenchSnapshotEnabled()) {
    return RunExperiments(configs);
  }
  std::vector<RlSystemConfig> armed = configs;
  for (RlSystemConfig& cfg : armed) {
    ArmTrace(cfg);
    ArmSnapshot(cfg);
  }
  std::vector<SystemReport> reports = RunExperiments(armed);
  for (const SystemReport& rep : reports) {
    MaybeWriteTrace(rep);
    MaybeWriteSnapshot(rep);
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
