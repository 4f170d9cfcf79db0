// Shared helpers for the figure/table reproduction harnesses.
#ifndef LAMINAR_BENCH_BENCH_UTIL_H_
#define LAMINAR_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/run.h"
#include "src/exp/sweep.h"

namespace laminar {

// Standard throughput-experiment configuration (paper §8 "Settings"):
// global batch 8192 = 512 prompts x 16 responses, 16 mini-batches,
// per-rollout concurrency 1024. Iteration counts are scaled down from the
// paper's 10+5 to keep the full sweep fast; the simulator is deterministic,
// so fewer samples suffice.
RlSystemConfig ThroughputConfig(SystemKind system, ModelScale scale, int total_gpus,
                                TaskKind task = TaskKind::kMathReasoning);

// Convergence-experiment configuration (paper Table 3): mini-batch 2048
// (4 mini-batch steps), per-rollout concurrency 256, FIFO sampling.
RlSystemConfig ConvergenceConfig(SystemKind system, ModelScale scale, int total_gpus);

// Fans a config grid out across hardware threads (src/exp/sweep.h). Results
// come back in submission order and are identical to calling RunExperiment()
// on each config serially. Harnesses build the grid in display order, sweep
// once, then walk the reports with a cursor. When --trace-out is armed (see
// InitBenchTracing), every experiment captures a full trace and the files are
// written in submission order after the sweep.
std::vector<SystemReport> RunSweep(const std::vector<RlSystemConfig>& configs);

// --trace-out support -----------------------------------------------------
// Every harness accepts `--trace-out <path>` (or --trace-out=<path>): each
// experiment then records a structured trace, written as
// "<base>.<NNN><ext>" in submission order — Chrome/Perfetto JSON when the
// path ends in ".json", the compact binary format otherwise. Notices go to
// stderr so table output on stdout stays byte-identical.
void InitBenchTracing(int argc, char** argv);
bool BenchTracingEnabled();
// Enables trace capture on `cfg` when --trace-out was given (for harnesses
// that build drivers directly instead of going through RunSweep).
void ArmTrace(RlSystemConfig& cfg);
// Writes the report's trace (if any) to the next numbered output file.
void MaybeWriteTrace(const SystemReport& report);

// Parses a count flag's value (--seeds, --reps): a decimal integer >= 1.
// Anything else prints "<flag> takes an integer >= 1, got '<text>'" to stderr
// and returns false; the caller exits 2.
bool ParseCountFlag(const char* flag, const char* text, int* out);

// Prints a section header.
void Banner(const std::string& title);

// Formats "123,456" tokens/s.
std::string Tps(double v);

}  // namespace laminar

#endif  // LAMINAR_BENCH_BENCH_UTIL_H_
