#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/logging.h"

namespace laminar {

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMathReasoning:
      return "math";
    case TaskKind::kToolCalling:
      return "tool-calling";
  }
  return "?";
}

WorkloadGenerator::WorkloadGenerator(WorkloadConfig config, Rng rng)
    : config_(config), rng_(rng),
      response_lengths_(MathLengthDistribution(config.scale)),
      turn_lengths_(ToolTurnLengthDistribution()),
      env_latency_(SandboxLatencyDistribution()) {}

TrajectorySpec WorkloadGenerator::Sample(int weight_version) {
  TrajectorySpec spec;
  spec.prompt_tokens = rng_.UniformInt(config_.prompt_tokens_min, config_.prompt_tokens_max);
  double drift =
      config_.length_drift ? LengthDriftFactor(std::max(weight_version, 0)) : 1.0;

  if (config_.task == TaskKind::kMathReasoning) {
    auto lengths = response_lengths_;
    lengths.median_tokens *= drift;
    spec.ResetSegments(1)[0].decode_tokens = lengths.Sample(rng_);
    return spec;
  }

  // Tool calling: difficulty scales both the number of sandbox rounds and the
  // per-turn reasoning length, so hard prompts are long in *both* dimensions
  // (the paper's worst-case skew).
  double difficulty = rng_.Uniform();
  int turns = 1 + static_cast<int>(std::floor(difficulty * difficulty * config_.max_tool_calls));
  turns = std::clamp(turns, 1, config_.max_tool_calls);
  auto lengths = turn_lengths_;
  lengths.median_tokens *= drift * (0.8 + 0.6 * difficulty);
  std::span<TrajectorySegment> segments = spec.ResetSegments(static_cast<size_t>(turns));
  for (int t = 0; t < turns; ++t) {
    TrajectorySegment& seg = segments[static_cast<size_t>(t)];
    seg.decode_tokens = lengths.Sample(rng_);
    bool has_env_call = t + 1 < turns;  // the final segment is the answer
    if (has_env_call) {
      seg.env_latency = env_latency_.Sample(rng_) * config_.time_scale;
      seg.feedback_tokens = rng_.UniformInt(64, 512);
    }
  }
  return spec;
}

double WorkloadGenerator::ExpectedResponseTokens() const {
  if (config_.task == TaskKind::kMathReasoning) {
    return response_lengths_.mean_estimate();
  }
  // Mean turns for turns = 1 + floor(u^2 * max): E[u^2] = 1/3.
  double mean_turns = 1.0 + config_.max_tool_calls / 3.0;
  return mean_turns * turn_lengths_.mean_estimate() * 1.1;
}

double WorkloadGenerator::ExpectedTotalTokens() const {
  double prompt =
      0.5 * static_cast<double>(config_.prompt_tokens_min + config_.prompt_tokens_max);
  return prompt + ExpectedResponseTokens();
}

}  // namespace laminar
