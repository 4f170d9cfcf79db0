#include "src/llm/decode_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace laminar {

DecodeModel::DecodeModel(ModelSpec model, MachineSpec machine, int tensor_parallel)
    : model_(std::move(model)), machine_(std::move(machine)), tp_(tensor_parallel) {
  LAMINAR_CHECK_GT(tp_, 0);
  LAMINAR_CHECK_LE(tp_, machine_.gpus_per_machine);
  weight_shard_bytes_ = model_.weight_bytes() / tp_;
  kv_bytes_per_token_ = model_.kv_bytes_per_token();
  forward_flops_ = model_.forward_flops_per_token();
  attn_layers_x4_ = 4.0 * model_.num_layers;
  decode_flops_divisor_ =
      tp_ * machine_.gpu.peak_flops_bf16 * machine_.gpu.decode_flops_efficiency;
  prefill_flops_divisor_ =
      tp_ * machine_.gpu.peak_flops_bf16 * machine_.gpu.prefill_flops_efficiency;
  // CPU-side scheduling (serving-engine step overhead) plus per-layer
  // kernel launches.
  constexpr double kPerLayer = 12.0e-6;
  constexpr double kFixed = 1000.0e-6;
  kernel_overhead_ = (kFixed + kPerLayer * model_.num_layers) * machine_.gpu.host_overhead_scale;
  roofline_weight_read_ = model_.weight_bytes() / tp_ / machine_.gpu.effective_hbm();
}

double DecodeModel::MemoryTime(int batch, double avg_context_tokens) const {
  // Each GPU streams its weight shard once per step plus its share of every
  // running sequence's KV. Shards are read in parallel, so per-GPU traffic is
  // the step's critical path.
  double kv_read =
      static_cast<double>(batch) * avg_context_tokens * kv_bytes_per_token_ / tp_;
  return (weight_shard_bytes_ + kv_read) / machine_.gpu.effective_hbm_at_batch(batch);
}

double DecodeModel::ComputeTime(int batch, double avg_context_tokens) const {
  double flops_per_token =
      forward_flops_ +
      attn_layers_x4_ * avg_context_tokens * model_.num_heads * model_.head_dim;
  double flops = static_cast<double>(batch) * flops_per_token;
  return flops / decode_flops_divisor_;
}

double DecodeModel::TpCommTime(int batch) const {
  if (tp_ == 1) {
    return 0.0;
  }
  // Two ring all-reduces per layer over the activations of the whole batch.
  double bytes_per_allreduce =
      static_cast<double>(batch) * model_.hidden_size * model_.bytes_per_param;
  double ring_factor = 2.0 * (tp_ - 1) / static_cast<double>(tp_);
  double transfer = bytes_per_allreduce * ring_factor / machine_.nvlink_bandwidth;
  // Per-all-reduce launch latency dominates for the tiny decode activations.
  const double launch = 8.0e-6 * machine_.gpu.host_overhead_scale;
  return 2.0 * model_.num_layers * (transfer + launch);
}

double DecodeModel::StepLatency(int batch, double avg_context_tokens) const {
  LAMINAR_CHECK_GE(batch, 0);
  if (batch == 0) {
    return 0.0;
  }
  double mem = MemoryTime(batch, avg_context_tokens);
  double compute = ComputeTime(batch, avg_context_tokens);
  return std::max(mem, compute) + TpCommTime(batch) + KernelOverhead();
}

double DecodeModel::PrefillLatency(double tokens) const {
  if (tokens <= 0.0) {
    return 0.0;
  }
  double flops = tokens * forward_flops_;
  double compute = flops / prefill_flops_divisor_;
  return compute + KernelOverhead();
}

int DecodeModel::RooflineBatchBound(double avg_context_tokens, double slack) const {
  LAMINAR_CHECK_GE(slack, 1.0);
  // Memory-bound side: the weight-shard read is a fixed cost per step.
  // Compute side grows linearly with the batch.
  double flops_per_seq =
      forward_flops_ +
      attn_layers_x4_ * avg_context_tokens * model_.num_heads * model_.head_dim;
  double compute_per_seq = flops_per_seq / decode_flops_divisor_;
  int bound = static_cast<int>(slack * roofline_weight_read_ / compute_per_seq);
  return std::max(bound, 1);
}

double DecodeModel::KvCapacityTokens(double gpu_memory_utilization,
                                     double activation_reserve_bytes) const {
  double per_gpu_budget = machine_.gpu.memory_bytes * gpu_memory_utilization -
                          model_.weight_bytes() / tp_ - activation_reserve_bytes;
  LAMINAR_CHECK_GT(per_gpu_budget, 0.0)
      << model_.name << " does not fit on " << tp_ << " GPUs";
  double total_budget = per_gpu_budget * tp_;
  return total_budget / model_.kv_bytes_per_token();
}

}  // namespace laminar
