// Roofline latency model for auto-regressive decoding (paper Figure 4, §5.2).
//
// One decode step reads the weight shard plus every running sequence's
// KVCache from HBM and performs ~2*P FLOPs per sequence. Decoding is
// memory-bound until the batch is large enough that compute catches up; the
// crossover batch size is the roofline bound B used by the repack algorithm.
// Tensor parallelism shards both weights and KV heads across `tp` GPUs but
// adds per-layer all-reduce traffic over NVLink.
//
// The model is evaluated once per replica advance, which makes it the
// innermost arithmetic of the whole simulation. The spec-derived terms
// (weight-shard bytes, KV bytes/token, FLOP divisors) are hoisted into
// constants at construction; everything else is evaluated directly, so a
// DecodeModel holds no mutable state. A hoisted constant is exactly the
// subexpression the written-out formula evaluates first (no reassociation),
// so results are bit-identical to it (decode_model_test.cc asserts this).
#ifndef LAMINAR_SRC_LLM_DECODE_MODEL_H_
#define LAMINAR_SRC_LLM_DECODE_MODEL_H_

#include "src/cluster/hardware.h"
#include "src/llm/model_spec.h"

namespace laminar {

class DecodeModel {
 public:
  DecodeModel(ModelSpec model, MachineSpec machine, int tensor_parallel);

  // Latency of one decode step (one new token for each of `batch` running
  // sequences whose mean context length is `avg_context_tokens`).
  double StepLatency(int batch, double avg_context_tokens) const;

  // Memory-traffic component of the step (weights + KV reads), seconds.
  double MemoryTime(int batch, double avg_context_tokens) const;
  // Compute component of the step, seconds.
  double ComputeTime(int batch, double avg_context_tokens) const;
  // Tensor-parallel all-reduce cost per step, seconds (0 for tp == 1).
  double TpCommTime(int batch) const;
  // Fixed kernel-launch/scheduling overhead per step, seconds.
  double KernelOverhead() const { return kernel_overhead_; }

  // Time to prefill `tokens` of prompt/context (compute-bound), seconds.
  // Used for prompt processing, partial-rollout KV recomputation, and
  // trajectory migration during repack.
  double PrefillLatency(double tokens) const;

  // The roofline batch bound B (paper §5.2): the batch size at which one
  // decode step transitions from memory-bound (dominated by the fixed
  // weight-shard read) to compute-bound (per-sequence FLOPs). Up to B,
  // adding sequences is ~free; beyond it, latency grows with the batch.
  // `slack` scales the bound (>1 tolerates a mild latency increase).
  int RooflineBatchBound(double avg_context_tokens, double slack = 1.0) const;

  // Total KVCache capacity of a replica, in tokens (GPU memory minus weights
  // and an activation reserve, across all tp GPUs).
  double KvCapacityTokens(double gpu_memory_utilization = 0.90,
                          double activation_reserve_bytes = 2.0e9) const;

  const ModelSpec& model() const { return model_; }
  int tensor_parallel() const { return tp_; }

 private:
  ModelSpec model_;
  MachineSpec machine_;
  int tp_;

  // Spec-derived constants, hoisted at construction. Each is exactly the
  // subexpression the un-hoisted formula computed first anyway (same
  // operation order), so results are bit-identical.
  double weight_shard_bytes_ = 0.0;   // weight_bytes() / tp
  double kv_bytes_per_token_ = 0.0;   // model_.kv_bytes_per_token()
  double forward_flops_ = 0.0;        // model_.forward_flops_per_token()
  double attn_layers_x4_ = 0.0;       // 4.0 * num_layers (attention prefix)
  double decode_flops_divisor_ = 0.0;   // tp * peak_bf16 * decode_efficiency
  double prefill_flops_divisor_ = 0.0;  // tp * peak_bf16 * prefill_efficiency
  double kernel_overhead_ = 0.0;
  double roofline_weight_read_ = 0.0;  // weight_bytes() / tp / effective_hbm()
};

}  // namespace laminar

#endif  // LAMINAR_SRC_LLM_DECODE_MODEL_H_
