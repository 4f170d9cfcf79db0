// Bit-exactness of the decode-latency model (DESIGN.md §11).
//
// DecodeModel hoists its spec-derived constants at construction and
// evaluates everything else directly. The hoisting must be invisible: every
// answer has to be bit-identical to the written-out formula, or simulation
// runs stop being reproducible against the corpus fingerprints. Comparisons
// here are exact (==), not EXPECT_DOUBLE_EQ.
#include "src/llm/decode_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/cluster/hardware.h"
#include "src/llm/model_spec.h"

// Counts every global allocation in this binary, so a test can pin that the
// model evaluates without touching the heap. Both scalar news are replaced
// because both are freed through the replaced delete (sanitizer runtimes
// would otherwise report a new/free mismatch); array new and delete forward
// to the scalar forms by default.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new
// expression and warns about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace laminar {
namespace {

const int kBatches[] = {1, 2, 7, 64, 255, 1024};
const double kContexts[] = {0.5, 100.0, 1000.25, 2048.0, 4096.75, 8191.5};

TEST(DecodeModelMemoTest, StepLatencyMatchesUnmemoizedFormula) {
  // The formula written out, same operation order. Hoisting only
  // precomputes prefixes of these expressions, so the results must be
  // bit-identical, not merely close.
  MachineSpec machine;
  ModelSpec model = Qwen25_32B();
  for (int tp : {1, 8}) {
    DecodeModel m(model, machine, tp);
    for (int batch : kBatches) {
      for (double ctx : kContexts) {
        double kv_read =
            static_cast<double>(batch) * ctx * model.kv_bytes_per_token() / tp;
        double mem = (model.weight_bytes() / tp + kv_read) /
                     machine.gpu.effective_hbm_at_batch(batch);
        double flops_per_token =
            model.forward_flops_per_token() +
            4.0 * model.num_layers * ctx * model.num_heads * model.head_dim;
        double compute = static_cast<double>(batch) * flops_per_token /
                         (tp * machine.gpu.peak_flops_bf16 *
                          machine.gpu.decode_flops_efficiency);
        double tp_comm = 0.0;
        if (tp != 1) {
          double bytes_per_allreduce =
              static_cast<double>(batch) * model.hidden_size * model.bytes_per_param;
          double ring_factor = 2.0 * (tp - 1) / static_cast<double>(tp);
          double transfer =
              bytes_per_allreduce * ring_factor / machine.nvlink_bandwidth;
          const double launch = 8.0e-6 * machine.gpu.host_overhead_scale;
          tp_comm = 2.0 * model.num_layers * (transfer + launch);
        }
        double overhead = (1000.0e-6 + 12.0e-6 * model.num_layers) *
                          machine.gpu.host_overhead_scale;
        double expected = std::max(mem, compute) + tp_comm + overhead;
        EXPECT_EQ(m.StepLatency(batch, ctx), expected)
            << "tp=" << tp << " batch=" << batch << " ctx=" << ctx;
      }
    }
  }
}

TEST(DecodeModelMemoTest, PrefillLatencyMatchesWrittenOutFormula) {
  MachineSpec machine;
  ModelSpec model = Qwen25_72B();
  DecodeModel m(model, machine, 8);
  const double kTokens[] = {1.0, 512.0, 4096.5, 100000.0};
  for (double tokens : kTokens) {
    double compute = tokens * model.forward_flops_per_token() /
                     (8 * machine.gpu.peak_flops_bf16 *
                      machine.gpu.prefill_flops_efficiency);
    double overhead = (1000.0e-6 + 12.0e-6 * model.num_layers) *
                      machine.gpu.host_overhead_scale;
    EXPECT_EQ(m.PrefillLatency(tokens), compute + overhead) << "tokens=" << tokens;
  }
  EXPECT_EQ(m.PrefillLatency(0.0), 0.0);
  EXPECT_EQ(m.PrefillLatency(-3.0), 0.0);
}

TEST(DecodeModelMemoTest, ComponentAccessorsConsistentWithStep) {
  // StepLatency must equal its published decomposition.
  MachineSpec machine;
  DecodeModel m(Qwen25_32B(), machine, 4);
  for (int batch : kBatches) {
    for (double ctx : kContexts) {
      double expected = std::max(m.MemoryTime(batch, ctx), m.ComputeTime(batch, ctx)) +
                        m.TpCommTime(batch) + m.KernelOverhead();
      EXPECT_EQ(m.StepLatency(batch, ctx), expected);
    }
  }
  EXPECT_EQ(DecodeModel(Qwen25_32B(), machine, 1).TpCommTime(64), 0.0);
}

TEST(DecodeModelMemoTest, ZeroBatchIsFree) {
  MachineSpec machine;
  DecodeModel m(Qwen25_7B(), machine, 1);
  EXPECT_EQ(m.StepLatency(0, 1000.0), 0.0);
}

TEST(DecodeModelMemoTest, StepLatencyAllocatesNothingAsBatchGrows) {
  // A replica's batch grows one sequence at a time and its mean context
  // moves with every decode step, so the model sees ever new (batch, ctx)
  // pairs. Evaluating them must cost no memory; a per-batch table would
  // allocate as each new batch size arrives.
  MachineSpec machine;
  for (int tp : {1, 4}) {
    DecodeModel m(Qwen25_7B(), machine, tp);
    double sum = 0.0;
    int64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int batch = 1; batch <= 1024; ++batch) {
      double ctx = 100.0 + 3.25 * batch;
      sum += m.StepLatency(batch, ctx) + m.PrefillLatency(ctx);
    }
    int64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(allocations, 0) << "tp=" << tp;
    EXPECT_GT(sum, 0.0);
  }
}

}  // namespace
}  // namespace laminar
