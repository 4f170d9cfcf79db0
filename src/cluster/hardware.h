// Hardware description of the simulated testbed.
//
// The paper's testbed is 128 machines x 8 NVIDIA H800-80GB, NVLink 400 GB/s
// intra-machine, 8 x 400 Gbps RDMA NICs inter-machine. These specs feed the
// roofline decode model (src/llm), the relay broadcast model (src/relay) and
// the weight-pull paths (PCIe).
#ifndef LAMINAR_SRC_CLUSTER_HARDWARE_H_
#define LAMINAR_SRC_CLUSTER_HARDWARE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace laminar {

// Per-GPU capabilities.
struct GpuSpec {
  std::string name = "H800-80GB";
  double memory_bytes = 80.0e9;
  // Peak HBM bandwidth and the fraction achievable by decode kernels at
  // large batch. Small batches utilize far less of the memory system (GEMV
  // kernels, low occupancy), which is what makes solo long-tail decoding so
  // slow in practice; the fraction ramps from `hbm_small_batch_floor` toward
  // `hbm_efficiency` with batch size.
  double hbm_bandwidth = 3.35e12;       // bytes/s
  double hbm_efficiency = 0.85;
  double hbm_small_batch_floor = 0.28;  // fraction of hbm_efficiency at batch 1
  double hbm_half_batch = 12.0;         // batch at which half the ramp is reached
  // Peak dense BF16 throughput and the fraction achievable (MFU-style).
  double peak_flops_bf16 = 989e12;      // FLOP/s
  double decode_flops_efficiency = 0.55;
  double prefill_flops_efficiency = 0.55;
  double train_flops_efficiency = 0.32;  // FSDP RL fine-tuning MFU (padding, comm)
  // Multiplier on host-side fixed costs (kernel launches, serving-engine step
  // scheduling, optimizer-step overhead). Carried on the GPU spec because
  // every cost model receives one; the hardware_speed metamorphic knob scales
  // it with 1/k so fixed latencies dilate exactly like bandwidth-derived ones.
  double host_overhead_scale = 1.0;

  double effective_hbm() const { return hbm_bandwidth * hbm_efficiency; }
  // Achievable memory bandwidth when decoding a batch of `batch` sequences.
  double effective_hbm_at_batch(int batch) const {
    double b = static_cast<double>(batch < 1 ? 1 : batch);
    double ramp = hbm_small_batch_floor +
                  (1.0 - hbm_small_batch_floor) * b / (b + hbm_half_batch);
    return hbm_bandwidth * hbm_efficiency * ramp;
  }
};

// Per-machine interconnects and layout.
struct MachineSpec {
  int gpus_per_machine = 8;
  GpuSpec gpu;
  double nvlink_bandwidth = 400.0e9;  // bytes/s per GPU pair direction
  // Host <-> GPU PCIe bandwidth per GPU (Gen5 x16 effective).
  double pcie_bandwidth = 50.0e9;  // bytes/s
  // Aggregate inter-machine RDMA bandwidth (8 x 400 Gbps) and per-flow share.
  double rdma_total_bandwidth = 8.0 * 400.0e9 / 8.0;  // bytes/s = 400 GB/s
  double rdma_flow_bandwidth = 400.0e9 / 8.0;         // one NIC, bytes/s = 50 GB/s
  // RDMA per-message startup latency (T_start in Appendix D).
  double rdma_startup_latency = 5.0e-6;  // seconds
  double host_memory_bytes = 2.0e12;     // plenty for relay weight hosting
};

// The whole cluster.
struct ClusterSpec {
  int num_machines = 128;
  MachineSpec machine;

  int total_gpus() const { return num_machines * machine.gpus_per_machine; }
  static ClusterSpec ForGpus(int total_gpus);
};

// Identifies one machine in the cluster. Machines host relay workers and one
// or more rollout replicas (or trainer shards).
struct MachineId {
  int index = -1;
  bool operator==(const MachineId&) const = default;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_CLUSTER_HARDWARE_H_
