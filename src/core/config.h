// Experiment configuration and result report shared by every system driver.
#ifndef LAMINAR_SRC_CORE_CONFIG_H_
#define LAMINAR_SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "src/cluster/hardware.h"
#include "src/cluster/placement.h"
#include "src/common/stats.h"
#include "src/fault/fault_process.h"
#include "src/policy/policy.h"
#include "src/trace/trace.h"
#include "src/trainer/trainer.h"
#include "src/workload/generator.h"
#include "src/workload/serving_traffic.h"

namespace laminar {

enum class SamplerKind { kFifo, kFreshness, kStalenessCapped };

// Direct boot is the only recovery path; nothing in src/ reads restore_mode.
// It stays while perfbench/perfbench.cc assigns it (see ROADMAP).
enum class RestoreMode { kDirect };

struct RlSystemConfig {
  SystemKind system = SystemKind::kLaminar;
  ModelScale scale = ModelScale::k7B;
  TaskKind task = TaskKind::kMathReasoning;
  int total_gpus = 16;
  // When zero, train/rollout GPUs come from the paper's Table 2.
  int train_gpus = 0;
  int rollout_gpus = 0;

  // RL settings (paper §8 "Settings" and Table 3).
  int global_batch = 8192;
  int group_size = 16;
  int num_minibatches = 16;
  RlAlgorithm algorithm = RlAlgorithm::kGrpo;
  // Per-rollout concurrency cap (1024 throughput runs / 256 convergence).
  int max_concurrency = 1024;
  // Trajectories per replica assignment cycle; 0 = auto (global batch spread
  // over the replicas, clamped to max_concurrency).
  int per_replica_batch = 0;
  // Completed-but-unconsumed trajectory cap before generation throttles
  // (asynchronous systems); 0 = auto (2 global batches).
  int64_t backlog_cap = 0;
  SamplerKind sampler = SamplerKind::kFifo;
  int staleness_cap = 4;  // for SamplerKind::kStalenessCapped

  // Laminar knobs.
  bool repack_enabled = true;
  double repack_period_seconds = 5.0;
  bool repack_static_threshold = false;  // ablation detector
  int repack_static_threshold_requests = 8;
  // Appendix-C extension: graft partial rollout onto Laminar — in-flight
  // trajectories adopt each new version as soon as their local relay has it,
  // paying KV recomputation and producing mixed-version trajectories.
  bool laminar_partial_rollout = false;

  // Workload knobs.
  bool length_drift = false;

  // Online serving tier (Laminar system only, DESIGN.md §14): diurnal
  // request arrivals with per-request SLO deadlines, admitted into the
  // rollout replicas ahead of training work. Default off — a disabled tier
  // is byte-invisible in every report, trace and fingerprint.
  ServingTrafficConfig serving;

  // Chaos engine (Laminar system only). When enabled, a seeded FaultProcess
  // generates a Poisson fault schedule over the run and the injector fires it
  // against machines, relays, replicas and the trainer. `chaos` rates default
  // to zero — callers pick which fault classes to arm.
  bool chaos_enabled = false;
  uint64_t chaos_seed = 0;
  FaultProcessConfig chaos;
  // System-wide invariant auditing (independent of chaos_enabled, but chaos
  // runs should always arm it).
  bool invariants_enabled = false;

  // Per-trajectory ledger capture (src/verify differential oracles): when
  // enabled, every experience-buffer push is recorded and the ledger is
  // attached to the SystemReport.
  bool ledger_enabled = false;

  // Structured tracing (src/trace). When enabled, the driver owns a
  // TraceSink, every subsystem emits into it, and the captured buffer is
  // attached to the SystemReport.
  TraceConfig trace;

  // Snapshot / restore (src/snapshot, DESIGN.md §13). When
  // snapshot_at_seconds > 0 the driver pauses the run at the first event
  // boundary at or past this time, serializes every stateful component into
  // an LMSNAP1 witness and attaches it to the report. snapshot_verify, when
  // set, additionally verifies the live state field-by-field against the
  // given blob at that same barrier (on a direct boot: the adopted state at
  // the boot barrier) and reports any mismatches (the fuzzer's
  // snapshot/restore oracle).
  double snapshot_at_seconds = 0.0;
  std::shared_ptr<const std::string> snapshot_verify;
  // Direct-boot restore: when set, Run() builds the system, adopts every
  // component's state from this LMSNAP1 blob, re-mints the pending event heap
  // through the continuation registry and resumes — without replaying the
  // pre-barrier prefix. The restored run must be byte-identical (fingerprint,
  // trace, ledger, re-snapshot blob) to a run that never stopped. Every
  // event of every driver is a continuation descriptor, so the blob's event
  // heap is always complete (its heap_complete flag is always true). Direct
  // boot is Laminar-only: the baselines do not serialize their orchestration
  // state, and a baseline's boot aborts naming it. With tracing on, the blob
  // must come from full-capture mode.
  std::shared_ptr<const std::string> restore_from;
  RestoreMode restore_mode = RestoreMode::kDirect;

  // Metamorphic scaling knob: multiplies every hardware rate (GPU FLOPs, HBM,
  // NVLink/PCIe/RDMA bandwidths) by this factor and every fixed latency or
  // period by its inverse, producing a run that is exactly the baseline with
  // the time axis compressed by 1/hardware_speed. Power-of-two values scale
  // IEEE doubles exactly, which the property tests rely on.
  double hardware_speed = 1.0;

  // Run control. The paper warms up 10 iterations and measures 5; the
  // simulator defaults are smaller so full sweeps stay cheap, and tests for
  // determinism use exact seeds.
  int warmup_iterations = 2;
  int measure_iterations = 3;
  double max_sim_seconds = 200000.0;
  double sample_period_seconds = 10.0;
  uint64_t seed = 42;

  std::string Label() const;
  Placement ResolvePlacement() const;
};

// One experience-buffer push, recorded when RlSystemConfig::ledger_enabled.
// The workload generator draws trajectory specs from seed-forked streams in
// issue (id) order, so two runs sharing a config seed — regardless of system
// kind, repack decisions or scheduling — must agree on the spec-derived
// fields of every id they both complete. That is the basis of the verify
// module's differential oracles. generation_version is timing-dependent and
// recorded for diagnostics only.
struct LedgerEntry {
  int64_t id = -1;         // TrajId
  int64_t prompt_id = -1;
  int group_index = 0;
  int64_t total_tokens = 0;  // spec context tokens (prompt + decode + feedback)
  int num_segments = 0;
  int generation_version = 0;
};

struct RunLedger {
  int64_t prompts_issued = 0;
  int64_t trajectories_issued = 0;
  int64_t trajectories_consumed = 0;
  // Sampled for iterations a trainer failure aborted (checkpoint recovery
  // re-samples, so these count toward consumed but toward no iteration).
  int64_t trajectories_discarded = 0;
  std::vector<LedgerEntry> pushes;  // in buffer-push order
};

struct SystemReport {
  std::string label;
  SystemKind system = SystemKind::kLaminar;
  int total_gpus = 0;
  int train_gpus = 0;
  int rollout_gpus = 0;
  int num_replicas = 0;

  // Headline metric: (prompt+response) tokens per global batch divided by
  // the RL iteration duration, averaged over the measured iterations.
  double throughput_tokens_per_sec = 0.0;
  double mean_iteration_seconds = 0.0;
  int iterations_completed = 0;

  // Breakdown (meaningful for lockstep systems).
  double generation_fraction = 0.0;
  double train_fraction = 0.0;

  // Staleness.
  double mean_consume_staleness = 0.0;
  double max_consume_staleness = 0.0;
  double mean_inherent_staleness = 0.0;
  double max_inherent_staleness = 0.0;
  double mixed_version_fraction = 0.0;

  // Weight synchronization.
  double actor_stall_mean_seconds = 0.0;
  double rollout_wait_mean_seconds = 0.0;
  double rollout_wait_best_seconds = 0.0;
  double rollout_wait_p99_seconds = 0.0;

  // Rollout engine.
  double avg_kv_utilization = 0.0;
  double avg_decode_batch = 0.0;
  double rollout_busy_fraction = 0.0;
  double mean_traj_seconds = 0.0;
  double max_traj_seconds = 0.0;

  // Rollout engine aggregates.
  int64_t total_decode_tokens = 0;
  int64_t total_prefill_tokens = 0;
  int64_t total_preemptions = 0;

  // Repack.
  int64_t repack_events = 0;
  int64_t repack_sources_released = 0;
  int64_t repack_trajectories_migrated = 0;
  double repack_overhead_mean_seconds = 0.0;

  // Convergence.
  double final_eval_reward = 0.0;
  TimeSeries reward_series;       // eval reward vs wall-clock
  TimeSeries train_reward_series; // batch mean reward vs wall-clock

  // Timelines (Figures 15/16).
  TimeSeries generation_rate;  // decode tokens/s sampled periodically
  TimeSeries training_rate;    // consumed tokens/s per iteration
  TimeSeries buffer_depth;     // experience-buffer size sampled periodically

  // Figure 10: (finish time, inherent staleness) pairs.
  std::vector<std::pair<double, int>> staleness_samples;

  // Chaos / robustness (populated by the Laminar driver when armed).
  int64_t faults_injected = 0;
  int64_t slow_events = 0;
  int64_t slow_recoveries = 0;
  int64_t duplicates_suppressed = 0;
  int64_t trajectories_dropped = 0;
  int64_t invariant_checks = 0;
  int64_t invariant_violations = 0;

  // Online serving tier (populated only when RlSystemConfig::serving.enabled;
  // with the tier off none of these reach the report CSV or fingerprint).
  bool serving_enabled = false;
  int64_t serving_requests = 0;        // arrivals delivered to the manager
  int64_t serving_admitted = 0;        // placed onto a replica (first time)
  int64_t serving_rejected = 0;        // SLO infeasible at admission
  int64_t serving_completed = 0;
  int64_t serving_timed_out = 0;       // expired while queued
  int64_t serving_failed = 0;          // lost to a machine failure
  int64_t serving_deadline_hits = 0;   // completions within deadline
  int64_t serving_deadline_misses = 0; // completions past deadline
  int64_t serving_preemptions = 0;     // rollout works evicted for serving
  int64_t serving_inflight_at_end = 0; // queued + resident when the run ended
  double serving_latency_mean_seconds = 0.0;
  double serving_latency_p50_seconds = 0.0;
  double serving_latency_p99_seconds = 0.0;
  // deadline_hits / (completed + timed_out + failed); 0 when no request
  // reached a terminal state.
  double serving_slo_attainment = 0.0;

  // Bookkeeping.
  std::vector<IterationStats> iterations;
  uint64_t simulated_events = 0;
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;

  // Captured trace (null unless RlSystemConfig::trace.enabled). Shared so
  // reports stay cheaply copyable.
  std::shared_ptr<const TraceBuffer> trace;

  // Push ledger (null unless RlSystemConfig::ledger_enabled).
  std::shared_ptr<const RunLedger> ledger;

  // Snapshot witness (null unless RlSystemConfig::snapshot_at_seconds > 0
  // and the run reached it). `snapshot_taken_at_seconds` is the event
  // boundary the capture landed on; `snapshot_mismatches` holds the verify
  // diff against RlSystemConfig::snapshot_verify (empty = byte-identical).
  std::shared_ptr<const std::string> snapshot;
  double snapshot_taken_at_seconds = 0.0;
  std::vector<std::string> snapshot_mismatches;

  // Direct-boot restore diagnostics (RlSystemConfig::restore_from). The
  // adoption wall-clock (parse + adopt + re-mint, excluding the post-boot
  // simulation) and the re-snapshot taken at the boot barrier — which must be
  // byte-identical to the blob the run booted from.
  double restore_wall_seconds = 0.0;
  bool restored = false;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_CORE_CONFIG_H_
