// Shared infrastructure for the five RL system drivers.
//
// A driver owns one simulated RL post-training job: the cluster, the rollout
// replicas, the data module, the policy and the trainer. Subclasses differ
// only in orchestration — how generation, training and weight synchronization
// depend on each other — which is exactly the paper's comparison axis.
#ifndef LAMINAR_SRC_CORE_DRIVER_BASE_H_
#define LAMINAR_SRC_CORE_DRIVER_BASE_H_

#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/data/experience_buffer.h"
#include "src/data/partial_response_pool.h"
#include "src/data/prompt_pool.h"
#include "src/llm/decode_model.h"
#include "src/llm/train_cost.h"
#include "src/relay/weight_sync.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"
#include "src/trainer/trainer.h"

namespace laminar {

class InvariantChecker;
class SnapshotTx;

class DriverBase : public ContinuationClient {
 public:
  // Continuation kinds owned by the driver itself (kContFamilyDriver). The
  // registry dispatches by virtual call, so a subclass registered under its
  // own component id still receives these through its override and delegates
  // back here — the 0xF000 base keeps driver kinds disjoint from any
  // subclass's kind space.
  enum Continuation : uint16_t {
    kContRateTick = 0xF000,  // periodic throughput/buffer-depth sampling
  };

  explicit DriverBase(RlSystemConfig config);
  ~DriverBase() override;
  DriverBase(const DriverBase&) = delete;
  DriverBase& operator=(const DriverBase&) = delete;

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override;

  // Builds, runs and reports one experiment. With cfg_.restore_from set the
  // run direct-boots instead: Setup() wires a fresh system, AdoptSnapshot()
  // seats every component's serialized state, the event heap is re-minted
  // through the continuation registry, and the run resumes from the barrier
  // without executing Begin() or replaying the prefix.
  SystemReport Run();

  // Snapshot / restore (src/snapshot, DESIGN.md §13) ----------------------------
  // Serializes every stateful component into one LMSNAP1 blob. Only valid at
  // an event boundary (never from inside an event callback); Run() calls it
  // at the cfg_.snapshot_at_seconds barrier.
  std::string TakeSnapshot();
  // Walks the identical traversal in verify mode against `blob`; returns the
  // field-level mismatches (empty = the live state is byte-identical to the
  // snapshot).
  std::vector<std::string> VerifySnapshot(const std::string& blob);

  Simulator& sim() { return sim_; }
  Trainer& trainer() { return *trainer_; }
  const RlSystemConfig& config() const { return cfg_; }
  const Placement& placement() const { return placement_; }

 protected:
  // System-specific wiring (replicas, relays, publish_fn, callbacks).
  virtual void Setup() = 0;
  // Kicks off generation/training.
  virtual void Begin() = 0;
  // Lets subclasses add their own report fields.
  virtual void Finalize(SystemReport& report) { (void)report; }
  // Called after every trainer iteration (before auto-continue logic).
  virtual void OnIteration(const IterationStats& stats) { (void)stats; }
  // Field enumeration behind TakeSnapshot/VerifySnapshot. The base covers the
  // simulator, RNG streams, data pools, trainer, replicas and the driver's
  // own accumulators; subclasses override to append their subsystems (and
  // must call the base first so traversal order is stable).
  virtual void SnapshotComponents(SnapshotTx& tx);

  // Builders used by Setup() ---------------------------------------------------
  // Creates `num_replicas` rollout replicas of `tensor_parallel` GPUs each;
  // machine ids start at `machine_offset` with 8 GPUs per machine.
  // `gpu_memory_utilization` is the fraction of GPU memory the serving
  // engine may use: ~0.9 disaggregated, much lower when colocated with the
  // training framework (resident FSDP state squeezes the KVCache).
  void BuildReplicas(int num_replicas, int tensor_parallel, int machine_offset = 0,
                     double gpu_memory_utilization = 0.90);
  void BuildTrainer(TrainerMode mode, bool auto_continue, TrainBackend backend);
  int MegatronPipelineParallel() const;
  // Wires completion/progress callbacks on all replicas (score + buffer push).
  void WireCompletion();

  // Creates one global batch of fresh work, split into per-replica chunks of
  // whole GRPO groups (static sharding, as verl-family systems do).
  std::vector<std::vector<TrajectoryWork>> MakeGlobalBatchChunks(int weight_version);

  // The GPU-direct global synchronization cost for baselines.
  double GlobalSyncSeconds() const;

  int NumRolloutMachines() const;
  int ResolvedPerReplicaBatch(int num_replicas) const;
  int64_t ResolvedBacklogCap() const;
  int RooflineBound() const;

  // Time dilation factor for fixed latencies/periods under
  // cfg_.hardware_speed (1 / hardware_speed). Subsystem Setup() methods
  // multiply their hard-coded time constants by this.
  double TimeScale() const { return 1.0 / cfg_.hardware_speed; }

  // True when this run direct-boots from cfg_.restore_from. Setup() methods
  // must not schedule events (scripted faults, initial pumps) in that case:
  // every pending event comes back from the blob's event_heap section.
  bool restoring() const { return cfg_.restore_from != nullptr; }

  // Data/state ------------------------------------------------------------------
  RlSystemConfig cfg_;
  Placement placement_;
  Simulator sim_;
  // Owns the capture buffer when cfg_.trace.enabled; armed on sim_ before
  // Setup() so every scheduled callback can emit.
  std::unique_ptr<TraceSink> trace_sink_;
  ModelSpec model_;
  MachineSpec machine_spec_;
  Rng root_rng_;
  Rng score_rng_;
  int rollout_tp_ = 1;

  std::unique_ptr<PromptPool> prompts_;
  PartialResponsePool partial_pool_;
  std::unique_ptr<ExperienceBuffer> buffer_;
  std::unique_ptr<Policy> policy_;
  std::unique_ptr<TrainCostModel> train_cost_;
  std::unique_ptr<Trainer> trainer_;
  std::vector<std::unique_ptr<RolloutReplica>> replicas_;
  std::vector<RolloutReplica*> replica_ptrs_;

  // Lockstep drivers report their phase split here (Figure 1b).
  double generation_phase_seconds_ = 0.0;
  double training_phase_seconds_ = 0.0;
  double other_phase_seconds_ = 0.0;

  // Rollout waiting-time samples for systems not using the relay tier.
  SampleSet rollout_wait_seconds_;
  SampleSet actor_stall_seconds_;

  // Armed by subclasses (before WireCompletion runs) when the run should be
  // audited; completions stream buffer pushes to it. Not owned.
  InvariantChecker* invariant_checker_ = nullptr;

  // Online serving completion route (DESIGN.md §14). Serving ids (the
  // kServingIdBase range) are intercepted at the top of OnTrajectoryComplete
  // — before the exactly-once pool gate, scoring, the ledger and the buffer —
  // and handed here instead. Unset when the serving tier is off.
  std::function<void(TrajectoryRecord)> serving_complete_fn_;

 private:
  void SampleRates();
  void OnTrajectoryComplete(TrajectoryRecord record);
  SystemReport AssembleReport(double wall_seconds);
  // Direct-boot adoption: parses `blob`, walks SnapshotComponents in adopt
  // mode so every component seats its serialized state, then re-mints the
  // pending event heap through the continuation registry. CHECK-fails on a
  // malformed blob or a non-reconstructible (closure) heap entry.
  void AdoptSnapshot(const std::string& blob);

  RunLedger ledger_;  // populated only when cfg_.ledger_enabled
  TimeSeries gen_rate_;
  TimeSeries train_rate_;
  TimeSeries buffer_depth_;
  TimeSeries reward_series_;
  TimeSeries train_reward_series_;
  SampleSet traj_durations_;
  std::vector<std::pair<double, int>> staleness_samples_;
  SampleSet inherent_staleness_all_;
  int64_t last_gen_tokens_ = 0;
  SimTime last_rate_sample_;
  SimTime prev_iteration_end_;
  std::unique_ptr<PeriodicTask> rate_task_;
  // Captured at the cfg_.snapshot_at_seconds barrier, attached to the report.
  std::string snapshot_blob_;
  double snapshot_taken_at_ = 0.0;
  std::vector<std::string> snapshot_mismatches_;
  // Direct-boot diagnostics: adoption wall-clock (parse + adopt + re-mint).
  double restore_wall_seconds_ = 0.0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_CORE_DRIVER_BASE_H_
