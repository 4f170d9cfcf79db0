// Rollout replica: an event-driven continuous-batching generation engine.
//
// The replica models a vLLM-style server occupying `tensor_parallel` GPUs.
// It maintains a decode batch of running trajectories, a queue of admitted
// but not-yet-cached trajectories, and a set of trajectories blocked on
// environment calls. Decoding advances in analytic jumps: between batch
// membership changes, per-step latency is constant, so the engine skips the
// clock straight to the next boundary (trajectory segment end, KVCache
// exhaustion, or a step cap that bounds interpolation error).
//
// An advance costs O(boundaries · log batch), not O(batch) (DESIGN.md §11,
// "Virtual step counter"). Every member of the decode batch decodes one
// token per step, so the replica counts steps once, in a virtual step
// counter, and each member records the step it joined at. A running integer
// context sum feeds the step-latency model, and a min-heap of
// segment-boundary steps yields both the next boundary and the members that
// reach it. A member's decode counters are materialized only where they are
// read: boundary hits, preemption victims, ExtractAllWork and snapshot
// writes. Environment-waiting work is kept in seq (admission) order, so a
// rejoin finds its entry by binary search.
//
// KVCache accounting follows the paper's Figure 9 lifecycle: admissions fill
// the cache to ~C_max, waiting trajectories backfill freed space, and only
// when the waiting queue drains does utilization ramp down — the signal the
// repack monitor keys on.
#ifndef LAMINAR_SRC_ROLLOUT_REPLICA_H_
#define LAMINAR_SRC_ROLLOUT_REPLICA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/stats.h"
#include "src/data/trajectory.h"
#include "src/llm/decode_model.h"
#include "src/repack/snapshot.h"
#include "src/sim/simulator.h"

namespace laminar {

class SnapshotTx;

enum class ReplicaPhase {
  kIdle,            // no work assigned
  kGenerating,      // actively decoding / waiting on env
  kPaused,          // stopped for a global sync (baseline systems)
  kUpdatingWeights, // pulling new weights from the relay / sync source
  kDead,            // machine failed
};

const char* ReplicaPhaseName(ReplicaPhase phase);

struct ReplicaConfig {
  int id = 0;
  int machine = 0;  // hosting machine == relay index
  // Maximum trajectories resident at once (paper's per-rollout concurrency).
  int max_concurrency = 1024;
  // Fraction of KVCache kept free when admitting new trajectories.
  double admit_headroom_frac = 0.01;
  // Admission additionally reserves this many decode steps of growth for
  // every running sequence, so admitted batches can run for a while before
  // the cache fills (hysteresis against preemption thrash).
  int64_t kv_growth_reserve_steps = 384;
  // When free cache falls below this many steps of growth, preempt until it
  // does not (recompute-style preemption, as in vLLM).
  int64_t kv_preempt_headroom_steps = 16;
  // Interpolation cap: an advance never covers more decode steps than this,
  // bounding how stale the KV/progress accounting can get between events.
  int64_t max_steps_per_advance = 256;
  // Per-trajectory RDMA KV-transfer coordination cost during repack, seconds.
  double migration_fixed_overhead = 0.02;
  // RDMA bandwidth used to move KV pages during repack migration.
  double kv_transfer_bandwidth = 50.0e9;
};

struct ReplicaMetrics {
  StepIntegrator kv_used_tokens;
  StepIntegrator batch_size;
  StepIntegrator busy;  // 1 when the decode batch is non-empty
  int64_t decode_tokens = 0;
  int64_t prefill_tokens = 0;
  int64_t completed_trajectories = 0;
  int64_t preemptions = 0;
  int64_t migrations_in = 0;
  int64_t migrations_out = 0;
  double weight_update_wait_seconds = 0.0;
  int weight_updates = 0;
};

class RolloutReplica : public ContinuationClient {
 public:
  // Continuation kinds for the replica's pending events (DESIGN.md §13).
  // Component id is (kContFamilyReplica, replica id).
  enum Continuation : uint16_t {
    kContAdvance = 0,    // decode advance completes: {a=steps}
    kContEnvRejoin = 1,  // env call returns: {a=env seq}
  };

  // Fired when one trajectory finishes generation.
  using CompletionCallback = std::function<void(TrajectoryRecord record)>;
  // Fired when the replica drains all assigned work.
  using BatchDoneCallback = std::function<void(RolloutReplica* replica)>;
  // Streamed in-progress state, for the partial-response pool.
  using ProgressCallback = std::function<void(const TrajectoryWork& work, int replica_id)>;

  RolloutReplica(Simulator* sim, ReplicaConfig config, DecodeModel decode,
                 double kv_capacity_tokens);
  ~RolloutReplica() override;

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override;

  void set_on_complete(CompletionCallback cb) { on_complete_ = std::move(cb); }
  void set_on_batch_done(BatchDoneCallback cb) { on_batch_done_ = std::move(cb); }
  void set_on_progress(ProgressCallback cb) { on_progress_ = std::move(cb); }

  // Work assignment ---------------------------------------------------------
  // Queues fresh or redirected work. Fresh records are stamped with the
  // replica's current weight version. `kv_transferred` marks repack
  // migrations whose KV pages are copied over RDMA (no recompute); work that
  // lost its cache (failure redirect, preemption elsewhere) re-prefills.
  void AssignWork(std::vector<TrajectoryWork> works, bool kv_transferred = false);

  // Online serving admission (DESIGN.md §14): queues serving requests (ids in
  // the kServingIdBase range, single decode segment) at the *front* of the
  // waiting queue, ahead of every queued rollout sequence. Serving work never
  // leaves via ExtractAllWork and is never chosen as a headroom-preemption
  // victim while rollout work remains.
  void AssignServingWork(std::vector<TrajectoryWork> works);

  // Evicts rollout sequences from the decode batch (most recent first,
  // skipping serving work) until at least `needed_tokens` of KVCache is free
  // or no rollout sequence remains. Evicted work loses residency (it will
  // re-prefill wherever it lands) and is returned for the manager to park in
  // the partial-response pool — the same recovery path machine loss uses.
  std::vector<TrajectoryWork> PreemptRolloutForServing(double needed_tokens);

  // Removes and returns every in-flight trajectory (running, env-waiting and
  // queued), e.g. when this replica is chosen as a repack source. KV
  // residency flags are preserved so the caller can decide transfer vs
  // recompute semantics.
  std::vector<TrajectoryWork> ExtractAllWork();

  // Weights ------------------------------------------------------------------
  int weight_version() const { return weight_version_; }
  void SetWeightVersion(int version);
  // Loads an arbitrary (possibly older) checkpointed version — used when a
  // replacement replica must finish trajectories started under an old policy
  // (paper §3.3: "loading specific weight versions from actor checkpointing
  // files"). Only valid on an idle replica.
  void LoadCheckpointVersion(int version);
  // Marks the replica as performing a weight update; generation must be
  // drained or paused. Returns an epoch token identifying this update:
  // EndWeightUpdate() restores the previous phase only when handed the
  // current epoch, so a stale pull completion — e.g. a relay waiter that
  // outlived a crash and revival — is ignored instead of corrupting state.
  int64_t BeginWeightUpdate();
  // Returns false (and changes nothing) if `epoch` is stale or the replica
  // left the updating phase meanwhile (crash, abort).
  bool EndWeightUpdate(int64_t epoch, int new_version, double wait_seconds);
  // Cancels an in-progress weight update (the relay died mid-pull) and
  // restores the previous phase; the caller re-issues the pull later.
  void AbortWeightUpdate();

  // Global-sync baselines -----------------------------------------------------
  // Stops decoding (keeps state). Used at global synchronization points.
  void Pause();
  // Resumes decoding. If `new_version` >= 0, in-flight trajectories continue
  // under the new weights (partial rollout): each open trajectory gains a
  // version entry and, if `recompute_kv`, its whole context is re-prefilled
  // (the KVCache recomputation overhead the paper charges to AReaL).
  void Resume(int new_version = -1, bool recompute_kv = false);

  // Faults --------------------------------------------------------------------
  // Machine failure: loses all in-flight work and cache. Returns the work
  // items that were still queued for admission and therefore never streamed
  // a checkpoint to the partial-response pool — the caller must decide their
  // fate explicitly (redirect a pooled copy, or mark them dropped); admitted
  // work is recovered from the pool as before.
  std::vector<TrajectoryWork> Kill();
  void Revive();  // replacement machine initialized

  // Gray failure (fail-slow): scales decode and prefill throughput by
  // `factor` in (0, 1]. 1.0 restores full speed. The in-flight advance is
  // re-planned at the new speed; already-elapsed progress is kept.
  void SetSpeedFactor(double factor);
  double speed_factor() const { return speed_factor_; }

  // Introspection ---------------------------------------------------------------
  ReplicaPhase phase() const { return phase_; }
  bool busy() const { return batch_size_ > 0 || !waiting_.empty() || num_env_ > 0; }
  int num_reqs() const { return batch_size_ + static_cast<int>(waiting_.size()) + num_env_; }
  // Resident serving requests (subset of num_reqs; 0 when the tier is off).
  int num_serving() const { return num_serving_; }
  double kv_used_tokens() const { return kv_used_tokens_; }
  double kv_capacity_tokens() const { return kv_capacity_tokens_; }
  double kv_used_frac() const { return kv_used_tokens_ / kv_capacity_tokens_; }
  // Token-accounting cross-check for the invariant checker: the context
  // tokens of every cache-resident trajectory (the whole decode batch plus
  // env-waiting work that kept its pages). Queued work never counts, even
  // when flagged kv_resident for an in-flight migration — its pages are
  // charged at admission.
  double ResidentKvTokens() const;
  ReplicaSnapshot Snapshot() const;
  const ReplicaConfig& config() const { return config_; }
  const DecodeModel& decode_model() const { return decode_; }
  const ReplicaMetrics& metrics() const { return metrics_; }
  int64_t total_tokens_generated() const {
    return metrics_.decode_tokens;
  }
  // Decode tokens including the in-flight advance's elapsed fraction — a
  // smooth, read-only counter for windowed throughput probes (the committed
  // `decode_tokens` metric only moves in advance-sized jumps).
  int64_t ObservedDecodeTokens() const;

  // Decode-only activity sample for the gray-failure probe. All fields are
  // monotone accumulators over time actually spent in decode steps — prefill
  // stalls, env waits and pauses contribute nothing, so windowed deltas stay
  // clean of batch-boundary bursts:
  //   busy_seconds        Σ steps × actual step latency
  //   request_seconds     Σ steps × actual step latency × batch
  //   ctx_request_seconds request_seconds weighted by the advance's avg ctx
  //   tokens              decode tokens (== ObservedDecodeTokens())
  // Observed per-request throughput (tokens / request_seconds) times the
  // modeled step latency at (request_seconds / busy_seconds,
  // ctx_request_seconds / request_seconds) is ~1.0 for a healthy replica and
  // ~speed_factor for a fail-slow one, regardless of batch shape.
  struct DecodeProbeSample {
    double busy_seconds = 0.0;
    double request_seconds = 0.0;
    double ctx_request_seconds = 0.0;
    int64_t tokens = 0;
  };
  DecodeProbeSample ObservedDecodeProbe() const;

  // Snapshot witness (src/snapshot, DESIGN.md §13): phase, weights, KV
  // accounting, the three work queues (fully serialized in behavior-defining
  // order) and the committed metrics — all adoptable, so a direct boot
  // re-seats the decode batch exactly. Pending advance/rejoin events are
  // re-minted from the simulator's event_heap section, not from here. Named
  // SnapshotState because Snapshot() is taken by the repack-facing
  // ReplicaSnapshot.
  void SnapshotState(SnapshotTx& tx);

 private:
  void ScheduleAdvance();
  void CreditDecodeProbe(int64_t steps, int64_t batch);
  void CancelAdvance();
  // Credits decode steps already performed by the in-flight advance (if any)
  // and cancels it. Must precede any mutation of the batch state.
  void SyncProgress();
  void Advance(int64_t steps);
  void TryAdmit();
  void PreemptForHeadroom();
  void FinishSegment(TrajectoryWork work);
  void RejoinFromEnv(uint64_t seq);
  void CompleteTrajectory(TrajectoryWork work);
  void CheckBatchDone();
  void TouchMetrics();

  // One member of the decode batch. `work`'s decode counters
  // (decoded_in_segment, context_tokens) are as of virtual step `join_step`;
  // the member has decoded `vstep_ - join_step` more tokens since. `stamp`
  // is the member's place in admission order. A member that left the batch
  // stays behind as a tombstone (`live == false`) until TrimBatch() drops it.
  struct BatchMember {
    TrajectoryWork work;
    int64_t join_step = 0;
    uint64_t stamp = 0;
    bool live = false;
  };
  // Boundary-heap entry: the virtual step at which the member in `slot`
  // finishes its segment. Stale once that slot no longer holds a live member
  // with this stamp (the member left early); stale entries are dropped when
  // they surface, and all of them on compaction.
  struct Boundary {
    int64_t step = 0;
    uint64_t stamp = 0;
    uint32_t slot = 0;
  };
  // Heap order: the earliest boundary on top, ties in stamp order. A function
  // object, so the heap algorithms inline the comparison.
  struct LaterBoundary {
    bool operator()(const Boundary& a, const Boundary& b) const {
      return a.step != b.step ? a.step > b.step : a.stamp > b.stamp;
    }
  };

  // Appends `work` to the batch with a fresh stamp.
  void JoinBatch(TrajectoryWork work);
  // Tombstones the live member in `slot` and returns its materialized work.
  // Slots stay valid until the next TrimBatch().
  TrajectoryWork LeaveBatch(size_t slot);
  // Brings a member's decode counters up to the current virtual step.
  void Materialize(BatchMember& m);
  bool IsCurrent(const Boundary& b) const;
  // Fewest decode tokens any member has left in its segment (drops stale
  // heap tops on the way). The batch must be non-empty.
  int64_t MinRemaining();
  // Drops trailing tombstones, so the batch's last slot is live, and
  // compacts the batch (rebuilding the heap) once tombstones and stale heap
  // entries outnumber half the batch. Every removal path ends with it.
  void TrimBatch();
  void ClearBatch();

  // One trajectory blocked on a sandbox/env call. The pending rejoin event
  // names its entry by `seq`, the stable admission-order key that survives
  // snapshot adoption. `seq` also orders the rare drain paths
  // (ExtractAllWork, Kill) and the snapshot.
  struct EnvEntry {
    TrajectoryWork work;
    EventId event = kInvalidEventId;
    SimTime at;
    uint64_t seq = 0;
    bool live = false;
  };

  // Index of the live env entry with `seq` (CHECKs on miss).
  size_t FindEnvBySeq(uint64_t seq) const;
  // Tombstones the env entry at `index` and returns its work. Indices stay
  // valid until the next TrimEnv().
  TrajectoryWork TakeEnv(size_t index);
  // Compacts env_waiting_ once tombstones outnumber half its live entries.
  void TrimEnv();

  Simulator* sim_;
  ReplicaConfig config_;
  DecodeModel decode_;
  double kv_capacity_tokens_;

  ReplicaPhase phase_ = ReplicaPhase::kIdle;
  ReplicaPhase pre_update_phase_ = ReplicaPhase::kIdle;
  // Bumped by BeginWeightUpdate/AbortWeightUpdate; EndWeightUpdate only takes
  // effect when handed the current value (stale relay waiters are dropped).
  int64_t weight_update_epoch_ = 0;
  int weight_version_ = 0;
  // Gray-failure throughput multiplier: effective step/prefill latency is
  // the model latency divided by this.
  double speed_factor_ = 1.0;

  // The decode batch in admission order, tombstones interleaved: every
  // mutation is a push_back or a tombstoning, so stamps ascend along it.
  std::vector<BatchMember> running_;
  // Min-heap (LaterBoundary) of segment boundaries, one current entry per
  // live member.
  std::vector<Boundary> boundaries_;
  // Live members and the exact integer sum of their context tokens.
  int batch_size_ = 0;
  int64_t batch_ctx_tokens_ = 0;
  // Decode steps the batch has taken; each live member took every one since
  // its join_step.
  int64_t vstep_ = 0;
  uint64_t batch_stamp_ = 0;
  std::deque<TrajectoryWork> waiting_;
  // Env-waiting work in ascending seq order (seqs are issued increasing and
  // entries only appended), tombstones interleaved.
  std::vector<EnvEntry> env_waiting_;
  int num_env_ = 0;
  uint64_t env_seq_ = 0;
  // Serving requests currently resident (running_ + waiting_) and the
  // lifetime assignment count (gates the snapshot fields so serving-off blobs
  // keep their historical layout).
  int num_serving_ = 0;
  int64_t serving_assigned_total_ = 0;
  // Reused by Advance() for the members that hit a boundary (no
  // steady-state allocation in the hot loop).
  std::vector<TrajectoryWork> boundary_scratch_;

  double kv_used_tokens_ = 0.0;
  // Prefill/KV-transfer work that must complete before decoding resumes;
  // consumed by the next scheduled advance.
  double pending_stall_seconds_ = 0.0;

  EventId advance_event_ = kInvalidEventId;
  // Metadata of the in-flight advance, for partial-progress crediting.
  SimTime advance_start_;
  int64_t advance_steps_ = 0;
  double advance_step_latency_ = 0.0;
  double advance_stall_ = 0.0;
  double advance_avg_ctx_ = 0.0;

  // Trace state: begin timestamps for retroactively emitted spans.
  SimTime weight_update_begin_;
  SimTime trace_busy_since_;
  bool trace_was_busy_ = false;

  // Committed decode-probe accumulators (see DecodeProbeSample); every decode
  // step is credited exactly once, by SyncProgress() or Advance().
  double decode_busy_seconds_ = 0.0;
  double decode_request_seconds_ = 0.0;
  double decode_ctx_request_seconds_ = 0.0;

  ReplicaMetrics metrics_;

  CompletionCallback on_complete_;
  BatchDoneCallback on_batch_done_;
  ProgressCallback on_progress_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_ROLLOUT_REPLICA_H_
