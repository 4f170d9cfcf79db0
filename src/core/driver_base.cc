#include "src/core/driver_base.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/fault/invariants.h"
#include "src/llm/model_spec.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"

namespace laminar {

DriverBase::~DriverBase() { sim_.continuations().Unregister(kDriverComp); }

void DriverBase::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  (void)p;
  LAMINAR_CHECK_EQ(kind, kContRateTick);
  rate_task_->Fire();
}

void DriverBase::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                     SimTime at) {
  (void)p;
  LAMINAR_CHECK_EQ(kind, kContRateTick);
  LAMINAR_CHECK(rate_task_ != nullptr)
      << "pending rate tick restored before Run() created the task";
  rate_task_->RestorePending(at);
}

DriverBase::DriverBase(RlSystemConfig config)
    : cfg_(std::move(config)), placement_(cfg_.ResolvePlacement()),
      model_(ModelForScale(cfg_.scale)), root_rng_(cfg_.seed),
      score_rng_(root_rng_.Fork("score")) {
  sim_.continuations().Register(kDriverComp, this);
  rollout_tp_ = RolloutTensorParallel(cfg_.system, cfg_.scale);

  if (cfg_.trace.enabled) {
    trace_sink_ = std::make_unique<TraceSink>(&sim_, cfg_.trace);
    sim_.set_trace(trace_sink_.get());
  }

  if (cfg_.hardware_speed != 1.0) {
    LAMINAR_CHECK_GT(cfg_.hardware_speed, 0.0);
    // Exact time dilation: every rate gains a factor k, every fixed latency
    // or period loses one. Subsystem Setup() methods scale their own
    // hard-coded constants via TimeScale().
    double k = cfg_.hardware_speed;
    double inv = 1.0 / k;
    machine_spec_.gpu.hbm_bandwidth *= k;
    machine_spec_.gpu.peak_flops_bf16 *= k;
    machine_spec_.nvlink_bandwidth *= k;
    machine_spec_.pcie_bandwidth *= k;
    machine_spec_.rdma_total_bandwidth *= k;
    machine_spec_.rdma_flow_bandwidth *= k;
    machine_spec_.rdma_startup_latency *= inv;
    machine_spec_.gpu.host_overhead_scale *= inv;
    cfg_.repack_period_seconds *= inv;
    cfg_.sample_period_seconds *= inv;
    cfg_.max_sim_seconds *= inv;
    cfg_.snapshot_at_seconds *= inv;
  }

  WorkloadConfig wl;
  wl.task = cfg_.task;
  wl.scale = cfg_.scale;
  wl.length_drift = cfg_.length_drift;
  wl.time_scale = TimeScale();
  prompts_ = std::make_unique<PromptPool>(
      WorkloadGenerator(wl, root_rng_.Fork("workload")), cfg_.group_size,
      root_rng_.Fork("prompts"));

  std::unique_ptr<SamplerPolicy> sampler;
  switch (cfg_.sampler) {
    case SamplerKind::kFifo:
      sampler = MakeFifoSampler();
      break;
    case SamplerKind::kFreshness:
      sampler = MakeFreshnessSampler();
      break;
    case SamplerKind::kStalenessCapped:
      sampler = MakeStalenessCappedSampler(cfg_.staleness_cap);
      break;
  }
  buffer_ = std::make_unique<ExperienceBuffer>(std::move(sampler));

  PolicyConfig pc;
  policy_ = std::make_unique<Policy>(pc);
}

int DriverBase::NumRolloutMachines() const {
  int gpus = placement_.colocated ? placement_.total_gpus : placement_.rollout_gpus;
  return (gpus + machine_spec_.gpus_per_machine - 1) / machine_spec_.gpus_per_machine;
}

int DriverBase::ResolvedPerReplicaBatch() const {
  int per = cfg_.per_replica_batch > 0 ? cfg_.per_replica_batch : cfg_.max_concurrency;
  // Whole GRPO groups only.
  per = per / cfg_.group_size * cfg_.group_size;
  return std::max(per, cfg_.group_size);
}

int64_t DriverBase::ResolvedBacklogCap() const {
  return cfg_.backlog_cap > 0 ? cfg_.backlog_cap : 2LL * cfg_.global_batch;
}

int DriverBase::RooflineBound() const {
  DecodeModel decode(model_, machine_spec_, rollout_tp_);
  double avg_ctx = prompts_->generator().ExpectedTotalTokens() * 0.6;
  int bound = decode.RooflineBatchBound(avg_ctx, 1.5);
  return std::clamp(bound, 8, cfg_.max_concurrency);
}

void DriverBase::BuildReplicas(int num_replicas, int tensor_parallel, int machine_offset,
                               double gpu_memory_utilization) {
  LAMINAR_CHECK_GT(num_replicas, 0);
  DecodeModel decode(model_, machine_spec_, tensor_parallel);
  double kv_capacity = decode.KvCapacityTokens(gpu_memory_utilization);
  for (int i = 0; i < num_replicas; ++i) {
    ReplicaConfig rc;
    rc.id = i;
    rc.machine = machine_offset +
                 i * tensor_parallel / machine_spec_.gpus_per_machine;
    rc.max_concurrency = cfg_.max_concurrency;
    rc.kv_transfer_bandwidth = machine_spec_.rdma_flow_bandwidth;
    rc.migration_fixed_overhead *= TimeScale();
    auto replica = std::make_unique<RolloutReplica>(&sim_, rc, decode, kv_capacity);
    replica_ptrs_.push_back(replica.get());
    replicas_.push_back(std::move(replica));
  }
}

int DriverBase::MegatronPipelineParallel() const {
  // Appendix A.2: Megatron PP sizes per model scale (1 / 2 / 4).
  switch (cfg_.scale) {
    case ModelScale::k7B:
      return 1;
    case ModelScale::k32B:
      return 2;
    case ModelScale::k72B:
      return 4;
  }
  return 1;
}

void DriverBase::BuildTrainer(TrainerMode mode, bool auto_continue, TrainBackend backend) {
  int pp = backend == TrainBackend::kMegatron ? MegatronPipelineParallel() : 1;
  train_cost_ = std::make_unique<TrainCostModel>(model_, machine_spec_.gpu,
                                                 placement_.train_gpus, backend, pp);
  if (cfg_.algorithm == RlAlgorithm::kDecoupledPpo) {
    // Decoupled PPO evaluates a third log-prob set (the proximal policy) on
    // top of the reference and behaviour forwards.
    train_cost_->set_flops_multiplier(1.2);
  }
  TrainerConfig tc;
  tc.global_batch = cfg_.global_batch;
  tc.num_minibatches = cfg_.num_minibatches;
  tc.mode = mode;
  tc.algorithm = cfg_.algorithm;
  tc.auto_continue = auto_continue;
  trainer_ = std::make_unique<Trainer>(&sim_, tc, *train_cost_, buffer_.get(), policy_.get());
  trainer_->set_on_iteration([this](const IterationStats& stats) {
    LAMINAR_TRACE_INSTANT(&sim_, TraceComponent::kDriver, "driver/iteration",
                          -1, static_cast<int64_t>(trainer_->iterations().size()));
    double duration = stats.completed - prev_iteration_end_;
    prev_iteration_end_ = stats.completed;
    if (duration > 0.0) {
      train_rate_.Add(stats.completed, stats.tokens / duration);
    }
    reward_series_.Add(stats.completed, policy_->EvalExpectedReward());
    train_reward_series_.Add(stats.completed, stats.mean_reward);
    OnIteration(stats);
  });
}

void DriverBase::WireCompletion() {
  for (RolloutReplica* r : replica_ptrs_) {
    r->set_on_progress([this](const TrajectoryWork& work, int replica_id) {
      if (IsServingId(work.record.id)) {
        return;  // serving work is never checkpointed into the pool
      }
      partial_pool_.Update(work, replica_id);
    });
    r->set_on_complete([this](TrajectoryRecord record) {
      OnTrajectoryComplete(std::move(record));
    });
  }
}

void DriverBase::OnTrajectoryComplete(TrajectoryRecord record) {
  // Serving requests never touch the training data path: no pool entry, no
  // score-RNG draw, no buffer push. Route them to the manager's SLO
  // bookkeeping before any training side effect. (The pool gate below would
  // also resize its dense terminal bitmap to the 2^40 serving-id range.)
  if (IsServingId(record.id)) {
    if (serving_complete_fn_) {
      serving_complete_fn_(std::move(record));
    }
    return;
  }
  // Exactly-once gate: a duplicate completion (a stale clone racing its
  // migrated twin) must be suppressed before ANY side effect — scoring
  // consumes the shared score RNG stream, so even a scored-then-discarded
  // duplicate would perturb every later trajectory's reward.
  if (!partial_pool_.MarkCompleted(record.id)) {
    LAMINAR_TRACE_INSTANT(&sim_, TraceComponent::kData, "data/duplicate_suppressed",
                          -1, static_cast<int64_t>(record.id));
    return;
  }
  record.finish_actor_version = trainer_ ? trainer_->version() : 0;
  policy_->ScoreTrajectory(record, score_rng_);
  if (staleness_samples_.size() < 500000) {
    staleness_samples_.emplace_back(record.finished.seconds(),
                                    record.inherent_staleness());
  }
  inherent_staleness_all_.Add(static_cast<double>(record.inherent_staleness()));
  traj_durations_.Add(record.finished - record.created);
  if (invariant_checker_ != nullptr) {
    invariant_checker_->ObserveBufferPush(record);
  }
  if (cfg_.ledger_enabled) {
    ledger_.pushes.push_back({record.id, record.prompt_id, record.group_index,
                              record.spec.total_context_tokens(),
                              record.spec.num_turns(), record.generation_version()});
  }
  buffer_->Push(std::move(record));
  LAMINAR_TRACE_COUNTER(&sim_, TraceComponent::kData, "data/buffer_depth", -1,
                        static_cast<double>(buffer_->size()));
  trainer_->NotifyData();
}

std::vector<std::vector<TrajectoryWork>> DriverBase::MakeGlobalBatchChunks(
    int weight_version) {
  int num_replicas = static_cast<int>(replica_ptrs_.size());
  std::vector<TrajectoryWork> all =
      prompts_->NextBatch(cfg_.global_batch, weight_version, sim_.Now());
  std::vector<std::vector<TrajectoryWork>> chunks(num_replicas);
  // Deal whole groups round-robin, mirroring verl's static DP sharding.
  int num_groups = cfg_.global_batch / cfg_.group_size;
  for (int g = 0; g < num_groups; ++g) {
    int target = g % num_replicas;
    for (int k = 0; k < cfg_.group_size; ++k) {
      chunks[target].push_back(std::move(all[g * cfg_.group_size + k]));
    }
  }
  return chunks;
}

double DriverBase::GlobalSyncSeconds() const {
  GlobalSyncModel sync;
  sync.weight_bytes = model_.weight_bytes();
  sync.base_bandwidth *= cfg_.hardware_speed;
  sync.barrier_overhead *= TimeScale();
  return sync.SyncSeconds(placement_.total_gpus);
}

void DriverBase::SampleRates() {
  int64_t total = 0;
  for (const RolloutReplica* r : replica_ptrs_) {
    total += r->metrics().decode_tokens;
  }
  double dt = sim_.Now() - last_rate_sample_;
  if (dt > 0.0) {
    double rate = static_cast<double>(total - last_gen_tokens_) / dt;
    gen_rate_.Add(sim_.Now(), rate);
    LAMINAR_TRACE_COUNTER(&sim_, TraceComponent::kDriver, "driver/gen_rate", -1, rate);
  }
  last_gen_tokens_ = total;
  last_rate_sample_ = sim_.Now();
  buffer_depth_.Add(sim_.Now(), static_cast<double>(buffer_->size()));
}

SystemReport DriverBase::Run() {
  auto wall_start = std::chrono::steady_clock::now();
  Setup();
  LAMINAR_CHECK(!replica_ptrs_.empty());
  LAMINAR_CHECK(trainer_ != nullptr);
  WireCompletion();
  rate_task_ = std::make_unique<PeriodicTask>(&sim_, cfg_.sample_period_seconds,
                                              kDriverComp, kContRateTick,
                                              [this] { SampleRates(); });
  if (restoring()) {
    // Direct boot: adopt every component's state from the blob, re-mint the
    // pending event heap, and resume. Begin() never runs — the adopted
    // running flags and re-minted periodic ticks carry the whole schedule.
    auto restore_start = std::chrono::steady_clock::now();
    AdoptSnapshot(*cfg_.restore_from);
    restore_wall_seconds_ = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - restore_start)
                                .count();
    // Boot-barrier re-snapshot: no event has executed since adoption, so
    // this blob must be byte-identical to the one the run booted from — the
    // restore oracle's cheapest equivalence check. It is also what a later
    // VerifySnapshot diff (cfg_.snapshot_verify) runs against.
    snapshot_blob_ = TakeSnapshot();
    snapshot_taken_at_ = sim_.Now().seconds();
    if (cfg_.snapshot_verify != nullptr) {
      snapshot_mismatches_ = VerifySnapshot(*cfg_.snapshot_verify);
    }
  } else {
    rate_task_->Start();
    last_rate_sample_ = sim_.Now();
    prev_iteration_end_ = sim_.Now();
    Begin();
  }

  int target = cfg_.warmup_iterations + cfg_.measure_iterations;
  auto stop = [&] {
    return static_cast<int>(trainer_->iterations().size()) >= target ||
           sim_.Now().seconds() > cfg_.max_sim_seconds;
  };
  bool done = true;
  double snap_at = cfg_.snapshot_at_seconds;
  if (snap_at > 0.0 && !restoring()) {
    // Pre-snapshot segment: stop after the first event at or past snap_at.
    done = sim_.RunUntilTrue([&] { return stop() || sim_.Now().seconds() >= snap_at; });
    if (!stop()) {
      snapshot_blob_ = TakeSnapshot();
      snapshot_taken_at_ = sim_.Now().seconds();
      if (cfg_.snapshot_verify != nullptr) {
        snapshot_mismatches_ = VerifySnapshot(*cfg_.snapshot_verify);
      }
    }
  }
  if (done && !stop()) {
    done = sim_.RunUntilTrue(stop);
  }
  if (!done) {
    LAMINAR_LOG(kWarning) << cfg_.Label() << ": simulation drained before " << target
                          << " iterations (" << trainer_->iterations().size()
                          << " completed)";
  }
  rate_task_->Stop();
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return AssembleReport(wall);
}

SystemReport DriverBase::AssembleReport(double wall_seconds) {
  SystemReport rep;
  rep.label = cfg_.Label();
  rep.system = cfg_.system;
  rep.total_gpus = placement_.total_gpus;
  rep.train_gpus = placement_.train_gpus;
  rep.rollout_gpus = placement_.rollout_gpus;
  rep.num_replicas = static_cast<int>(replica_ptrs_.size());
  rep.iterations = trainer_->iterations();
  rep.iterations_completed = static_cast<int>(rep.iterations.size());
  rep.simulated_events = sim_.executed_events();
  rep.simulated_seconds = sim_.Now().seconds();
  rep.wall_seconds = wall_seconds;

  // Throughput over measured iterations (duration between consecutive actor
  // update completions).
  size_t first = static_cast<size_t>(cfg_.warmup_iterations);
  double tokens = 0.0;
  double duration = 0.0;
  for (size_t i = first; i < rep.iterations.size(); ++i) {
    SimTime prev_end = i == 0 ? SimTime::Zero() : rep.iterations[i - 1].completed;
    tokens += rep.iterations[i].tokens;
    duration += rep.iterations[i].completed - prev_end;
  }
  if (duration > 0.0) {
    rep.throughput_tokens_per_sec = tokens / duration;
    rep.mean_iteration_seconds =
        duration / static_cast<double>(rep.iterations.size() - first);
  }

  double phase_total =
      generation_phase_seconds_ + training_phase_seconds_ + other_phase_seconds_;
  if (phase_total > 0.0) {
    rep.generation_fraction = generation_phase_seconds_ / phase_total;
    rep.train_fraction = training_phase_seconds_ / phase_total;
  }

  const SampleSet& consume = trainer_->consume_staleness();
  if (!consume.empty()) {
    rep.mean_consume_staleness = consume.mean();
    rep.max_consume_staleness = consume.max();
  }
  if (!inherent_staleness_all_.empty()) {
    rep.mean_inherent_staleness = inherent_staleness_all_.mean();
    rep.max_inherent_staleness = inherent_staleness_all_.max();
  }
  double mixed = 0.0;
  for (const IterationStats& it : rep.iterations) {
    mixed += it.mixed_version_fraction;
  }
  if (!rep.iterations.empty()) {
    rep.mixed_version_fraction = mixed / static_cast<double>(rep.iterations.size());
  }

  if (!actor_stall_seconds_.empty()) {
    rep.actor_stall_mean_seconds = actor_stall_seconds_.mean();
  }
  if (!rollout_wait_seconds_.empty()) {
    rep.rollout_wait_mean_seconds = rollout_wait_seconds_.mean();
    rep.rollout_wait_best_seconds = rollout_wait_seconds_.min();
    rep.rollout_wait_p99_seconds = rollout_wait_seconds_.Quantile(0.99);
  }

  double kv_sum = 0.0;
  double batch_sum = 0.0;
  double busy_sum = 0.0;
  for (const RolloutReplica* r : replica_ptrs_) {
    kv_sum += r->metrics().kv_used_tokens.AverageUntil(sim_.Now()) / r->kv_capacity_tokens();
    batch_sum += r->metrics().batch_size.AverageUntil(sim_.Now());
    busy_sum += r->metrics().busy.AverageUntil(sim_.Now());
    rep.total_decode_tokens += r->metrics().decode_tokens;
    rep.total_prefill_tokens += r->metrics().prefill_tokens;
    rep.total_preemptions += r->metrics().preemptions;
  }
  double n_rep = static_cast<double>(replica_ptrs_.size());
  rep.avg_kv_utilization = kv_sum / n_rep;
  rep.avg_decode_batch = batch_sum / n_rep;
  rep.rollout_busy_fraction = busy_sum / n_rep;
  if (!traj_durations_.empty()) {
    rep.mean_traj_seconds = traj_durations_.mean();
    rep.max_traj_seconds = traj_durations_.max();
  }

  rep.final_eval_reward = policy_->EvalExpectedReward();
  rep.reward_series = reward_series_;
  rep.train_reward_series = train_reward_series_;
  rep.generation_rate = gen_rate_;
  rep.training_rate = train_rate_;
  rep.buffer_depth = buffer_depth_;
  rep.staleness_samples = staleness_samples_;

  if (trace_sink_ != nullptr) {
    rep.trace = trace_sink_->shared_buffer();
  }
  if (cfg_.ledger_enabled) {
    ledger_.prompts_issued = prompts_->prompts_issued();
    ledger_.trajectories_issued = prompts_->trajectories_issued();
    ledger_.trajectories_consumed = buffer_->total_sampled();
    ledger_.trajectories_discarded = trainer_->trajectories_discarded();
    rep.ledger = std::make_shared<RunLedger>(std::move(ledger_));
  }
  if (!snapshot_blob_.empty()) {
    rep.snapshot = std::make_shared<const std::string>(std::move(snapshot_blob_));
    rep.snapshot_taken_at_seconds = snapshot_taken_at_;
    rep.snapshot_mismatches = std::move(snapshot_mismatches_);
  }
  rep.restored = cfg_.restore_from != nullptr;
  rep.restore_wall_seconds = restore_wall_seconds_;

  Finalize(rep);
  return rep;
}

void DriverBase::AdoptSnapshot(const std::string& blob) {
  // The baselines serialize their components but not their round or retry
  // bookkeeping, so adopting them would abort or diverge mid-run.
  LAMINAR_CHECK(cfg_.system == SystemKind::kLaminar)
      << "direct boot supports the Laminar driver only, not "
      << SystemKindName(cfg_.system);
  SnapshotReader reader;
  std::string error;
  LAMINAR_CHECK(reader.Parse(blob, &error)) << "restore_from blob: " << error;
  LAMINAR_CHECK_EQ(reader.version(), kSnapshotVersion)
      << "restore_from blob is LMSNAP1 v" << reader.version()
      << "; direct boot adopts only the current layout";
  SnapshotTx tx(&reader, SnapshotMode::kAdopt);
  SnapshotComponents(tx);
  LAMINAR_CHECK(tx.mismatches().empty())
      << "direct-boot adoption walked a different field sequence than the "
         "blob; first: "
      << tx.mismatches().front();
  sim_.RemintRestoredEvents();
}

std::string DriverBase::TakeSnapshot() {
  SnapshotWriter writer;
  SnapshotTx tx(&writer);
  SnapshotComponents(tx);
  return writer.Finish();
}

std::vector<std::string> DriverBase::VerifySnapshot(const std::string& blob) {
  SnapshotReader reader;
  std::string error;
  if (!reader.Parse(blob, &error)) {
    return {"snapshot parse failed: " + error};
  }
  if (reader.version() != kSnapshotVersion) {
    return {"snapshot is LMSNAP1 v" + std::to_string(reader.version()) + ", not the v" +
            std::to_string(kSnapshotVersion) + " layout this build verifies"};
  }
  SnapshotTx tx(&reader, SnapshotMode::kVerify);
  SnapshotComponents(tx);
  return tx.mismatches();
}

void DriverBase::SnapshotComponents(SnapshotTx& tx) {
  tx.Begin("driver");
  sim_.Snapshot(tx);
  tx.Begin("root_rng");
  root_rng_.Snapshot(tx);
  tx.End();
  tx.Begin("score_rng");
  score_rng_.Snapshot(tx);
  tx.End();
  prompts_->Snapshot(tx);
  partial_pool_.Snapshot(tx);
  buffer_->Snapshot(tx);
  trainer_->Snapshot(tx);
  tx.DigestU64("replicas", replica_ptrs_.size());
  for (RolloutReplica* r : replica_ptrs_) {
    r->SnapshotState(tx);
  }
  tx.Begin("driver_stats");
  tx.Begin("traj_durations");
  traj_durations_.Snapshot(tx);
  tx.End();
  tx.Begin("inherent_staleness_all");
  inherent_staleness_all_.Snapshot(tx);
  tx.End();
  tx.Begin("rollout_wait_seconds");
  rollout_wait_seconds_.Snapshot(tx);
  tx.End();
  tx.Begin("actor_stall_seconds");
  actor_stall_seconds_.Snapshot(tx);
  tx.End();
  tx.Begin("gen_rate");
  gen_rate_.Snapshot(tx);
  tx.End();
  tx.Begin("train_rate");
  train_rate_.Snapshot(tx);
  tx.End();
  tx.Begin("buffer_depth");
  buffer_depth_.Snapshot(tx);
  tx.End();
  tx.Begin("reward_series");
  reward_series_.Snapshot(tx);
  tx.End();
  tx.Begin("train_reward_series");
  train_reward_series_.Snapshot(tx);
  tx.End();
  SnapshotPacked(
      tx, "staleness_samples",
      [this](ByteSink& s) {
        s.U64(staleness_samples_.size());
        for (const auto& [t, staleness] : staleness_samples_) {
          s.F64(t);
          s.I64(staleness);
        }
      },
      [this](ByteSource& s) {
        staleness_samples_.clear();
        uint64_t n = s.U64();
        staleness_samples_.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i) {
          double t = s.F64();
          int staleness = static_cast<int>(s.I64());
          staleness_samples_.emplace_back(t, staleness);
        }
      });
  tx.I64("last_gen_tokens", &last_gen_tokens_);
  SnapshotPacked(
      tx, "rate_clock",
      [this](ByteSink& s) {
        s.Time(last_rate_sample_);
        s.Time(prev_iteration_end_);
        s.F64(generation_phase_seconds_);
        s.F64(training_phase_seconds_);
        s.F64(other_phase_seconds_);
      },
      [this](ByteSource& s) {
        last_rate_sample_ = s.Time();
        prev_iteration_end_ = s.Time();
        generation_phase_seconds_ = s.F64();
        training_phase_seconds_ = s.F64();
        other_phase_seconds_ = s.F64();
      });
  if (cfg_.ledger_enabled) {
    SnapshotPacked(
        tx, "ledger",
        [this](ByteSink& s) {
          s.U64(ledger_.pushes.size());
          for (const LedgerEntry& e : ledger_.pushes) {
            s.I64(e.id);
            s.I64(e.prompt_id);
            s.I32(e.group_index);
            s.I64(e.total_tokens);
            s.I32(e.num_segments);
            s.I32(e.generation_version);
          }
        },
        [this](ByteSource& s) {
          ledger_.pushes.clear();
          uint64_t n = s.U64();
          ledger_.pushes.reserve(static_cast<size_t>(n));
          for (uint64_t i = 0; i < n; ++i) {
            LedgerEntry e;
            e.id = s.I64();
            e.prompt_id = s.I64();
            e.group_index = s.I32();
            e.total_tokens = s.I64();
            e.num_segments = s.I32();
            e.generation_version = s.I32();
            ledger_.pushes.push_back(e);
          }
        });
  }
  if (trace_sink_ != nullptr) {
    // The full binary trace rides in the blob so a direct boot reproduces the
    // whole-run trace hash, not just the post-restore suffix. Ring mode would
    // lose the eviction cursor across the round trip, so direct boot requires
    // full capture; the witness/verify paths accept either.
    if (tx.adopting()) {
      LAMINAR_CHECK_EQ(cfg_.trace.ring_capacity, 0u)
          << "direct-boot restore requires full-capture tracing";
      // Decode straight out of the blob — the trace is the largest section,
      // so skipping the intermediate string copy is a measurable share of
      // restore wall-clock.
      LAMINAR_CHECK(
          TraceFromBinary(tx.BytesView("trace"), trace_sink_->mutable_buffer()))
          << "malformed trace section in restore_from blob";
    } else {
      std::string trace_bytes = TraceToBinary(trace_sink_->buffer());
      tx.Bytes("trace", &trace_bytes);
    }
  }
  tx.End();
  tx.End();
}

}  // namespace laminar
