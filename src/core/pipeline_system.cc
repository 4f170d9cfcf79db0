#include "src/core/pipeline_system.h"

#include "src/common/logging.h"

namespace laminar {

void PipelineSystem::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  if (kind == kContNextRound) {
    NextRound();
    return;
  }
  DriverBase::RunContinuation(kind, p);
}

void PipelineSystem::Setup() {
  LAMINAR_CHECK(!placement_.colocated);
  int num_replicas = placement_.rollout_gpus / rollout_tp_;
  BuildReplicas(num_replicas, rollout_tp_);
  BuildTrainer(stream_mode() ? TrainerMode::kStreaming : TrainerMode::kFullBatch,
               /*auto_continue=*/stream_mode(), TrainBackend::kFsdp);
  // The weight hand-off happens at the round barrier (global NCCL sync), not
  // at publish time; publish itself is free here.
  trainer_->set_publish_fn([](int) { return 0.0; });
  if (stream_mode()) {
    // Mini-batches may start whenever the round is open; the barrier between
    // rounds closes the gate.
    trainer_->set_begin_gate([this] { return round_open_; });
  } else {
    // One-step: exactly one training launch per round, armed by StartRound.
    trainer_->set_begin_gate([this] { return train_allowed_; });
  }
  for (RolloutReplica* r : replica_ptrs_) {
    r->set_on_batch_done([this](RolloutReplica*) { OnReplicaBatchDone(); });
  }
}

void PipelineSystem::Begin() {
  trainer_->Start();
  StartRound();
}

void PipelineSystem::StartRound() {
  round_open_ = true;
  generation_done_ = false;
  // Round 0 has no previous batch to train on.
  training_done_ = !stream_mode() && round_ == 0;
  generation_started_ = sim_.Now();

  std::vector<std::vector<TrajectoryWork>> chunks =
      MakeGlobalBatchChunks(trainer_->version());
  outstanding_replicas_ = 0;
  for (const auto& chunk : chunks) {
    if (!chunk.empty()) {
      ++outstanding_replicas_;
    }
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (!chunks[i].empty()) {
      replica_ptrs_[i]->AssignWork(std::move(chunks[i]));
    }
  }
  if (!stream_mode() && round_ >= 1) {
    // The previous round's batch is fully buffered; launch its training now,
    // concurrent with this round's generation (Figure 3b).
    train_allowed_ = true;
    trainer_->NotifyData();
    train_allowed_ = false;
  }
  if (stream_mode()) {
    trainer_->NotifyData();
  }
}

void PipelineSystem::OnReplicaBatchDone() {
  LAMINAR_CHECK_GT(outstanding_replicas_, 0);
  if (--outstanding_replicas_ == 0) {
    generation_done_ = true;
    generation_phase_seconds_ += sim_.Now() - generation_started_;
    MaybeEndRound();
  }
}

void PipelineSystem::OnIteration(const IterationStats& stats) {
  training_phase_seconds_ += stats.train_seconds;
  training_done_ = true;
  MaybeEndRound();
}

void PipelineSystem::MaybeEndRound() {
  if (round_open_ && generation_done_ && training_done_) {
    EndRound();
  }
}

void PipelineSystem::EndRound() {
  round_open_ = false;
  // Global GPU-direct weight synchronization: actor and every rollout stall.
  double sync = round_ == 0 && trainer_->version() == 0 ? 0.0 : GlobalSyncSeconds();
  if (sync > 0.0) {
    actor_stall_seconds_.Add(sync);
    for (size_t i = 0; i < replica_ptrs_.size(); ++i) {
      rollout_wait_seconds_.Add(sync);
    }
    other_phase_seconds_ += sync;
  }
  sim_.ScheduleContinuationAfter(sync, kDriverComp, kContNextRound);
}

void PipelineSystem::NextRound() {
  for (RolloutReplica* r : replica_ptrs_) {
    r->SetWeightVersion(trainer_->version());
  }
  ++round_;
  StartRound();
}

}  // namespace laminar
