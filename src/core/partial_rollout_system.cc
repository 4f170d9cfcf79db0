#include "src/core/partial_rollout_system.h"

#include "src/common/logging.h"

namespace laminar {

void PartialRolloutSystem::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  switch (kind) {
    case kContResume:
      ResumeAll(static_cast<int>(p.a));
      return;
    case kContRetryTick:
      retry_task_->Fire();
      return;
  }
  DriverBase::RunContinuation(kind, p);
}

void PartialRolloutSystem::Setup() {
  LAMINAR_CHECK(!placement_.colocated);
  BuildReplicas(placement_.rollout_gpus / rollout_tp_, rollout_tp_);
  per_replica_batch_ = ResolvedPerReplicaBatch();
  BuildTrainer(TrainerMode::kFullBatch, /*auto_continue=*/true, TrainBackend::kMegatron);

  // Publication = partial rollout: interrupt everyone, GPU-direct broadcast,
  // resume mid-trajectory under the new weights with KV recomputation.
  trainer_->set_publish_fn([this](int version) {
    double sync = GlobalSyncSeconds();
    actor_stall_seconds_.Add(sync);
    for (RolloutReplica* r : replica_ptrs_) {
      if (r->phase() == ReplicaPhase::kDead) {
        continue;
      }
      rollout_wait_seconds_.Add(sync);
      r->Pause();
    }
    sim_.ScheduleContinuationAfter(sync, kDriverComp, kContResume,
                                   ContinuationPayload::Of(version));
    return sync;
  });

  for (RolloutReplica* r : replica_ptrs_) {
    r->set_on_batch_done([this](RolloutReplica* replica) { FeedReplica(replica); });
  }
  retry_task_ = std::make_unique<PeriodicTask>(&sim_, 5.0 * TimeScale(), kDriverComp,
                                               kContRetryTick, [this] { RetryStarved(); });
}

void PartialRolloutSystem::ResumeAll(int version) {
  for (RolloutReplica* r : replica_ptrs_) {
    if (r->phase() == ReplicaPhase::kPaused) {
      r->Resume(version, /*recompute_kv=*/true);
    }
  }
}

void PartialRolloutSystem::FeedReplica(RolloutReplica* replica) {
  if (replica->phase() == ReplicaPhase::kDead) {
    return;
  }
  if (static_cast<int64_t>(buffer_->size()) >= ResolvedBacklogCap()) {
    starved_.push_back(replica);
    return;
  }
  replica->AssignWork(
      prompts_->NextBatch(per_replica_batch_, replica->weight_version(), sim_.Now()));
}

void PartialRolloutSystem::RetryStarved() {
  std::vector<RolloutReplica*> starved = std::move(starved_);
  starved_.clear();
  for (RolloutReplica* r : starved) {
    if (r->phase() == ReplicaPhase::kIdle || r->phase() == ReplicaPhase::kPaused) {
      FeedReplica(r);
    } else if (r->phase() != ReplicaPhase::kDead && !r->busy()) {
      FeedReplica(r);
    }
  }
}

void PartialRolloutSystem::Begin() {
  retry_task_->Start();
  trainer_->Start();
  for (RolloutReplica* r : replica_ptrs_) {
    FeedReplica(r);
  }
}

}  // namespace laminar
