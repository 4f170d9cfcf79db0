#include "src/core/sync_system.h"

#include "src/common/logging.h"

namespace laminar {

namespace {
// verl's colocation switch cost between the generation and training phases.
constexpr double kColocateSwitchSeconds = 6.0;
}  // namespace

void SyncSystem::Setup() {
  LAMINAR_CHECK(placement_.colocated);
  int num_replicas = placement_.total_gpus / rollout_tp_;
  // Colocation tax: the training framework's parameters, gradients and
  // optimizer state stay resident during generation, so the serving engine
  // runs with a far smaller KVCache than a dedicated rollout machine.
  BuildReplicas(num_replicas, rollout_tp_, /*machine_offset=*/0,
                /*gpu_memory_utilization=*/0.55);
  BuildTrainer(TrainerMode::kFullBatch, /*auto_continue=*/true, TrainBackend::kFsdp);
  // Both HybridEngine switches (train->rollout and rollout->train) stall the
  // whole cluster; we bill them with the publish step.
  trainer_->set_publish_fn([this](int /*version*/) {
    double stall = 2.0 * (kColocateSwitchSeconds * TimeScale());
    other_phase_seconds_ += stall;
    actor_stall_seconds_.Add(stall);
    return stall;
  });
  for (RolloutReplica* r : replica_ptrs_) {
    r->set_on_batch_done([this](RolloutReplica*) { OnReplicaBatchDone(); });
  }
}

void SyncSystem::Begin() {
  trainer_->Start();
  StartGeneration();
}

void SyncSystem::StartGeneration() {
  generation_started_ = sim_.Now();
  std::vector<std::vector<TrajectoryWork>> chunks =
      MakeGlobalBatchChunks(trainer_->version());
  outstanding_replicas_ = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (!chunks[i].empty()) {
      ++outstanding_replicas_;
    }
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    if (!chunks[i].empty()) {
      replica_ptrs_[i]->AssignWork(std::move(chunks[i]));
    }
  }
}

void SyncSystem::OnReplicaBatchDone() {
  LAMINAR_CHECK_GT(outstanding_replicas_, 0);
  if (--outstanding_replicas_ == 0) {
    // Last straggler finished: the generation stage of this iteration ends.
    generation_phase_seconds_ += sim_.Now() - generation_started_;
    // The trainer has already been notified trajectory-by-trajectory and
    // starts at this instant (the buffer just reached a full global batch).
  }
}

void SyncSystem::OnIteration(const IterationStats& stats) {
  training_phase_seconds_ += stats.train_seconds;
  // Colocated weight update: rollouts adopt the new version via the switch.
  for (RolloutReplica* r : replica_ptrs_) {
    r->SetWeightVersion(trainer_->version());
  }
  StartGeneration();
}

}  // namespace laminar
