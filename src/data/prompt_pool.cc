#include "src/data/prompt_pool.h"

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"

namespace laminar {

void PromptPool::Snapshot(SnapshotTx& tx) {
  tx.Begin("prompt_pool");
  tx.I64("next_prompt_id", &next_prompt_id_);
  tx.I64As("next_traj_id", &next_traj_id_);
  rng_.Snapshot(tx);
  tx.Begin("generator");
  generator_.Snapshot(tx);
  tx.End();
  tx.End();
}

PromptPool::PromptPool(WorkloadGenerator generator, int group_size, Rng rng)
    : generator_(std::move(generator)), group_size_(group_size), rng_(rng) {
  LAMINAR_CHECK_GT(group_size_, 0);
}

std::vector<TrajectoryWork> PromptPool::NextBatch(int num_trajectories, int weight_version,
                                                  SimTime created) {
  LAMINAR_CHECK_EQ(num_trajectories % group_size_, 0)
      << "batch must be a whole number of GRPO groups";
  std::vector<TrajectoryWork> batch;
  batch.reserve(num_trajectories);
  for (int i = 0; i < num_trajectories / group_size_; ++i) {
    int64_t prompt_id = next_prompt_id_++;
    double difficulty = rng_.Uniform();
    for (int g = 0; g < group_size_; ++g) {
      TrajectoryWork& w = batch.emplace_back();
      w.record.id = next_traj_id_++;
      w.record.prompt_id = prompt_id;
      w.record.group_index = g;
      w.record.difficulty = difficulty;
      w.record.created = created;
      w.record.spec = generator_.Sample(weight_version);
      w.InitContext();
    }
  }
  return batch;
}

}  // namespace laminar
