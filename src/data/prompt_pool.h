// Prompt pool: supplies prompts (initial states) for trajectory generation.
//
// Each prompt spawns a GRPO group of `group_size` trajectories. The pool is
// effectively unbounded (the dataset is recycled), so generation never
// starves for prompts; it exists to hand out stable prompt ids and to track
// how many prompts have been consumed.
#ifndef LAMINAR_SRC_DATA_PROMPT_POOL_H_
#define LAMINAR_SRC_DATA_PROMPT_POOL_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/data/trajectory.h"
#include "src/workload/generator.h"

namespace laminar {

class PromptPool {
 public:
  PromptPool(WorkloadGenerator generator, int group_size, Rng rng);

  // Creates `num_trajectories` worth of fresh work (a whole number of GRPO
  // groups), ready to assign: generation plans sampled under `weight_version`
  // (lengths may drift with the version), `created` stamped, context at the
  // prompt. Each group draws its difficulty from the pool stream, then one
  // generator sample per member.
  std::vector<TrajectoryWork> NextBatch(int num_trajectories, int weight_version,
                                        SimTime created);

  int group_size() const { return group_size_; }
  int64_t prompts_issued() const { return next_prompt_id_; }
  int64_t trajectories_issued() const { return next_traj_id_; }
  const WorkloadGenerator& generator() const { return generator_; }

  // Snapshot of the id counters and the sampling stream (src/snapshot).
  void Snapshot(SnapshotTx& tx);

 private:
  WorkloadGenerator generator_;
  int group_size_;
  Rng rng_;
  int64_t next_prompt_id_ = 0;
  TrajId next_traj_id_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_PROMPT_POOL_H_
