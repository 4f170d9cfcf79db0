// AReaL-style partial-rollout system (paper baseline 4, Figure 3d).
//
// Rollouts generate continuously with unbounded staleness; whenever the
// trainer publishes new weights, every rollout is interrupted, synchronized
// over GPU-direct broadcast, and resumes its in-flight trajectories under the
// new weights — paying full KVCache recomputation and producing
// mixed-version trajectories (trained with decoupled PPO).
#ifndef LAMINAR_SRC_CORE_PARTIAL_ROLLOUT_SYSTEM_H_
#define LAMINAR_SRC_CORE_PARTIAL_ROLLOUT_SYSTEM_H_

#include <memory>
#include <utility>

#include "src/core/driver_base.h"

namespace laminar {

class PartialRolloutSystem : public DriverBase {
 public:
  // Continuation kinds, scheduled under the driver's own registration.
  enum Continuation : uint16_t {
    kContResume = 0,     // post-sync resume under the new weights: {a=version}
    kContRetryTick = 1,  // periodic retry of replicas starved by the backlog cap
  };

  explicit PartialRolloutSystem(RlSystemConfig config) : DriverBase(std::move(config)) {
    // AReaL trains with its decoupled-PPO correction by default.
    if (cfg_.algorithm == RlAlgorithm::kGrpo) {
      cfg_.algorithm = RlAlgorithm::kDecoupledPpo;
    }
  }

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;

 protected:
  void Setup() override;
  void Begin() override;

 private:
  void FeedReplica(RolloutReplica* replica);
  void ResumeAll(int version);
  void RetryStarved();

  int per_replica_batch_ = 0;
  std::vector<RolloutReplica*> starved_;
  std::unique_ptr<PeriodicTask> retry_task_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_CORE_PARTIAL_ROLLOUT_SYSTEM_H_
