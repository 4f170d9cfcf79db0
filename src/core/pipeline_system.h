// Disaggregated k=1-staleness pipelines (paper baselines 2 and 3, Figure 3b/c).
//
//  * One-step staleness: rollouts generate batch n under version n-1 while
//    the trainer trains on the fully generated batch n-1. A GPU-direct
//    global weight synchronization separates rounds.
//  * Stream generation: the trainer consumes the *current* batch's early
//    completions mini-batch by mini-batch (short trajectories first), but
//    the round still ends only when the whole batch is generated and
//    trained, followed by the same global synchronization.
#ifndef LAMINAR_SRC_CORE_PIPELINE_SYSTEM_H_
#define LAMINAR_SRC_CORE_PIPELINE_SYSTEM_H_

#include <utility>

#include "src/core/driver_base.h"

namespace laminar {

class PipelineSystem : public DriverBase {
 public:
  // Continuation kind, scheduled under the driver's own registration.
  enum Continuation : uint16_t {
    kContNextRound = 0,  // global weight sync done: adopt the version, start a round
  };

  explicit PipelineSystem(RlSystemConfig config) : DriverBase(std::move(config)) {}

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override;

 protected:
  void Setup() override;
  void Begin() override;
  void OnIteration(const IterationStats& stats) override;

 private:
  bool stream_mode() const { return cfg_.system == SystemKind::kStreamGen; }
  void StartRound();
  void OnReplicaBatchDone();
  void MaybeEndRound();
  void EndRound();
  void NextRound();

  int round_ = 0;
  int outstanding_replicas_ = 0;
  bool generation_done_ = false;
  bool training_done_ = false;
  bool round_open_ = false;
  bool train_allowed_ = false;
  SimTime generation_started_;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_CORE_PIPELINE_SYSTEM_H_
