// Test-only continuation client for scripting simulator events.
//
// The simulator schedules nothing but (component, kind, payload)
// continuations. A test that wants an arbitrary action at a simulated time
// schedules it through this client: the action waits in a side table and the
// event's payload carries its index, so every scripted action is one
// ordinary heap entry under the next sequence number and interleaves with
// the components' own events exactly as any other schedule would.
#ifndef LAMINAR_TESTS_SCRIPTED_EVENTS_H_
#define LAMINAR_TESTS_SCRIPTED_EVENTS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace laminar {

class ScriptedEvents : public ContinuationClient {
 public:
  // A system-family instance that no driver registers.
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem, 98);

  explicit ScriptedEvents(Simulator* sim) : sim_(sim) {
    sim_->continuations().Register(kComp, this);
  }
  ~ScriptedEvents() override { sim_->continuations().Unregister(kComp); }
  ScriptedEvents(const ScriptedEvents&) = delete;
  ScriptedEvents& operator=(const ScriptedEvents&) = delete;

  EventId At(SimTime t, std::function<void()> action) {
    return sim_->ScheduleContinuationAt(t, kComp, 0, Stash(std::move(action)));
  }
  EventId After(double delay, std::function<void()> action) {
    return sim_->ScheduleContinuationAfter(delay, kComp, 0, Stash(std::move(action)));
  }

  void RunContinuation(uint16_t, const ContinuationPayload& p) override {
    // Moved out first: the action may script more events and grow the table.
    std::function<void()> action = std::move(actions_[static_cast<size_t>(p.a)]);
    action();
  }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {
    ADD_FAILURE() << "scripted test events are not restored";
  }

 private:
  ContinuationPayload Stash(std::function<void()> action) {
    actions_.push_back(std::move(action));
    return ContinuationPayload::Of(static_cast<int64_t>(actions_.size() - 1));
  }

  Simulator* sim_;
  std::vector<std::function<void()>> actions_;
};

}  // namespace laminar

#endif  // LAMINAR_TESTS_SCRIPTED_EVENTS_H_
