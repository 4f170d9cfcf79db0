// Microbenchmark of the raw discrete-event core: how many events per second
// the Simulator can schedule, cancel and fire, independent of any RL model.
// Every figure harness is millions of these events, so this is the number
// that bounds how fast the whole reproduction can run.
//
// Scenarios:
//  * schedule+fire   — a self-sustaining population of timers; each event
//                      fires and schedules its successor (the rollout
//                      steady-state pattern).
//  * schedule/cancel — every fired event schedules two successors and
//                      cancels one of them (heartbeat / timeout pattern).
//  * cancel-heavy    — 90% of scheduled events are cancelled before firing;
//                      stresses tombstone reclamation in the heap.
//  * periodic churn  — many PeriodicTasks ticking (repack checks,
//                      heartbeats); each tick schedules the next.
//
// Every event is a continuation dispatched through the registry, the only
// kind of event the simulator runs.
#include "bench/bench_util.h"
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/sim/simulator.h"

namespace laminar {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Result {
  const char* name;
  uint64_t events;
  double seconds;
};

// Every event is a continuation, so each scenario's events dispatch to this
// one registered client; the event kind picks the body.
class Client : public ContinuationClient {
 public:
  static constexpr int32_t kComp = ContinuationComponentId(kContFamilySystem);
  enum Kind : uint16_t {
    kNoop,
    kFire,   // schedule one successor
    kWork,   // {a=slot}: schedule a successor, re-arm the slot's guard
    kTick0,  // + task index: a PeriodicTask tick
  };

  Client(Simulator* sim, uint64_t seed) : sim_(sim), rng_(seed) {
    sim_->continuations().Register(kComp, this);
  }
  ~Client() override { sim_->continuations().Unregister(kComp); }

  EventId After(double lo, double hi, Kind kind, int64_t a = 0) {
    return sim_->ScheduleContinuationAfter(rng_.Uniform(lo, hi), kComp, kind,
                                           ContinuationPayload::Of(a));
  }

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override {
    switch (kind) {
      case kNoop:
        return;
      case kFire:
        After(0.1, 10.0, kFire);
        return;
      case kWork: {
        After(0.1, 5.0, kWork, p.a);
        EventId& guard = guards[static_cast<size_t>(p.a)];
        if (guard != kInvalidEventId) {
          sim_->Cancel(guard);
        }
        guard = sim_->ScheduleContinuationAfter(1000.0, kComp, kNoop);
        return;
      }
      default:
        tasks[kind - kTick0]->Fire();
    }
  }
  void RestoreContinuation(uint16_t, const ContinuationPayload&, SimTime) override {}

  std::vector<EventId> guards;
  std::vector<std::unique_ptr<PeriodicTask>> tasks;

 private:
  Simulator* sim_;
  Rng rng_;
};

// Each fired event schedules exactly one successor, keeping `population`
// events in flight at pseudo-random future times.
Result ScheduleFire(uint64_t target_events, int population) {
  Simulator sim;
  Client client(&sim, 7);
  for (int i = 0; i < population; ++i) {
    client.After(0.1, 10.0, Client::kFire);
  }
  Clock::time_point start = Clock::now();
  sim.RunUntilIdle(target_events);
  return {"schedule+fire", sim.executed_events(), Seconds(start)};
}

// Each fired event schedules a "work" successor and a "timeout" guard, then
// cancels the previous guard — one Cancel per fire, like heartbeat liveness.
Result ScheduleCancel(uint64_t target_events, int population) {
  Simulator sim;
  Client client(&sim, 11);
  client.guards.assign(static_cast<size_t>(population), kInvalidEventId);
  for (int i = 0; i < population; ++i) {
    client.After(0.1, 5.0, Client::kWork, i);
  }
  Clock::time_point start = Clock::now();
  sim.RunUntilIdle(target_events);
  return {"schedule/cancel", sim.executed_events(), Seconds(start)};
}

// 90% of scheduled events never fire: schedule a burst, cancel most of it,
// step through the survivors. Exercises tombstone skipping and slot reuse.
Result CancelHeavy(uint64_t target_events) {
  Simulator sim;
  Client client(&sim, 13);
  uint64_t scheduled = 0;
  Clock::time_point start = Clock::now();
  std::vector<EventId> burst;
  burst.reserve(1000);
  while (sim.executed_events() < target_events) {
    burst.clear();
    for (int i = 0; i < 1000; ++i) {
      burst.push_back(client.After(0.1, 10.0, Client::kNoop));
      ++scheduled;
    }
    for (size_t i = 0; i < burst.size(); ++i) {
      if (i % 10 != 0) {
        sim.Cancel(burst[i]);
      }
    }
    sim.RunUntilIdle(100);
  }
  // Count schedule+cancel operations as events too: the scenario's cost is
  // dominated by them, not by the 10% that fire.
  return {"cancel-heavy", scheduled, Seconds(start)};
}

// Many periodic timers with coprime-ish periods ticking concurrently.
Result PeriodicChurn(uint64_t target_events, int tasks) {
  Simulator sim;
  Client client(&sim, 0);
  uint64_t ticks = 0;
  for (int i = 0; i < tasks; ++i) {
    client.tasks.push_back(std::make_unique<PeriodicTask>(
        &sim, 0.37 + 0.01 * i, Client::kComp, static_cast<uint16_t>(Client::kTick0 + i),
        [&] { ++ticks; }));
    client.tasks.back()->Start();
  }
  Clock::time_point start = Clock::now();
  sim.RunUntilIdle(target_events);
  return {"periodic churn", sim.executed_events(), Seconds(start)};
}

void Run() {
  const uint64_t kEvents = 4'000'000;
  std::printf("Simulator core microbenchmark (%llu events per scenario)\n",
              static_cast<unsigned long long>(kEvents));
  std::vector<Result> results;
  results.push_back(ScheduleFire(kEvents, 1024));
  results.push_back(ScheduleCancel(kEvents, 1024));
  results.push_back(CancelHeavy(kEvents / 4));
  results.push_back(PeriodicChurn(kEvents, 512));

  Table table({"scenario", "events", "seconds", "events/sec"});
  uint64_t total_events = 0;
  double total_seconds = 0.0;
  for (const Result& r : results) {
    total_events += r.events;
    total_seconds += r.seconds;
    table.AddRow({r.name, Table::Int(static_cast<double>(r.events)), Table::Num(r.seconds, 3),
                  Table::Int(static_cast<double>(r.events) / r.seconds)});
  }
  table.AddRow({"all scenarios", Table::Int(static_cast<double>(total_events)),
                Table::Num(total_seconds, 3),
                Table::Int(static_cast<double>(total_events) / total_seconds)});
  table.Print();
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) {
  laminar::InitBenchTracing(argc, argv);
  laminar::Run();
  return 0;
}
