// Domain example 2: long-running training under a hostile fault schedule.
//
// Injects the paper's three failure classes — rollout machine loss, master
// relay loss, and a trainer worker crash — into one Laminar job and shows
// that training rides through all of them (paper §3.3, §4.3, §8.5).
//
//   ./fault_tolerant_training --gpus 64
#include <cstdio>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/core/laminar_system.h"
#include "src/core/run.h"

int main(int argc, char** argv) {
  using namespace laminar;
  Flags flags;
  flags.Define("gpus", "64", "total GPUs (7B scale)")
      .Define("iters", "10", "RL iterations to survive")
      .Define("verbose", "true", "log recovery events");
  if (!flags.Parse(argc, argv)) {
    return 0;
  }
  if (flags.GetBool("verbose")) {
    laminar::SetLogLevel(laminar::LogLevel::kInfo);
  }

  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = static_cast<int>(flags.GetInt("gpus"));
  cfg.global_batch = 2048;
  cfg.warmup_iterations = 0;
  cfg.measure_iterations = static_cast<int>(flags.GetInt("iters"));

  // The trainer worker comes back from its checkpoint after 90 s.
  cfg.chaos.trainer_recovery_seconds = 90.0;

  auto driver = MakeDriver(cfg);
  auto* system = static_cast<LaminarSystem*>(driver.get());

  // The fault schedule: a rollout machine dies early, the master relay dies
  // mid-run, and a trainer worker crashes later. Scripted faults go through
  // the same injector as the chaos engine's.
  std::printf("t=60s     rollout machine 1 power loss\n"
              "t=250s    master relay failure\n"
              "t=420s    trainer worker crash (checkpoint recovery)\n");
  system->ScheduleFault({60.0, FaultKind::kRolloutMachine, /*target=*/1});
  system->ScheduleFault({250.0, FaultKind::kMasterRelay});
  system->ScheduleFault({420.0, FaultKind::kTrainerWorker});

  SystemReport rep = driver->Run();

  std::printf("\nSurvived. %d/%d iterations completed in %s simulated.\n",
              rep.iterations_completed, static_cast<int>(flags.GetInt("iters")),
              SimTime(rep.simulated_seconds).ToString().c_str());

  const RolloutManagerStats& ms = system->manager()->stats();
  Table t({"recovery metric", "value"});
  t.AddRow({"machine failures handled", Table::Int(ms.failures_handled)});
  t.AddRow({"trajectories redirected (partial-response pool)",
            Table::Int(ms.trajectories_redirected)});
  t.AddRow({"relay chain rebuilds", Table::Int(system->relays()->chain_rebuilds())});
  t.AddRow({"master re-elections", Table::Int(system->relays()->master_elections())});
  t.AddRow({"final throughput (tokens/s)", Table::Int(rep.throughput_tokens_per_sec)});
  t.AddRow({"final eval reward", Table::Num(rep.final_eval_reward, 3)});
  t.Print();

  std::printf("\nGeneration rate timeline (dips mark failures, recovery follows):\n");
  for (const TimePoint& p : rep.generation_rate.Resample(120.0)) {
    std::string bar(static_cast<size_t>(p.value / 4000.0), '#');
    std::printf("  t=%5.0fs %9s tok/s %s\n", p.time.seconds(),
                Table::Int(p.value).c_str(), bar.c_str());
  }
  return 0;
}
