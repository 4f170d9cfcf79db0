#include "src/fault/fault_process.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace laminar {
namespace {

// Log-uniform draw over [lo, hi]: transient fault durations span orders of
// magnitude (a half-second hiccup vs a minutes-long brownout), and real
// incident data is heavy-tailed in exactly this way.
double LogUniform(Rng& rng, double lo, double hi) {
  LAMINAR_CHECK_GT(lo, 0.0);
  LAMINAR_CHECK_GE(hi, lo);
  return std::exp(rng.Uniform(std::log(lo), std::log(hi)));
}

}  // namespace

FaultProcess::FaultProcess(FaultProcessConfig config) : config_(config) {
  LAMINAR_CHECK_GE(config_.start_seconds, 0.0);
  // An infinite horizon, or an infinite rate (whose exponential gaps are
  // all zero), would append faults until memory runs out.
  LAMINAR_CHECK(std::isfinite(config_.horizon_seconds) && config_.horizon_seconds >= 0.0)
      << "(horizon " << config_.horizon_seconds << ") ";
  for (double per_hour :
       {config_.machine_fail_per_hour, config_.relay_fail_per_hour,
        config_.master_fail_per_hour, config_.trainer_fail_per_hour,
        config_.machine_stall_per_hour, config_.link_flap_per_hour,
        config_.replica_slow_per_hour, config_.message_drop_per_hour,
        config_.crash_restart_per_hour}) {
    LAMINAR_CHECK(std::isfinite(per_hour)) << "(rate " << per_hour << " per hour) ";
  }
}

std::vector<FaultEvent> FaultProcess::Generate(uint64_t seed) const {
  std::vector<FaultEvent> schedule;
  const double start = config_.start_seconds;
  const double end = start + config_.horizon_seconds;
  Rng root(seed);

  // One Poisson arrival stream per component class; `fill` decorates each
  // arrival with its class-specific target/duration/severity draws.
  auto emit = [&](const char* stream, double per_hour,
                  const std::function<void(Rng&, FaultEvent&)>& fill) {
    if (per_hour <= 0.0 || end <= start) {
      return;
    }
    Rng rng = root.Fork(stream);
    double rate = per_hour / 3600.0;
    double t = start;
    for (;;) {
      t += rng.Exponential(rate);
      if (t >= end) {
        break;
      }
      FaultEvent e;
      e.at_seconds = t;
      fill(rng, e);
      schedule.push_back(e);
    }
  };

  const int machines = config_.num_machines;
  const int replicas = config_.num_replicas;
  if (machines > 0) {
    emit("machine-fail", config_.machine_fail_per_hour, [&](Rng& rng, FaultEvent& e) {
      e.kind = FaultKind::kRolloutMachine;
      e.target = static_cast<int>(rng.UniformInt(0, machines - 1));
    });
    emit("relay-fail", config_.relay_fail_per_hour, [&](Rng& rng, FaultEvent& e) {
      e.kind = FaultKind::kRelayProcess;
      e.target = static_cast<int>(rng.UniformInt(0, machines - 1));
    });
    emit("machine-stall", config_.machine_stall_per_hour, [&](Rng& rng, FaultEvent& e) {
      e.kind = FaultKind::kMachineStall;
      e.target = static_cast<int>(rng.UniformInt(0, machines - 1));
      e.duration_seconds =
          LogUniform(rng, config_.stall_duration_lo, config_.stall_duration_hi);
    });
    emit("link-flap", config_.link_flap_per_hour, [&](Rng& rng, FaultEvent& e) {
      e.kind = FaultKind::kLinkFlap;
      e.target = static_cast<int>(rng.UniformInt(0, machines - 1));
      e.duration_seconds =
          LogUniform(rng, config_.flap_duration_lo, config_.flap_duration_hi);
    });
    emit("message-drop", config_.message_drop_per_hour, [&](Rng& rng, FaultEvent& e) {
      e.kind = FaultKind::kMessageDrop;
      e.target = static_cast<int>(rng.UniformInt(0, machines - 1));
    });
  }
  emit("master-fail", config_.master_fail_per_hour, [&](Rng&, FaultEvent& e) {
    e.kind = FaultKind::kMasterRelay;
    e.target = 0;  // resolved to the current master at fire time
  });
  emit("trainer-fail", config_.trainer_fail_per_hour, [&](Rng&, FaultEvent& e) {
    e.kind = FaultKind::kTrainerWorker;
    e.target = 0;
  });
  emit("crash-restart", config_.crash_restart_per_hour, [&](Rng&, FaultEvent& e) {
    e.kind = FaultKind::kCrashRestart;
    e.target = 0;
    e.duration_seconds = config_.crash_restart_recovery_seconds;
  });
  if (replicas > 0) {
    emit("replica-slow", config_.replica_slow_per_hour, [&](Rng& rng, FaultEvent& e) {
      e.kind = FaultKind::kReplicaSlow;
      e.target = static_cast<int>(rng.UniformInt(0, replicas - 1));
      e.severity = rng.Uniform(config_.slow_factor_lo, config_.slow_factor_hi);
      e.duration_seconds =
          LogUniform(rng, config_.slow_duration_lo, config_.slow_duration_hi);
    });
  }

  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_seconds != b.at_seconds) {
                       return a.at_seconds < b.at_seconds;
                     }
                     if (a.kind != b.kind) {
                       return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                     }
                     return a.target < b.target;
                   });
  return schedule;
}

}  // namespace laminar
