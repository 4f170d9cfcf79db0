#include "src/core/laminar_system.h"

#include "src/common/logging.h"
#include "src/relay/broadcast_model.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"

namespace laminar {

namespace {
constexpr int32_t kSystemComp = ContinuationComponentId(kContFamilySystem);
// Period of the invariant checker's ledger and KV-accounting sweep.
constexpr double kInvariantSweepPeriodSeconds = 10.0;
}  // namespace

LaminarSystem::~LaminarSystem() { sim_.continuations().Unregister(kSystemComp); }

void LaminarSystem::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  switch (kind) {
    case kContActorPublish:
      manager_->OnActorPublish(static_cast<int>(p.a));
      return;
    case kContHeartbeatRevive:
      OnHeartbeatRevive(static_cast<int>(p.a));
      return;
    case kContRelayRestart:
      OnRelayRestartFire(static_cast<int>(p.a));
      return;
    case kContSpeedRestore:
      OnSpeedRestore(static_cast<int>(p.a));
      return;
    case kContServingArrival:
      OnServingArrivalFire();
      return;
    case kContInvariantSweep:
      invariant_sweep_->Fire();
      return;
    case kContRefreshPull:
      OnRefreshPull(static_cast<int>(p.a), static_cast<int>(p.c));
      return;
  }
  // Driver-owned kinds (disjoint 0xF000+ range) arrive through this override
  // too, because the registry dispatches virtually on the shared object.
  DriverBase::RunContinuation(kind, p);
}

void LaminarSystem::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                        SimTime at) {
  switch (kind) {
    case kContActorPublish:
    case kContHeartbeatRevive:
    case kContRelayRestart:
    case kContSpeedRestore:
    case kContServingArrival:
      sim_.ScheduleContinuationAt(at, kSystemComp, kind, p);
      return;
    case kContInvariantSweep:
      LAMINAR_CHECK(invariant_sweep_ != nullptr);
      invariant_sweep_->RestorePending(at);
      return;
    case kContRefreshPull:
      // Only ever fires synchronously through a relay pull ticket; it can
      // never be parked on the event heap.
      LAMINAR_CHECK(false) << "kContRefreshPull cannot be pending on the heap";
      return;
  }
  DriverBase::RestoreContinuation(kind, p, at);
}

void LaminarSystem::Setup() {
  LAMINAR_CHECK(!placement_.colocated);
  sim_.continuations().Register(kSystemComp, this);
  int num_replicas = placement_.rollout_gpus / rollout_tp_;
  BuildReplicas(num_replicas, rollout_tp_, /*machine_offset=*/0);

  RelayTierConfig relay_cfg;
  relay_cfg.num_relays = NumRolloutMachines();
  relay_cfg.weight_bytes = model_.weight_bytes();
  // The chain uses two of the machine's eight 400 Gbps NICs per hop, which
  // reproduces the paper's <1.6 s broadcast of 72B weights to 127 relays.
  relay_cfg.rdma_bandwidth = 2.0 * machine_spec_.rdma_flow_bandwidth;
  relay_cfg.rdma_startup = machine_spec_.rdma_startup_latency;
  relay_cfg.pcie_bandwidth = machine_spec_.pcie_bandwidth;
  // hardware_speed dilation: rates scale up, fixed latencies/periods scale
  // down (machine_spec_ rates were already scaled by DriverBase).
  relay_cfg.actor_push_bandwidth *= cfg_.hardware_speed;
  relay_cfg.reshard_seconds *= TimeScale();
  relay_cfg.rebuild_seconds *= TimeScale();
  relay_cfg.master_elect_seconds *= TimeScale();
  relay_cfg.hop_timeout_guard *= TimeScale();
  relay_cfg.master_elect_backoff_cap_seconds *= TimeScale();
  relay_cfg.election_stability_window_seconds *= TimeScale();
  relays_ = std::make_unique<RelayTier>(&sim_, relay_cfg);

  BuildTrainer(TrainerMode::kFullBatch, /*auto_continue=*/true, TrainBackend::kFsdp);

  RolloutManagerConfig mgr_cfg;
  mgr_cfg.repack_enabled = cfg_.repack_enabled;
  mgr_cfg.use_static_threshold = cfg_.repack_static_threshold;
  mgr_cfg.static_threshold_requests = cfg_.repack_static_threshold_requests;
  mgr_cfg.repack_period_seconds = cfg_.repack_period_seconds;
  mgr_cfg.repack.batch_bound = RooflineBound();
  mgr_cfg.per_replica_batch = ResolvedPerReplicaBatch();
  mgr_cfg.backlog_cap = ResolvedBacklogCap();
  mgr_cfg.machine_replacement_seconds *= TimeScale();
  mgr_cfg.replica_init_seconds *= TimeScale();
  mgr_cfg.redirect_backoff_base_seconds *= TimeScale();
  mgr_cfg.redirect_backoff_cap_seconds *= TimeScale();
  if (cfg_.serving.enabled) {
    LAMINAR_CHECK_LT(cfg_.serving.dedicated_replicas, num_replicas);
    mgr_cfg.serving_enabled = true;
    mgr_cfg.serving_dedicated_replicas = cfg_.serving.dedicated_replicas;
    mgr_cfg.serving_retry_period_seconds *= TimeScale();
  }
  manager_ = std::make_unique<RolloutManager>(&sim_, mgr_cfg, replica_ptrs_, relays_.get(),
                                              prompts_.get(), &partial_pool_);
  manager_->set_backlog_fn([this] { return static_cast<int64_t>(buffer_->size()); });
  if (cfg_.serving.enabled) {
    // hardware_speed dilation: the arrival rate is a rate (scales up); the
    // diurnal period, SLO terms and start offset are times (scale down).
    ServingTrafficConfig sc = cfg_.serving;
    sc.base_rate_per_sec *= cfg_.hardware_speed;
    sc.diurnal_period_seconds *= TimeScale();
    sc.start_seconds *= TimeScale();
    sc.slo_base_seconds *= TimeScale();
    sc.slo_per_token_seconds *= TimeScale();
    serving_traffic_ =
        std::make_unique<ServingTrafficGenerator>(sc, root_rng_.Fork("serving"));
    // Completions arrive through the driver's serving intercept.
    serving_complete_fn_ = [this](TrajectoryRecord record) {
      manager_->OnServingComplete(record);
    };
  }
  for (RolloutReplica* r : replica_ptrs_) {
    r->set_on_batch_done(
        [this](RolloutReplica* replica) { manager_->OnBatchDone(replica); });
  }

  // The trainer hands new weights to the master relay (sub-second stall) and
  // keeps training; the broadcast chain propagates in the background. The
  // publish-triggered repack fires once the broadcast has landed on the
  // relays, so the replicas it releases find the new weights already cached.
  BroadcastParams bc;
  bc.message_bytes = relay_cfg.weight_bytes;
  bc.byte_time = 1.0 / relay_cfg.rdma_bandwidth;
  bc.startup_time = relay_cfg.rdma_startup;
  distribution_delay_ = relay_cfg.weight_bytes / relay_cfg.actor_push_bandwidth +
                        relay_cfg.reshard_seconds +
                        OptimalBroadcastTime(bc, relay_cfg.num_relays) +
                        0.1 * TimeScale();
  trainer_->set_publish_fn([this](int version) {
    double stall = relays_->Publish(version);
    sim_.ScheduleContinuationAfter(distribution_delay_, kSystemComp, kContActorPublish,
                                   ContinuationPayload::Of(version));
    if (cfg_.laminar_partial_rollout) {
      ApplyPartialRollout(version);
    }
    return stall;
  });

  heartbeats_ = std::make_unique<HeartbeatMonitor>(
      &sim_, /*period=*/1.0 * TimeScale(), /*miss_threshold=*/2, [this](int machine) {
        manager_->OnMachineFailure(machine);
        // The replacement machine beats again once its engines are up, so a
        // later fault on the same slot is detectable (chaos schedules can
        // hit one machine repeatedly).
        double replaced_in = manager_->config().machine_replacement_seconds +
                             manager_->config().replica_init_seconds;
        sim_.ScheduleContinuationAfter(replaced_in, kSystemComp, kContHeartbeatRevive,
                                       ContinuationPayload::Of(machine));
      });
  for (int m = 0; m < NumRolloutMachines(); ++m) {
    heartbeats_->Register(m);
  }

  // Gray-failure detection: the manager's windowed decode-efficiency probe
  // feeds the monitor's slowness score; a detection quarantines the replica
  // and drains its work, recovery lifts the quarantine.
  for (RolloutReplica* r : replica_ptrs_) {
    heartbeats_->RegisterRateSource(r->config().id);
  }
  manager_->set_rate_observer([this](int replica_id, double efficiency) {
    heartbeats_->ObserveRate(replica_id, efficiency);
  });
  heartbeats_->set_on_slow([this](int replica_id) { manager_->OnReplicaSlow(replica_id); });
  heartbeats_->set_on_slow_recovered(
      [this](int replica_id) { manager_->OnReplicaSlowRecovered(replica_id); });

  // Fault injection: every kind is wired whether or not chaos is enabled, so
  // scripted drills (ScheduleFault) and the seeded Poisson schedule share one
  // path through the system.
  injector_ = std::make_unique<FaultInjector>(&sim_);
  injector_->set_num_machines(NumRolloutMachines());
  injector_->set_num_replicas(static_cast<int>(replica_ptrs_.size()));
  injector_->set_heartbeats(heartbeats_.get());
  injector_->set_on_relay_fault([this](int machine) {
    relays_->KillRelay(machine);
    RestartRelayAfter(machine, cfg_.chaos.relay_restart_seconds);
  });
  injector_->set_on_master_fault([this] {
    int machine = relays_->master();
    relays_->KillRelay(machine);
    RestartRelayAfter(machine, cfg_.chaos.relay_restart_seconds);
  });
  injector_->set_on_trainer_fault([this] {
    trainer_->Kill(cfg_.chaos.trainer_recovery_seconds);
    // The recovered process checkpoints on boot.
    trainer_checkpoint_ = trainer_->Checkpoint();
  });
  injector_->set_on_crash_restart([this](double restart_delay) {
    // A scripted drill can fire before Begin() installed the first
    // checkpoint; an empty blob would fail to parse, so fall back to
    // checkpointing the pristine state on the spot.
    if (trainer_checkpoint_.empty()) {
      trainer_checkpoint_ = trainer_->Checkpoint();
    }
    trainer_->CrashRestart(trainer_checkpoint_, restart_delay);
    trainer_checkpoint_ = trainer_->Checkpoint();
  });
  injector_->set_on_machine_stall([this](int machine, double duration) {
    heartbeats_->Stall(machine, duration);
    manager_->OnMachineStall(machine, duration);
  });
  injector_->set_on_link_flap(
      [this](int machine, double duration) { relays_->FlapLink(machine, duration); });
  injector_->set_on_replica_slow([this](int replica_id, double severity, double duration) {
    RolloutReplica* r = replica_ptrs_[replica_id];
    if (r->phase() == ReplicaPhase::kDead) {
      return;
    }
    r->SetSpeedFactor(severity);
    sim_.ScheduleContinuationAfter(duration, kSystemComp, kContSpeedRestore,
                                   ContinuationPayload::Of(replica_id));
  });
  injector_->set_on_message_drop(
      [this](int machine) { relays_->DropNextArrival(machine); });

  // On a direct boot every unfired fault comes back through the blob's
  // event_heap section; scheduling the script again would double-fire it.
  if (!restoring()) {
    if (cfg_.chaos_enabled) {
      FaultProcessConfig pc = cfg_.chaos;
      if (pc.horizon_seconds <= 0.0) {
        pc.horizon_seconds = cfg_.max_sim_seconds;
      }
      if (pc.num_machines == 0) {
        pc.num_machines = NumRolloutMachines();
      }
      if (pc.num_replicas == 0) {
        pc.num_replicas = static_cast<int>(replica_ptrs_.size());
      }
      injector_->ScheduleAll(FaultProcess(pc).Generate(cfg_.chaos_seed));
    }
    injector_->ScheduleAll(pending_faults_);
  }
  pending_faults_.clear();

  if (cfg_.invariants_enabled) {
    invariants_ = std::make_unique<InvariantChecker>(&sim_);
    invariants_->set_issued_fn([this] { return prompts_->trajectories_issued(); });
    invariants_->set_inflight_fn([this] { return manager_->inflight_trajectories(); });
    invariants_->set_pool(&partial_pool_);
    for (RolloutReplica* r : replica_ptrs_) {
      invariants_->AddReplica(r);
    }
    if (cfg_.serving.enabled) {
      invariants_->set_serving_fn([this] {
        ServingStats ss = manager_->serving_stats();
        ServingCounts c;
        c.requests = ss.requests;
        c.rejected = ss.rejected;
        c.queued = ss.queued_now;
        c.resident = ss.resident_now;
        c.completed = ss.completed;
        c.timed_out = ss.timed_out;
        c.failed = ss.failed;
        c.deadline_hits = ss.deadline_hits;
        c.deadline_misses = ss.deadline_misses;
        return c;
      });
    }
    // DriverBase::Run calls Setup before WireCompletion, so arming the
    // pointer here routes every buffer push through the checker.
    invariant_checker_ = invariants_.get();
    invariant_sweep_ = std::make_unique<PeriodicTask>(
        &sim_, kInvariantSweepPeriodSeconds * TimeScale(), kSystemComp, kContInvariantSweep,
        [this] { invariants_->CheckSweep(); });
  }
}

void LaminarSystem::ScheduleFault(const FaultEvent& event) {
  if (injector_ != nullptr) {
    injector_->Schedule(event);
  } else {
    pending_faults_.push_back(event);
  }
}

void LaminarSystem::RestartRelayAfter(int machine, double delay_seconds) {
  sim_.ScheduleContinuationAfter(delay_seconds, kSystemComp, kContRelayRestart,
                                 ContinuationPayload::Of(machine));
}

void LaminarSystem::OnRelayRestartFire(int machine) {
  // A machine failure may have claimed the relay meanwhile; the replacement
  // machine brings its own relay, so leave revival to that path.
  for (RolloutReplica* r : replica_ptrs_) {
    if (r->config().machine == machine && r->phase() == ReplicaPhase::kDead) {
      return;
    }
  }
  relays_->ReviveRelay(machine);
  // Replicas that were mid-pull when the relay died lost their waiters;
  // re-issue those pulls against the revived relay.
  manager_->OnRelayRestarted(machine);
}

void LaminarSystem::OnHeartbeatRevive(int machine) { heartbeats_->Revive(machine); }

void LaminarSystem::OnSpeedRestore(int replica_id) {
  RolloutReplica* r = replica_ptrs_[replica_id];
  if (r->phase() != ReplicaPhase::kDead) {
    r->SetSpeedFactor(1.0);
  }
}

void LaminarSystem::ApplyPartialRollout(int version) {
  // Every replica still generating under an older version switches to the
  // new weights as soon as its local relay can serve them: the in-flight
  // trajectories continue (mixed-version) after a full KV recomputation.
  for (RolloutReplica* r : replica_ptrs_) {
    if (r->phase() != ReplicaPhase::kGenerating || r->weight_version() >= version) {
      continue;
    }
    int machine = r->config().machine;
    int tp = r->decode_model().tensor_parallel();
    relays_->PullLatest(machine, tp, r->weight_version(),
                        PullTicket{kSystemComp, kContRefreshPull, r->config().id, 0});
  }
}

void LaminarSystem::OnRefreshPull(int replica_id, int got) {
  RolloutReplica* r = replica_ptrs_[replica_id];
  if (r->phase() == ReplicaPhase::kGenerating && r->weight_version() < got) {
    r->Pause();
    r->Resume(got, /*recompute_kv=*/true);
  }
}

void LaminarSystem::Begin() {
  trainer_checkpoint_ = trainer_->Checkpoint();
  heartbeats_->Start();
  manager_->Start();
  trainer_->Start();
  if (invariant_sweep_ != nullptr) {
    invariant_sweep_->Start();
  }
  if (serving_traffic_ != nullptr) {
    PumpServing();
  }
}

void LaminarSystem::PumpServing() {
  ServingRequest req = serving_traffic_->Next();
  if (req.arrival_seconds > cfg_.max_sim_seconds) {
    return;  // past the horizon; the pump stays quiet for the rest of the run
  }
  // The request itself is parked on the driver (and serialized there); the
  // heap event carries no payload beyond its kind.
  pending_serving_ = req;
  serving_pending_ = true;
  sim_.ScheduleContinuationAt(SimTime(req.arrival_seconds), kSystemComp,
                              kContServingArrival);
}

void LaminarSystem::OnServingArrivalFire() {
  LAMINAR_CHECK(serving_pending_);
  serving_pending_ = false;
  manager_->OnServingArrival(pending_serving_);
  PumpServing();
}

void LaminarSystem::OnIteration(const IterationStats& stats) {
  (void)stats;
  trainer_checkpoint_ = trainer_->Checkpoint();
}

void LaminarSystem::SnapshotComponents(SnapshotTx& tx) {
  DriverBase::SnapshotComponents(tx);
  tx.Begin("laminar");
  relays_->Snapshot(tx);
  manager_->Snapshot(tx);
  heartbeats_->Snapshot(tx);
  injector_->Snapshot(tx);
  // The full durable-checkpoint blob rides along: a direct boot must be able
  // to service a later kCrashRestart fault without the original process.
  tx.Bytes("trainer_checkpoint", &trainer_checkpoint_);
  if (serving_traffic_ != nullptr) {
    tx.Begin("serving_traffic");
    serving_traffic_->Snapshot(tx);
    tx.Bool("serving_pending", &serving_pending_);
    SnapshotPacked(
        tx, "pending_serving",
        [this](ByteSink& s) {
          s.I64(pending_serving_.seq);
          s.F64(pending_serving_.arrival_seconds);
          s.I64(pending_serving_.prompt_tokens);
          s.I64(pending_serving_.decode_tokens);
          s.F64(pending_serving_.deadline_seconds);
        },
        [this](ByteSource& s) {
          pending_serving_.seq = s.I64();
          pending_serving_.arrival_seconds = s.F64();
          pending_serving_.prompt_tokens = s.I64();
          pending_serving_.decode_tokens = s.I64();
          pending_serving_.deadline_seconds = s.F64();
        });
  }
  if (invariants_ != nullptr) {
    invariants_->Snapshot(tx);
  }
  tx.End();
}

void LaminarSystem::Finalize(SystemReport& report) {
  const SampleSet& pulls = relays_->pull_wait_seconds();
  if (!pulls.empty()) {
    report.rollout_wait_mean_seconds = pulls.mean();
    report.rollout_wait_best_seconds = pulls.min();
    report.rollout_wait_p99_seconds = pulls.Quantile(0.99);
  }
  if (!relays_->actor_stall_seconds().empty()) {
    report.actor_stall_mean_seconds = relays_->actor_stall_seconds().mean();
  }
  const RolloutManagerStats& ms = manager_->stats();
  report.repack_events = ms.repack_events;
  report.repack_sources_released = ms.sources_released;
  report.repack_trajectories_migrated = ms.trajectories_migrated;
  if (!ms.repack_overhead_seconds.empty()) {
    report.repack_overhead_mean_seconds = ms.repack_overhead_seconds.mean();
  }
  report.slow_events = ms.slow_events;
  report.slow_recoveries = ms.slow_recoveries;
  report.trajectories_dropped = ms.trajectories_dropped;
  report.duplicates_suppressed = partial_pool_.duplicate_completions();
  if (injector_ != nullptr) {
    report.faults_injected = injector_->injected();
  }
  if (invariants_ != nullptr) {
    invariants_->CheckFinal();
    report.invariant_checks = invariants_->checks_run();
    report.invariant_violations = invariants_->violation_count();
  }
  if (cfg_.serving.enabled) {
    report.serving_enabled = true;
    ServingStats ss = manager_->serving_stats();
    report.serving_requests = ss.requests;
    report.serving_admitted = ss.admitted;
    report.serving_rejected = ss.rejected;
    report.serving_completed = ss.completed;
    report.serving_timed_out = ss.timed_out;
    report.serving_failed = ss.failed;
    report.serving_deadline_hits = ss.deadline_hits;
    report.serving_deadline_misses = ss.deadline_misses;
    report.serving_preemptions = ss.rollout_preempted;
    report.serving_inflight_at_end = ss.queued_now + ss.resident_now;
    if (!ss.latency_seconds.empty()) {
      report.serving_latency_mean_seconds = ss.latency_seconds.mean();
      report.serving_latency_p50_seconds = ss.latency_seconds.Quantile(0.50);
      report.serving_latency_p99_seconds = ss.latency_seconds.Quantile(0.99);
    }
    int64_t terminal = ss.completed + ss.timed_out + ss.failed;
    if (terminal > 0) {
      report.serving_slo_attainment =
          static_cast<double>(ss.deadline_hits) / static_cast<double>(terminal);
    }
  }
}

}  // namespace laminar
