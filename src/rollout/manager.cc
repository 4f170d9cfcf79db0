#include "src/rollout/manager.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"

namespace laminar {
namespace {

// Owner id for recovered work parked in the manager (pending_redirects_):
// no replica matches it, so a machine death can never resurrect a stale
// pooled copy of work the manager already holds.
constexpr int kManagerOwner = -1;

constexpr int32_t kManagerComp = ContinuationComponentId(kContFamilyManager);

// Returns the work list for `version` in a flat version->works vector kept
// sorted ascending, inserting an empty slot if absent. Matches std::map's
// operator[] semantics (and its ascending iteration order) without the
// per-node allocations.
std::vector<TrajectoryWork>& WorksForVersion(
    std::vector<std::pair<int, std::vector<TrajectoryWork>>>& vw, int version) {
  auto it = std::lower_bound(
      vw.begin(), vw.end(), version,
      [](const std::pair<int, std::vector<TrajectoryWork>>& entry, int v) {
        return entry.first < v;
      });
  if (it == vw.end() || it->first != version) {
    it = vw.insert(it, {version, {}});
  }
  return it->second;
}

}  // namespace

RolloutManager::RolloutManager(Simulator* sim, RolloutManagerConfig config,
                               std::vector<RolloutReplica*> replicas, RelayTier* relays,
                               PromptPool* prompts, PartialResponsePool* partial_pool)
    : sim_(sim), config_(config), replicas_(std::move(replicas)), relays_(relays),
      prompts_(prompts), partial_pool_(partial_pool) {
  LAMINAR_CHECK(!replicas_.empty());
  LAMINAR_CHECK_GT(config_.per_replica_batch, 0);
  probes_.resize(replicas_.size());
  for (RolloutReplica* r : replicas_) {
    int id = r->config().id;
    LAMINAR_CHECK_GE(id, 0);
    if (static_cast<size_t>(id) >= replica_by_id_.size()) {
      replica_by_id_.resize(static_cast<size_t>(id) + 1, nullptr);
    }
    replica_by_id_[static_cast<size_t>(id)] = r;
  }
  ctr_repack_events_ = metrics_.Counter("manager/repack_events");
  ctr_sources_released_ = metrics_.Counter("manager/sources_released");
  ctr_trajectories_migrated_ = metrics_.Counter("manager/trajectories_migrated");
  ctr_batches_assigned_ = metrics_.Counter("manager/batches_assigned");
  ctr_failures_handled_ = metrics_.Counter("manager/failures_handled");
  ctr_trajectories_redirected_ = metrics_.Counter("manager/trajectories_redirected");
  ctr_slow_events_ = metrics_.Counter("manager/slow_events");
  ctr_slow_recoveries_ = metrics_.Counter("manager/slow_recoveries");
  ctr_trajectories_drained_slow_ = metrics_.Counter("manager/trajectories_drained_slow");
  ctr_redirect_retries_ = metrics_.Counter("manager/redirect_retries");
  ctr_trajectories_dropped_ = metrics_.Counter("manager/trajectories_dropped");
  ctr_machine_stalls_ = metrics_.Counter("manager/machine_stalls");
  repack_overhead_seconds_ = metrics_.Samples("manager/repack_overhead_seconds");
  ctr_serving_requests_ = metrics_.Counter("manager/serving_requests");
  ctr_serving_admitted_ = metrics_.Counter("manager/serving_admitted");
  ctr_serving_rejected_ = metrics_.Counter("manager/serving_rejected");
  ctr_serving_completed_ = metrics_.Counter("manager/serving_completed");
  ctr_serving_timed_out_ = metrics_.Counter("manager/serving_timed_out");
  ctr_serving_failed_ = metrics_.Counter("manager/serving_failed");
  ctr_serving_deadline_hits_ = metrics_.Counter("manager/serving_deadline_hits");
  ctr_serving_deadline_misses_ = metrics_.Counter("manager/serving_deadline_misses");
  ctr_serving_rollout_preempted_ = metrics_.Counter("manager/serving_rollout_preempted");
  serving_latency_seconds_ = metrics_.Samples("manager/serving_latency_seconds");
  // The periodic tasks exist from construction (Start() only arms them) so a
  // direct-boot restore can re-seat a pending tick before Start() runs.
  tick_ = std::make_unique<PeriodicTask>(sim_, config_.repack_period_seconds,
                                         kManagerComp, kContTick, [this] { Tick(); });
  if (config_.serving_enabled) {
    serving_tick_ = std::make_unique<PeriodicTask>(
        sim_, config_.serving_retry_period_seconds, kManagerComp, kContServingTick,
        [this] { ServingSweep(); });
  }
  sim_->continuations().Register(kManagerComp, this);
}

RolloutManager::~RolloutManager() { sim_->continuations().Unregister(kManagerComp); }

void RolloutManager::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  switch (kind) {
    case kContPullComplete:
      OnPullComplete(static_cast<int>(p.a), p.b, static_cast<int>(p.c),
                     ContinuationPayload::ToF64(p.d));
      return;
    case kContRedirectRetry:
      OnRedirectRetryFire();
      return;
    case kContMachineReplaced:
      OnMachineReplaced(p.a);
      return;
    case kContStallThaw:
      OnStallThaw(p.a);
      return;
    case kContTick:
      tick_->Fire();
      return;
    case kContServingTick:
      LAMINAR_CHECK(serving_tick_ != nullptr);
      serving_tick_->Fire();
      return;
  }
  LAMINAR_CHECK(false) << "unknown manager continuation kind " << kind;
}

void RolloutManager::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                         SimTime at) {
  switch (kind) {
    case kContRedirectRetry:
      redirect_retry_event_ =
          sim_->ScheduleContinuationAt(at, kManagerComp, kind, p);
      return;
    case kContMachineReplaced:
      sim_->ScheduleContinuationAt(at, kManagerComp, kind, p);
      return;
    case kContStallThaw:
      sim_->ScheduleContinuationAt(at, kManagerComp, kind, p);
      return;
    case kContTick:
      tick_->RestorePending(at);
      return;
    case kContServingTick:
      LAMINAR_CHECK(serving_tick_ != nullptr);
      serving_tick_->RestorePending(at);
      return;
  }
  LAMINAR_CHECK(false) << "manager continuation kind " << kind
                       << " cannot be pending on the heap";
}

ServingStats RolloutManager::serving_stats() const {
  ServingStats s;
  s.requests = ctr_serving_requests_->value();
  s.admitted = ctr_serving_admitted_->value();
  s.rejected = ctr_serving_rejected_->value();
  s.completed = ctr_serving_completed_->value();
  s.timed_out = ctr_serving_timed_out_->value();
  s.failed = ctr_serving_failed_->value();
  s.deadline_hits = ctr_serving_deadline_hits_->value();
  s.deadline_misses = ctr_serving_deadline_misses_->value();
  s.rollout_preempted = ctr_serving_rollout_preempted_->value();
  s.queued_now = static_cast<int64_t>(serving_backlog_.size());
  for (const RolloutReplica* r : replicas_) {
    s.resident_now += r->num_serving();
  }
  s.latency_seconds = *serving_latency_seconds_;
  return s;
}

RolloutManagerStats RolloutManager::stats() const {
  RolloutManagerStats s;
  s.repack_events = ctr_repack_events_->value();
  s.sources_released = ctr_sources_released_->value();
  s.trajectories_migrated = ctr_trajectories_migrated_->value();
  s.batches_assigned = ctr_batches_assigned_->value();
  s.failures_handled = ctr_failures_handled_->value();
  s.trajectories_redirected = ctr_trajectories_redirected_->value();
  s.slow_events = ctr_slow_events_->value();
  s.slow_recoveries = ctr_slow_recoveries_->value();
  s.trajectories_drained_slow = ctr_trajectories_drained_slow_->value();
  s.redirect_retries = ctr_redirect_retries_->value();
  s.trajectories_dropped = ctr_trajectories_dropped_->value();
  s.machine_stalls = ctr_machine_stalls_->value();
  s.repack_overhead_seconds = *repack_overhead_seconds_;
  return s;
}

RolloutReplica* RolloutManager::FindReplica(int replica_id) const {
  if (replica_id < 0 || static_cast<size_t>(replica_id) >= replica_by_id_.size()) {
    return nullptr;
  }
  return replica_by_id_[static_cast<size_t>(replica_id)];
}

bool RolloutManager::SetQuarantined(int replica_id) {
  LAMINAR_CHECK_GE(replica_id, 0);
  size_t idx = static_cast<size_t>(replica_id);
  if (idx >= quarantined_.size()) {
    quarantined_.resize(idx + 1, 0);
  }
  if (quarantined_[idx] != 0) {
    return false;
  }
  quarantined_[idx] = 1;
  return true;
}

bool RolloutManager::ClearQuarantined(int replica_id) {
  if (replica_id < 0 || static_cast<size_t>(replica_id) >= quarantined_.size() ||
      quarantined_[static_cast<size_t>(replica_id)] == 0) {
    return false;
  }
  quarantined_[static_cast<size_t>(replica_id)] = 0;
  return true;
}

void RolloutManager::Start() {
  running_ = true;
  for (RolloutReplica* r : replicas_) {
    AssignFreshBatch(r);
  }
  tick_->Start();
  if (serving_tick_) {
    serving_tick_->Start();
  }
}

void RolloutManager::Stop() {
  running_ = false;
  if (tick_) {
    tick_->Stop();
  }
  if (serving_tick_) {
    serving_tick_->Stop();
  }
  if (redirect_retry_event_ != kInvalidEventId) {
    sim_->Cancel(redirect_retry_event_);
    redirect_retry_event_ = kInvalidEventId;
  }
}

int64_t RolloutManager::inflight_trajectories() const {
  int64_t n = 0;
  for (const RolloutReplica* r : replicas_) {
    // Serving requests never come from the prompt pool; the exactly-once
    // prompt accounting counts rollout work only.
    n += r->num_reqs() - r->num_serving();
  }
  for (const auto& [version, works] : pending_redirects_) {
    n += static_cast<int64_t>(works.size());
  }
  return n;
}

bool RolloutManager::BacklogAllowsAssignment() const {
  if (config_.backlog_cap <= 0) {
    return true;
  }
  // Gate on completed-but-unconsumed experiences only. In-flight work does
  // not count: its staleness is governed by generation latency (the paper's
  // inherent staleness), not by buffer depth.
  int64_t backlog = backlog_fn_ ? backlog_fn_() : 0;
  return backlog < config_.backlog_cap;
}

void RolloutManager::AssignFreshBatch(RolloutReplica* replica) {
  if (!running_ || replica->phase() == ReplicaPhase::kDead) {
    return;
  }
  if (ServesOnly(replica)) {
    return;  // statically partitioned serving replicas never take prompts
  }
  if (!BacklogAllowsAssignment()) {
    starved_.push_back(replica);
    return;
  }
  int group = prompts_->group_size();
  int batch = std::max(group, config_.per_replica_batch / group * group);
  if (IsQuarantined(replica->config().id)) {
    // Probe load only: enough to keep the decode rate observable, little
    // enough that a still-sick replica cannot hold real throughput hostage.
    batch = group * std::max(1, config_.probe_groups);
  }
  std::vector<TrajectoryWork> works =
      prompts_->NextBatch(batch, replica->weight_version(), sim_->Now());
  ctr_batches_assigned_->Add();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/assign_batch",
                        replica->config().id, static_cast<int64_t>(works.size()));
  replica->AssignWork(std::move(works), /*kv_transferred=*/false);
}

void RolloutManager::StartWeightUpdate(RolloutReplica* replica) {
  if (replica->phase() == ReplicaPhase::kDead) {
    return;
  }
  if (ServesOnly(replica)) {
    return;  // dedicated serving replicas keep their boot weights
  }
  if (replica->phase() == ReplicaPhase::kGenerating) {
    // Serving work stays resident through drains, so a repack source may
    // still be decoding here; the update waits for its batch boundary.
    // Unreachable with the serving tier off (sources drain to idle).
    return;
  }
  int current = replica->weight_version();
  if (relays_->latest_published() <= current) {
    // Nothing newer exists; go straight to the next batch.
    AssignFreshBatch(replica);
    return;
  }
  int64_t epoch = replica->BeginWeightUpdate();
  int machine = replica->config().machine;
  int tp = replica->decode_model().tensor_parallel();
  relays_->PullLatest(machine, tp, current,
                      PullTicket{kManagerComp, kContPullComplete,
                                 replica->config().id, epoch});
}

void RolloutManager::OnPullComplete(int replica_id, int64_t epoch, int version,
                                    double wait_seconds) {
  RolloutReplica* replica = FindReplica(replica_id);
  LAMINAR_CHECK(replica != nullptr);
  // The epoch guard rejects completions whose update was aborted (relay
  // restart) or superseded (replica died and revived while the waiter sat on
  // a dead relay).
  if (!replica->EndWeightUpdate(epoch, version, wait_seconds)) {
    return;
  }
  monitor_.Forget(replica_id);
  AssignFreshBatch(replica);
}

void RolloutManager::OnBatchDone(RolloutReplica* replica) {
  if (!running_) {
    return;
  }
  // Paper workflow: a rollout fetches the latest weights as soon as it
  // completes its batch, then pulls the next prompt batch.
  StartWeightUpdate(replica);
}

void RolloutManager::OnActorPublish(int /*version*/) {
  if (!running_) {
    return;
  }
  // A fresh version means backlog just dropped by a global batch; unblock
  // starved replicas first, then consolidate long-tail stragglers so they
  // can move to the new version quickly.
  std::vector<RolloutReplica*> starved = std::move(starved_);
  starved_.clear();
  for (RolloutReplica* r : starved) {
    if (r->phase() == ReplicaPhase::kIdle) {
      StartWeightUpdate(r);
    }
  }
  if (config_.repack_enabled) {
    TriggerRepack();
  }
}

std::vector<ReplicaSnapshot> RolloutManager::CollectSnapshots() {
  std::vector<ReplicaSnapshot> snaps;
  snaps.reserve(replicas_.size());
  for (RolloutReplica* r : replicas_) {
    ReplicaSnapshot s = r->Snapshot();
    if (IsQuarantined(r->config().id) || ServesOnly(r)) {
      s.eligible = false;  // fail-slow or serving-dedicated: absorbs no load
    }
    snaps.push_back(s);
  }
  return snaps;
}

void RolloutManager::TriggerRepack() {
  std::vector<ReplicaSnapshot> snaps = CollectSnapshots();
  monitor_.Observe(snaps);
  // Group by weight version (Figure 8, step 1) and plan per group. A stable
  // sort of snapshot indices yields the same groups, visited in the same
  // ascending-version order with the same within-group snapshot order, as the
  // std::map-of-vectors this replaces — without the per-version allocations.
  std::vector<size_t> order(snaps.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&snaps](size_t a, size_t b) {
    return snaps[a].weight_version < snaps[b].weight_version;
  });
  for (size_t begin = 0; begin < order.size();) {
    int version = snaps[order[begin]].weight_version;
    size_t end = begin;
    std::vector<ReplicaSnapshot> group;
    while (end < order.size() && snaps[order[end]].weight_version == version) {
      group.push_back(snaps[order[end]]);
      ++end;
    }
    begin = end;
    RepackPlan plan =
        config_.use_static_threshold
            ? StaticThresholdConsolidation(group, config_.repack,
                                           config_.static_threshold_requests)
            : BestFitConsolidation(group, config_.repack);
    if (plan.empty()) {
      continue;
    }
    ctr_repack_events_->Add();
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/repack", -1,
                          static_cast<int64_t>(plan.moves.size()));
    // Transfers to distinct destinations proceed in parallel; the plan's
    // overhead is the slowest destination's total KV-transfer stall. A flat
    // per-destination accumulator (few distinct destinations per plan)
    // replaces a std::map; the final max over destinations is
    // order-independent, so the visit order does not matter.
    std::vector<std::pair<int, double>> overhead_by_dst;
    auto overhead_slot = [&overhead_by_dst](int dst) -> double& {
      for (auto& entry : overhead_by_dst) {
        if (entry.first == dst) {
          return entry.second;
        }
      }
      overhead_by_dst.emplace_back(dst, 0.0);
      return overhead_by_dst.back().second;
    };
    for (const auto& [src_id, dst_id] : plan.moves) {
      RolloutReplica* src = FindReplica(src_id);
      RolloutReplica* dst = FindReplica(dst_id);
      LAMINAR_CHECK(src != nullptr && dst != nullptr);
      std::vector<TrajectoryWork> works = src->ExtractAllWork();
      ctr_trajectories_migrated_->Add(static_cast<int64_t>(works.size()));
      for (const TrajectoryWork& w : works) {
        // Re-home the pooled checkpoint to the destination now, not at
        // admission: if the source machine dies while the work still queues
        // on `dst`, a stale source-owned pool entry would otherwise be
        // redirected as a duplicate of the live copy.
        if (partial_pool_->Contains(w.record.id)) {
          partial_pool_->Update(w, dst_id);
        }
        if (w.kv_resident) {
          double kv_bytes = static_cast<double>(w.context_tokens) *
                            dst->decode_model().model().kv_bytes_per_token();
          overhead_slot(dst_id) += dst->config().migration_fixed_overhead +
                                   kv_bytes / dst->config().kv_transfer_bandwidth;
        }
      }
      dst->AssignWork(std::move(works), /*kv_transferred=*/true);
      ctr_sources_released_->Add();
      monitor_.Forget(src_id);
      // The drained source is now free to adopt the newest weights.
      StartWeightUpdate(src);
    }
    double overhead = 0.0;
    for (const auto& entry : overhead_by_dst) {
      overhead = std::max(overhead, entry.second);
    }
    repack_overhead_seconds_->Add(overhead);
  }
}

std::vector<RolloutReplica*> RolloutManager::RedirectHosts(int weight_version) const {
  // Healthy replicas still on the same version can continue these
  // trajectories (after re-prefilling the saved context). Quarantined
  // (fail-slow) replicas are excluded: handing recovered work back to a sick
  // machine defeats the drain.
  std::vector<RolloutReplica*> hosts;
  for (RolloutReplica* r : replicas_) {
    if (r->phase() != ReplicaPhase::kDead && r->phase() != ReplicaPhase::kUpdatingWeights &&
        r->weight_version() == weight_version && !IsQuarantined(r->config().id) &&
        !ServesOnly(r)) {
      hosts.push_back(r);
    }
  }
  std::sort(hosts.begin(), hosts.end(), [](RolloutReplica* a, RolloutReplica* b) {
    return a->num_reqs() < b->num_reqs();
  });
  return hosts;
}

void RolloutManager::RedirectWork(std::vector<TrajectoryWork> works, int weight_version) {
  std::vector<RolloutReplica*> hosts = RedirectHosts(weight_version);
  if (hosts.empty()) {
    auto& pending = WorksForVersion(pending_redirects_, weight_version);
    for (auto& w : works) {
      if (partial_pool_->Contains(w.record.id)) {
        partial_pool_->Update(w, kManagerOwner);
      }
      pending.push_back(std::move(w));
    }
    ScheduleRedirectRetry();
    return;
  }
  DealRedirects(std::move(works), hosts, weight_version);
}

void RolloutManager::DealRedirects(std::vector<TrajectoryWork> works,
                                   const std::vector<RolloutReplica*>& hosts,
                                   int weight_version) {
  std::vector<std::vector<TrajectoryWork>> shards(hosts.size());
  for (size_t i = 0; i < works.size(); ++i) {
    shards[i % hosts.size()].push_back(std::move(works[i]));
  }
  for (size_t i = 0; i < hosts.size(); ++i) {
    if (!shards[i].empty()) {
      for (const TrajectoryWork& w : shards[i]) {
        if (partial_pool_->Contains(w.record.id)) {
          partial_pool_->Update(w, hosts[i]->config().id);
        }
      }
      ctr_trajectories_redirected_->Add(static_cast<int64_t>(shards[i].size()));
      LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/redirect",
                            hosts[i]->config().id,
                            static_cast<int64_t>(shards[i].size()), weight_version);
      hosts[i]->AssignWork(std::move(shards[i]), /*kv_transferred=*/false);
    }
  }
  redirect_retry_attempts_ = 0;
}

void RolloutManager::ScheduleRedirectRetry() {
  if (redirect_retry_event_ != kInvalidEventId) {
    return;
  }
  double delay = std::min(
      config_.redirect_backoff_base_seconds * std::pow(2.0, redirect_retry_attempts_),
      config_.redirect_backoff_cap_seconds);
  ++redirect_retry_attempts_;
  redirect_retry_event_ =
      sim_->ScheduleContinuationAfter(delay, kManagerComp, kContRedirectRetry);
}

void RolloutManager::OnRedirectRetryFire() {
  redirect_retry_event_ = kInvalidEventId;
  ctr_redirect_retries_->Add();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/redirect_retry", -1,
                        redirect_retry_attempts_);
  FlushPendingRedirects();
  if (!pending_redirects_.empty()) {
    ScheduleRedirectRetry();
  }
}

void RolloutManager::RedirectByVersion(std::vector<TrajectoryWork> works,
                                       int fallback_version) {
  VersionWorks by_version;
  for (TrajectoryWork& w : works) {
    int v = w.record.weight_versions.empty() ? fallback_version
                                             : w.record.weight_versions.back();
    WorksForVersion(by_version, v).push_back(std::move(w));
  }
  for (auto& [version, group] : by_version) {
    RedirectWork(std::move(group), version);
  }
}

void RolloutManager::FlushPendingRedirects() {
  // Ascending version. A bucket no replica can host stays parked in place:
  // its pooled entries were re-homed to kManagerOwner when it parked, so a
  // pass costs O(buckets x replicas) plus the work that actually moves.
  for (size_t i = 0; i < pending_redirects_.size();) {
    int version = pending_redirects_[i].first;
    std::vector<RolloutReplica*> hosts = RedirectHosts(version);
    if (hosts.empty()) {
      ScheduleRedirectRetry();
      ++i;
      continue;
    }
    std::vector<TrajectoryWork> works = std::move(pending_redirects_[i].second);
    pending_redirects_.erase(pending_redirects_.begin() + static_cast<ptrdiff_t>(i));
    DealRedirects(std::move(works), hosts, version);
  }
}

void RolloutManager::OnMachineFailure(int machine) {
  ctr_failures_handled_->Add();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/machine_failure",
                        machine);
  relays_->KillRelay(machine);
  std::vector<RolloutReplica*> casualties;
  for (RolloutReplica* r : replicas_) {
    if (r->config().machine == machine && r->phase() != ReplicaPhase::kDead) {
      casualties.push_back(r);
    }
  }
  // Kill every replica on the machine before redirecting anything, so work
  // is never handed to a sibling replica that is about to die too.
  std::vector<std::vector<TrajectoryWork>> never_admitted(casualties.size());
  for (size_t i = 0; i < casualties.size(); ++i) {
    never_admitted[i] = casualties[i]->Kill();
    monitor_.Forget(casualties[i]->config().id);
    ClearQuarantined(casualties[i]->config().id);  // crash supersedes fail-slow
  }
  if (config_.serving_enabled && !casualties.empty()) {
    // Serving requests have no pooled checkpoint; everything resident on the
    // dead machine (running or queued) is lost and its ticket goes terminal.
    for (ServingTicket& t : serving_tickets_) {
      if (t.state != ServingTicketState::kRunning) {
        continue;
      }
      for (const RolloutReplica* r : casualties) {
        if (t.replica == r->config().id) {
          t.state = ServingTicketState::kFailed;
          ctr_serving_failed_->Add();
          break;
        }
      }
    }
  }
  for (size_t i = 0; i < casualties.size(); ++i) {
    RolloutReplica* r = casualties[i];
    int id = r->config().id;
    // In-progress state survives in the partial-response pool; everything the
    // dead replica owned is redirected (re-prefill on arrival).
    std::vector<TrajectoryWork> recovered = partial_pool_->TakeByReplica(id);
    std::vector<TrajId> recovered_ids;  // ascending, the pool's recovery order
    recovered_ids.reserve(recovered.size());
    for (const TrajectoryWork& w : recovered) {
      recovered_ids.push_back(w.record.id);
    }
    // Queued work that never streamed a checkpoint anywhere died with the
    // machine; mark it terminal-dropped so the prompt ledger stays exact.
    for (const TrajectoryWork& w : never_admitted[i]) {
      if (IsServingId(w.record.id)) {
        continue;  // no prompt ledger entry; the ticket sweep above counted it
      }
      if (std::binary_search(recovered_ids.begin(), recovered_ids.end(),
                             w.record.id)) {
        continue;  // a pooled checkpoint survives and will be redirected
      }
      if (partial_pool_->MarkDropped(w.record.id)) {
        ctr_trajectories_dropped_->Add();
      }
    }
    LAMINAR_LOG(kInfo) << "machine " << machine << " failed; redirecting "
                       << recovered.size() << " trajectories from replica " << id;
    if (!recovered.empty()) {
      RedirectWork(std::move(recovered), r->weight_version());
    }
  }
  // Replacement machine: allocate, re-init engine + relay, pull weights. The
  // pending event carries only a job seq; the job body serializes with the
  // snapshot.
  double delay = config_.machine_replacement_seconds + config_.replica_init_seconds;
  int64_t seq = next_replacement_seq_++;
  ReplacementJob& job = replacement_jobs_[seq];
  job.machine = machine;
  job.casualties.reserve(casualties.size());
  for (const RolloutReplica* r : casualties) {
    job.casualties.push_back(r->config().id);
  }
  sim_->ScheduleContinuationAfter(delay, kManagerComp, kContMachineReplaced,
                                  ContinuationPayload::Of(seq));
}

void RolloutManager::OnMachineReplaced(int64_t seq) {
  auto it = replacement_jobs_.find(seq);
  LAMINAR_CHECK(it != replacement_jobs_.end());
  ReplacementJob job = std::move(it->second);
  replacement_jobs_.erase(it);
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/machine_replaced",
                        job.machine);
  relays_->ReviveRelay(job.machine);
  std::vector<RolloutReplica*> casualties;
  casualties.reserve(job.casualties.size());
  for (int id : job.casualties) {
    RolloutReplica* r = FindReplica(id);
    LAMINAR_CHECK(r != nullptr);
    casualties.push_back(r);
    r->Revive();
  }
  // Interrupted work whose policy version no longer runs anywhere is
  // adopted by the fresh replicas, which load that specific checkpointed
  // version (paper §3.3) so the trajectories stay single-version.
  // The oldest buckets go first; the rest stay parked in place.
  size_t adopted = std::min(casualties.size(), pending_redirects_.size());
  for (size_t i = 0; i < adopted; ++i) {
    auto& [version, works] = pending_redirects_[i];
    casualties[i]->LoadCheckpointVersion(version);
    ctr_trajectories_redirected_->Add(static_cast<int64_t>(works.size()));
    casualties[i]->AssignWork(std::move(works), /*kv_transferred=*/false);
  }
  pending_redirects_.erase(pending_redirects_.begin(),
                           pending_redirects_.begin() + static_cast<ptrdiff_t>(adopted));
  for (size_t i = adopted; i < casualties.size(); ++i) {
    StartWeightUpdate(casualties[i]);
  }
  FlushPendingRedirects();
}

void RolloutManager::OnReplicaSlow(int replica_id) {
  RolloutReplica* r = FindReplica(replica_id);
  if (r == nullptr || r->phase() == ReplicaPhase::kDead || IsQuarantined(replica_id)) {
    return;
  }
  ctr_slow_events_->Add();
  SetQuarantined(replica_id);
  std::vector<TrajectoryWork> drained = r->ExtractAllWork();
  ctr_trajectories_drained_slow_->Add(static_cast<int64_t>(drained.size()));
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/quarantine",
                        replica_id, static_cast<int64_t>(drained.size()));
  LAMINAR_LOG(kInfo) << "replica " << replica_id
                     << " quarantined as fail-slow; draining " << drained.size()
                     << " trajectories";
  if (!drained.empty()) {
    RedirectByVersion(std::move(drained), r->weight_version());
  }
  if (running_ && r->phase() == ReplicaPhase::kIdle) {
    AssignFreshBatch(r);  // probe load keeps its decode rate observable
  }
}

void RolloutManager::OnReplicaSlowRecovered(int replica_id) {
  if (!ClearQuarantined(replica_id)) {
    return;
  }
  ctr_slow_recoveries_->Add();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/quarantine_lift",
                        replica_id);
  LAMINAR_LOG(kInfo) << "replica " << replica_id << " recovered from fail-slow";
  RolloutReplica* r = FindReplica(replica_id);
  if (running_ && r != nullptr && r->phase() == ReplicaPhase::kIdle) {
    StartWeightUpdate(r);
  }
  FlushPendingRedirects();
}

void RolloutManager::OnMachineStall(int machine, double duration_seconds) {
  ctr_machine_stalls_->Add();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/machine_stall", machine,
                        0, duration_seconds);
  std::vector<int> paused;
  for (RolloutReplica* r : replicas_) {
    if (r->config().machine != machine) {
      continue;
    }
    if (r->phase() == ReplicaPhase::kGenerating || r->phase() == ReplicaPhase::kIdle) {
      r->Pause();
      paused.push_back(r->config().id);
    }
  }
  if (paused.empty()) {
    return;
  }
  int64_t seq = next_thaw_seq_++;
  thaw_jobs_[seq] = std::move(paused);
  sim_->ScheduleContinuationAfter(duration_seconds, kManagerComp, kContStallThaw,
                                 ContinuationPayload::Of(seq));
}

void RolloutManager::OnStallThaw(int64_t seq) {
  auto it = thaw_jobs_.find(seq);
  LAMINAR_CHECK(it != thaw_jobs_.end());
  std::vector<int> paused = std::move(it->second);
  thaw_jobs_.erase(it);
  for (int id : paused) {
    RolloutReplica* r = FindReplica(id);
    if (r == nullptr || r->phase() != ReplicaPhase::kPaused) {
      continue;  // the stall escalated to a crash (or the replica moved on)
    }
    r->Resume();
    if (running_ && r->phase() == ReplicaPhase::kIdle) {
      StartWeightUpdate(r);
    }
  }
}

void RolloutManager::OnRelayRestarted(int machine) {
  for (RolloutReplica* r : replicas_) {
    if (r->config().machine != machine ||
        r->phase() != ReplicaPhase::kUpdatingWeights) {
      continue;
    }
    // The relay death cleared this replica's pull waiter, so the update can
    // never complete on its own. Abort (invalidating the lost pull's epoch)
    // and re-issue the pull against the revived relay.
    r->AbortWeightUpdate();
    StartWeightUpdate(r);
  }
}

void RolloutManager::ObserveRates() {
  if (!rate_observer_) {
    return;
  }
  SimTime now = sim_->Now();
  for (size_t i = 0; i < replicas_.size(); ++i) {
    RolloutReplica* r = replicas_[i];
    RateProbe& p = probes_[i];
    if (r->phase() == ReplicaPhase::kDead) {
      p.valid = false;
      continue;
    }
    RolloutReplica::DecodeProbeSample s = r->ObservedDecodeProbe();
    if (p.valid && now > p.at) {
      double elapsed = now - p.at;
      double busy = s.busy_seconds - p.sample.busy_seconds;
      double req_seconds = s.request_seconds - p.sample.request_seconds;
      // Only windows that actually spent time decoding say anything about
      // decode speed; prefill-burst, env-blocked, paused or drained windows
      // contribute no busy time and are skipped (a wall-clock denominator
      // would read them as spuriously slow).
      if (busy > 0.25 * elapsed && req_seconds > 0.0) {
        double tokens_delta = static_cast<double>(s.tokens - p.sample.tokens);
        int avg_batch = std::max(1, static_cast<int>(std::lround(req_seconds / busy)));
        double avg_ctx = std::max(
            0.0, (s.ctx_request_seconds - p.sample.ctx_request_seconds) / req_seconds);
        double modeled = r->decode_model().StepLatency(avg_batch, avg_ctx);
        // Observed per-request token rate times the modeled step latency:
        // ~1.0 on a healthy replica for any batch shape, ~speed_factor on a
        // fail-slow one.
        double efficiency = (tokens_delta / req_seconds) * modeled;
        rate_observer_(r->config().id, efficiency);
      }
    }
    p = RateProbe{true, now, s};
  }
}

void RolloutManager::Tick() {
  if (!running_) {
    return;
  }
  ObserveRates();
  FlushPendingRedirects();
  // Retry starved replicas.
  std::vector<RolloutReplica*> starved = std::move(starved_);
  starved_.clear();
  for (RolloutReplica* r : starved) {
    if (r->phase() == ReplicaPhase::kIdle) {
      StartWeightUpdate(r);
    }
  }
  if (config_.repack_enabled) {
    TriggerRepack();
  }
}

RolloutManager::ServingTicket& RolloutManager::TicketFor(TrajId id) {
  LAMINAR_CHECK(IsServingId(id));
  size_t idx = static_cast<size_t>(id - kServingIdBase);
  LAMINAR_CHECK(idx < serving_tickets_.size());
  return serving_tickets_[idx];
}

void RolloutManager::OnServingArrival(const ServingRequest& request) {
  ctr_serving_requests_->Add();
  size_t idx = static_cast<size_t>(request.seq);
  if (idx >= serving_tickets_.size()) {
    serving_tickets_.resize(idx + 1);
  }
  ServingTicket& t = serving_tickets_[idx];
  t.arrival = sim_->Now();
  t.deadline_seconds = request.deadline_seconds;
  t.replica = -1;
  t.state = ServingTicketState::kQueued;

  TrajectoryWork w;
  w.record.id = kServingIdBase + request.seq;
  w.record.created = sim_->Now();
  TrajectorySpec spec;
  spec.prompt_tokens = request.prompt_tokens;
  spec.AppendSegment({request.decode_tokens, 0.0, 0});
  w.record.spec = std::move(spec);
  w.InitContext();
  TryPlaceServing(std::move(w), /*admission=*/true);
}

// The one serving-expiry boundary (ISSUE 9 satellite): a request is late iff
// its deadline is STRICTLY LESS than the clock. A deadline exactly equal to
// the sweep timestamp is not expiry — the request stays placeable, so its
// terminal class never depends on whether a host happens to be eligible at
// that instant.
bool RolloutManager::ServingDeadlinePassed(double deadline_seconds) const {
  return deadline_seconds < sim_->Now().seconds();
}

bool RolloutManager::TryPlaceServing(TrajectoryWork work, bool admission) {
  if (!running_) {
    serving_backlog_.push_back(std::move(work));
    return false;
  }
  if (!admission && ServingDeadlinePassed(TicketFor(work.record.id).deadline_seconds)) {
    // Applied before every placement retry, ahead of the host scan: an
    // expired queued request times out — it is never re-routed through the
    // admission gate where host availability would decide its terminal class.
    ServingTicket& t = TicketFor(work.record.id);
    t.state = ServingTicketState::kTimedOut;
    ctr_serving_timed_out_->Add();
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/serving_timeout",
                          -1, work.record.id);
    return true;
  }
  // Admission host: the healthy replica with the most free KVCache. With a
  // static partition (serving_dedicated_replicas > 0) only the dedicated
  // replicas qualify; colocated mode considers the whole fleet.
  RolloutReplica* best = nullptr;
  double best_free = -1.0;
  for (RolloutReplica* r : replicas_) {
    if (r->phase() == ReplicaPhase::kDead || r->phase() == ReplicaPhase::kUpdatingWeights ||
        r->phase() == ReplicaPhase::kPaused || IsQuarantined(r->config().id)) {
      continue;
    }
    if (config_.serving_dedicated_replicas > 0 && !ServesOnly(r)) {
      continue;
    }
    double free = r->kv_capacity_tokens() - r->kv_used_tokens();
    if (free > best_free) {
      best_free = free;
      best = r;
    }
  }
  if (best == nullptr) {
    serving_backlog_.push_back(std::move(work));
    return false;
  }
  ServingTicket& t = TicketFor(work.record.id);
  int64_t decode_tokens = work.record.spec.total_decode_tokens();
  // SLO feasibility: prefill plus a decode estimate at the post-admission
  // batch shape. An infeasible request is rejected up front (load shedding)
  // rather than admitted to miss — the paper-standard admission-control move.
  // Admission-time only: once a request is queued, rejection would make its
  // terminal class depend on which sweep finds a host (a request whose
  // deadline equals the sweep timestamp always fails this estimate), so
  // retries either place or run out the clock above.
  if (admission) {
    double step = best->decode_model().StepLatency(
        best->num_reqs() + 1,
        static_cast<double>(work.context_tokens) + 0.5 * static_cast<double>(decode_tokens));
    double est = best->decode_model().PrefillLatency(static_cast<double>(work.context_tokens)) +
                 static_cast<double>(decode_tokens) * step;
    if (sim_->Now().seconds() + est > t.deadline_seconds) {
      t.state = ServingTicketState::kRejected;
      ctr_serving_rejected_->Add();
      LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/serving_reject",
                            best->config().id, work.record.id);
      return true;
    }
  }
  // Serving preempts decode: when the best host lacks KV headroom, evict
  // in-flight rollout sequences (newest first) and park them exactly as the
  // machine-loss path does — pool checkpoint re-homed to the manager, then
  // version-bucketed for redirect.
  double needed = static_cast<double>(work.context_tokens) +
                  static_cast<double>(decode_tokens);
  if (best_free < needed) {
    std::vector<TrajectoryWork> evicted = best->PreemptRolloutForServing(needed);
    if (!evicted.empty()) {
      ctr_serving_rollout_preempted_->Add(static_cast<int64_t>(evicted.size()));
      LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/serving_preempt",
                            best->config().id, static_cast<int64_t>(evicted.size()));
      for (TrajectoryWork& ew : evicted) {
        if (partial_pool_->Contains(ew.record.id)) {
          partial_pool_->Update(ew, kManagerOwner);
        }
        int v = ew.record.weight_versions.empty() ? best->weight_version()
                                                  : ew.record.weight_versions.back();
        WorksForVersion(pending_redirects_, v).push_back(std::move(ew));
      }
      ScheduleRedirectRetry();
    }
  }
  t.state = ServingTicketState::kRunning;
  t.replica = best->config().id;
  ctr_serving_admitted_->Add();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kManager, "manager/serving_admit",
                        best->config().id, work.record.id);
  std::vector<TrajectoryWork> one;
  one.push_back(std::move(work));
  best->AssignServingWork(std::move(one));
  return true;
}

void RolloutManager::ServingSweep() {
  if (!running_ || serving_backlog_.empty()) {
    return;
  }
  size_t n = serving_backlog_.size();
  for (size_t i = 0; i < n; ++i) {
    TrajectoryWork w = std::move(serving_backlog_.front());
    serving_backlog_.pop_front();
    // Expiry (deadline strictly before now) is classified inside the retry
    // itself, so the sweep and the placement path share one boundary.
    TryPlaceServing(std::move(w), /*admission=*/false);  // re-queues at the back on failure
  }
}

void RolloutManager::OnServingComplete(const TrajectoryRecord& record) {
  ServingTicket& t = TicketFor(record.id);
  LAMINAR_CHECK(t.state == ServingTicketState::kRunning);
  t.state = ServingTicketState::kCompleted;
  ctr_serving_completed_->Add();
  SimTime now = sim_->Now();
  double latency = now.seconds() - t.arrival.seconds();
  serving_latency_seconds_->Add(latency);
  bool hit = !ServingDeadlinePassed(t.deadline_seconds);
  if (hit) {
    ctr_serving_deadline_hits_->Add();
  } else {
    ctr_serving_deadline_misses_->Add();
  }
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kManager,
                        hit ? "manager/serving_hit" : "manager/serving_miss",
                        t.replica, t.arrival, now, record.id, latency);
}

void RolloutManager::Snapshot(SnapshotTx& tx) {
  tx.Begin("rollout_manager");
  tx.Bool("running", &running_);
  SnapshotPacked(
      tx, "pending_redirects",
      [this](ByteSink& s) {
        s.U64(pending_redirects_.size());
        for (const auto& [version, works] : pending_redirects_) {
          s.I32(version);
          s.U64(works.size());
          for (const TrajectoryWork& w : works) {
            PackWork(s, w);
          }
        }
      },
      [this](ByteSource& s) {
        pending_redirects_.clear();
        uint64_t nv = s.U64();
        for (uint64_t i = 0; i < nv; ++i) {
          int version = s.I32();
          uint64_t nw = s.U64();
          std::vector<TrajectoryWork>& works =
              WorksForVersion(pending_redirects_, version);
          works.reserve(static_cast<size_t>(nw));
          for (uint64_t j = 0; j < nw; ++j) {
            works.push_back(UnpackWork(s));
          }
        }
      });
  SnapshotPacked(
      tx, "starved",
      [this](ByteSink& s) {
        s.U64(starved_.size());
        for (const RolloutReplica* r : starved_) {
          s.I32(r->config().id);
        }
      },
      [this](ByteSource& s) {
        starved_.clear();
        uint64_t n = s.U64();
        for (uint64_t i = 0; i < n; ++i) {
          RolloutReplica* r = FindReplica(s.I32());
          LAMINAR_CHECK(r != nullptr);
          starved_.push_back(r);
        }
      });
  SnapshotPacked(
      tx, "quarantined",
      [this](ByteSink& s) {
        s.U64(quarantined_.size());
        for (uint8_t q : quarantined_) {
          s.U8(q);
        }
      },
      [this](ByteSource& s) {
        quarantined_.assign(static_cast<size_t>(s.U64()), 0);
        for (uint8_t& q : quarantined_) {
          q = s.U8();
        }
      });
  SnapshotPacked(
      tx, "probes",
      [this](ByteSink& s) {
        s.U64(probes_.size());
        for (const RateProbe& p : probes_) {
          s.Bool(p.valid);
          s.Time(p.at);
          s.F64(p.sample.busy_seconds);
          s.F64(p.sample.request_seconds);
          s.F64(p.sample.ctx_request_seconds);
          s.I64(p.sample.tokens);
        }
      },
      [this](ByteSource& s) {
        probes_.assign(static_cast<size_t>(s.U64()), RateProbe{});
        for (RateProbe& p : probes_) {
          p.valid = s.Bool();
          p.at = s.Time();
          p.sample.busy_seconds = s.F64();
          p.sample.request_seconds = s.F64();
          p.sample.ctx_request_seconds = s.F64();
          p.sample.tokens = s.I64();
        }
      });
  tx.I64As("redirect_retry_attempts", &redirect_retry_attempts_);
  SnapshotPacked(
      tx, "pending_jobs",
      [this](ByteSink& s) {
        s.I64(next_replacement_seq_);
        s.U64(replacement_jobs_.size());
        for (const auto& [seq, job] : replacement_jobs_) {
          s.I64(seq);
          s.I32(job.machine);
          s.U64(job.casualties.size());
          for (int id : job.casualties) {
            s.I32(id);
          }
        }
        s.I64(next_thaw_seq_);
        s.U64(thaw_jobs_.size());
        for (const auto& [seq, paused] : thaw_jobs_) {
          s.I64(seq);
          s.U64(paused.size());
          for (int id : paused) {
            s.I32(id);
          }
        }
      },
      [this](ByteSource& s) {
        next_replacement_seq_ = s.I64();
        replacement_jobs_.clear();
        uint64_t nr = s.U64();
        for (uint64_t i = 0; i < nr; ++i) {
          int64_t seq = s.I64();
          ReplacementJob& job = replacement_jobs_[seq];
          job.machine = s.I32();
          job.casualties.assign(static_cast<size_t>(s.U64()), 0);
          for (int& id : job.casualties) {
            id = s.I32();
          }
        }
        next_thaw_seq_ = s.I64();
        thaw_jobs_.clear();
        uint64_t nt = s.U64();
        for (uint64_t i = 0; i < nt; ++i) {
          int64_t seq = s.I64();
          std::vector<int>& paused = thaw_jobs_[seq];
          paused.assign(static_cast<size_t>(s.U64()), 0);
          for (int& id : paused) {
            id = s.I32();
          }
        }
      });
  if (tx.adopting()) {
    // The pending retry event (if any) is re-seated from the event heap by
    // RestoreContinuation; only the attempt counter travels here.
    redirect_retry_event_ = kInvalidEventId;
  }
  if (config_.serving_enabled) {
    // Gated on the config flag so serving-off blobs keep the historical
    // section layout byte-for-byte.
    SnapshotPacked(
        tx, "serving_tickets",
        [this](ByteSink& s) {
          s.U64(serving_tickets_.size());
          for (const ServingTicket& t : serving_tickets_) {
            s.Time(t.arrival);
            s.F64(t.deadline_seconds);
            s.I32(t.replica);
            s.U8(static_cast<uint8_t>(t.state));
          }
        },
        [this](ByteSource& s) {
          serving_tickets_.assign(static_cast<size_t>(s.U64()), ServingTicket{});
          for (ServingTicket& t : serving_tickets_) {
            t.arrival = s.Time();
            t.deadline_seconds = s.F64();
            t.replica = s.I32();
            t.state = static_cast<ServingTicketState>(s.U8());
          }
        });
    SnapshotPacked(
        tx, "serving_backlog",
        [this](ByteSink& s) {
          s.U64(serving_backlog_.size());
          for (const TrajectoryWork& w : serving_backlog_) {
            PackWork(s, w);
          }
        },
        [this](ByteSource& s) {
          serving_backlog_.clear();
          uint64_t n = s.U64();
          for (uint64_t i = 0; i < n; ++i) {
            serving_backlog_.push_back(UnpackWork(s));
          }
        });
  }
  monitor_.Snapshot(tx);
  metrics_.Snapshot(tx, "manager_metrics");
  tx.End();
}

}  // namespace laminar
