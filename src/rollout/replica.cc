#include "src/rollout/replica.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"

namespace laminar {
namespace {

// Tombstones a batch or env vector may carry beyond half its live entries
// before it is compacted.
constexpr size_t kTombstoneSlack = 16;

}  // namespace

const char* ReplicaPhaseName(ReplicaPhase phase) {
  switch (phase) {
    case ReplicaPhase::kIdle:
      return "idle";
    case ReplicaPhase::kGenerating:
      return "generating";
    case ReplicaPhase::kPaused:
      return "paused";
    case ReplicaPhase::kUpdatingWeights:
      return "updating";
    case ReplicaPhase::kDead:
      return "dead";
  }
  return "?";
}

RolloutReplica::RolloutReplica(Simulator* sim, ReplicaConfig config, DecodeModel decode,
                               double kv_capacity_tokens)
    : sim_(sim), config_(config), decode_(std::move(decode)),
      kv_capacity_tokens_(kv_capacity_tokens) {
  LAMINAR_CHECK_GT(kv_capacity_tokens_, 0.0);
  LAMINAR_CHECK_GT(config_.max_concurrency, 0);
  sim_->continuations().Register(
      ContinuationComponentId(kContFamilyReplica, config_.id), this);
  TouchMetrics();
}

RolloutReplica::~RolloutReplica() {
  sim_->continuations().Unregister(
      ContinuationComponentId(kContFamilyReplica, config_.id));
}

void RolloutReplica::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  switch (kind) {
    case kContAdvance:
      Advance(p.a);
      return;
    case kContEnvRejoin:
      RejoinFromEnv(static_cast<uint64_t>(p.a));
      return;
  }
  LAMINAR_CHECK(false) << "unknown replica continuation kind " << kind;
}

void RolloutReplica::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                         SimTime at) {
  int32_t comp = ContinuationComponentId(kContFamilyReplica, config_.id);
  switch (kind) {
    case kContAdvance:
      // The advance metadata (start/steps/latency) was adopted by
      // SnapshotState; only the event itself needs re-seating.
      LAMINAR_CHECK_EQ(p.a, advance_steps_);
      advance_event_ = sim_->ScheduleContinuationAt(at, comp, kind, p);
      return;
    case kContEnvRejoin: {
      // The payload carries the env seq — the stable key into env_waiting_,
      // which adoption rebuilt in seq order. Re-scheduling the identical
      // payload keeps the re-minted heap byte-equal to the blob's event_heap
      // section.
      EnvEntry& entry = env_waiting_[FindEnvBySeq(static_cast<uint64_t>(p.a))];
      entry.event = sim_->ScheduleContinuationAt(at, comp, kind, p);
      return;
    }
  }
  LAMINAR_CHECK(false) << "replica continuation kind " << kind
                       << " cannot be pending on the heap";
}

void RolloutReplica::TouchMetrics() {
  SimTime now = sim_->Now();
  metrics_.kv_used_tokens.Set(now, kv_used_tokens_);
  metrics_.batch_size.Set(now, static_cast<double>(batch_size_));
  metrics_.busy.Set(now, batch_size_ == 0 ? 0.0 : 1.0);
  LAMINAR_TRACE_COUNTER(sim_, TraceComponent::kReplica, "replica/kv_used", config_.id,
                        kv_used_tokens_);
  LAMINAR_TRACE_COUNTER(sim_, TraceComponent::kReplica, "replica/batch_size", config_.id,
                        static_cast<double>(batch_size_));
  // Busy edges become decode_busy spans, emitted retroactively at the falling
  // edge. Edge tracking runs unconditionally so a sink attached later still
  // sees correct begins, and stays out of the integrator state.
  bool busy_now = batch_size_ > 0;
  if (busy_now && !trace_was_busy_) {
    trace_busy_since_ = now;
  } else if (!busy_now && trace_was_busy_) {
    LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kReplica, "replica/decode_busy",
                          config_.id, trace_busy_since_, now);
  }
  trace_was_busy_ = busy_now;
}

void RolloutReplica::AssignWork(std::vector<TrajectoryWork> works, bool kv_transferred) {
  LAMINAR_CHECK(phase_ != ReplicaPhase::kDead) << "assigning work to a dead replica";
  SyncProgress();
  for (TrajectoryWork& w : works) {
    LAMINAR_CHECK(!w.finished());
    LAMINAR_CHECK_GE(w.remaining_in_segment(), 1);
    if (kv_transferred && w.kv_resident) {
      // KV pages stream over RDMA to this replica; decoding stalls for the
      // transfer but no recompute is needed.
      double kv_bytes = static_cast<double>(w.context_tokens) *
                        decode_.model().kv_bytes_per_token();
      pending_stall_seconds_ +=
          config_.migration_fixed_overhead + kv_bytes / config_.kv_transfer_bandwidth;
      ++metrics_.migrations_in;
    } else {
      w.kv_resident = false;  // will re-prefill on admission
    }
    waiting_.push_back(std::move(w));
  }
  if (phase_ == ReplicaPhase::kIdle && busy()) {
    phase_ = ReplicaPhase::kGenerating;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
}

void RolloutReplica::AssignServingWork(std::vector<TrajectoryWork> works) {
  LAMINAR_CHECK(phase_ != ReplicaPhase::kDead) << "serving work on a dead replica";
  SyncProgress();
  // Reverse push_front keeps the caller's order at the head of the queue,
  // ahead of every queued rollout sequence (TryAdmit is front-only).
  for (size_t i = works.size(); i > 0; --i) {
    TrajectoryWork& w = works[i - 1];
    LAMINAR_CHECK(IsServingId(w.record.id));
    LAMINAR_CHECK(!w.finished());
    w.kv_resident = false;  // prefill on admission
    ++num_serving_;
    ++serving_assigned_total_;
    waiting_.push_front(std::move(w));
  }
  if (phase_ == ReplicaPhase::kIdle && busy()) {
    phase_ = ReplicaPhase::kGenerating;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
}

std::vector<TrajectoryWork> RolloutReplica::PreemptRolloutForServing(double needed_tokens) {
  std::vector<TrajectoryWork> evicted;
  if (phase_ == ReplicaPhase::kDead) {
    return evicted;
  }
  SyncProgress();
  size_t scan = running_.size();
  while (scan > 0 && kv_capacity_tokens_ - kv_used_tokens_ < needed_tokens) {
    --scan;
    const BatchMember& m = running_[scan];
    if (!m.live || IsServingId(m.work.record.id)) {
      continue;  // tombstone, or serving (serving never evicts serving)
    }
    TrajectoryWork victim = LeaveBatch(scan);
    kv_used_tokens_ -= static_cast<double>(victim.context_tokens);
    victim.kv_resident = false;
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/serving_preempt",
                          config_.id, victim.record.id);
    ++metrics_.preemptions;
    evicted.push_back(std::move(victim));
  }
  TrimBatch();
  if (phase_ == ReplicaPhase::kGenerating) {
    ScheduleAdvance();
  }
  TouchMetrics();
  return evicted;
}

std::vector<TrajectoryWork> RolloutReplica::ExtractAllWork() {
  SyncProgress();
  std::vector<TrajectoryWork> out;
  // Serving requests are latency-bound and pinned to their host: they stay
  // resident (running and queued) while every rollout sequence drains. With
  // the tier off this loop is the historical drain-everything path.
  for (size_t i = 0; i < running_.size(); ++i) {
    const BatchMember& m = running_[i];
    if (!m.live || IsServingId(m.work.record.id)) {
      continue;
    }
    TrajectoryWork w = LeaveBatch(i);
    kv_used_tokens_ -= static_cast<double>(w.context_tokens);
    out.push_back(std::move(w));
  }
  TrimBatch();
  // Env-waiting work: the sandbox call outlives the hosting replica (results
  // flow through the manager), so we resolve the interaction here: feedback
  // is appended to the context and the trajectory resumes at its next
  // segment on the destination. Its cached KV on this replica is discarded.
  // Cancellation and resolution both walk admission (seq) order.
  for (const EnvEntry& e : env_waiting_) {
    if (e.live) {
      sim_->Cancel(e.event);
    }
  }
  for (size_t i = 0; i < env_waiting_.size(); ++i) {
    if (!env_waiting_[i].live) {
      continue;
    }
    TrajectoryWork w = TakeEnv(i);
    kv_used_tokens_ -= static_cast<double>(w.context_tokens);
    w.kv_resident = false;
    const TrajectorySegment& seg = w.current_segment();
    w.context_tokens += seg.feedback_tokens;
    w.segment_index += 1;
    w.decoded_in_segment = 0;
    if (w.finished()) {
      CompleteTrajectory(std::move(w));
    } else {
      out.push_back(std::move(w));
    }
  }
  TrimEnv();
  std::deque<TrajectoryWork> kept_waiting;
  for (TrajectoryWork& w : waiting_) {
    if (IsServingId(w.record.id)) {
      kept_waiting.push_back(std::move(w));
    } else {
      out.push_back(std::move(w));
    }
  }
  waiting_ = std::move(kept_waiting);
  metrics_.migrations_out += static_cast<int64_t>(out.size());
  if (num_serving_ == 0) {
    // Everything drained: exact integer-token subtraction above already left
    // zero, but restate it so accumulated prefill debt is also discarded.
    kv_used_tokens_ = 0.0;
    pending_stall_seconds_ = 0.0;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    if (busy()) {
      TryAdmit();
      ScheduleAdvance();
    } else {
      phase_ = ReplicaPhase::kIdle;
    }
  }
  TouchMetrics();
  return out;
}

void RolloutReplica::SetWeightVersion(int version) {
  LAMINAR_CHECK_GE(version, weight_version_);
  weight_version_ = version;
}

void RolloutReplica::LoadCheckpointVersion(int version) {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kIdle) << "checkpoint load on a busy replica";
  LAMINAR_CHECK_GE(version, 0);
  weight_version_ = version;
}

int64_t RolloutReplica::BeginWeightUpdate() {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kIdle || phase_ == ReplicaPhase::kPaused)
      << "weight update requires a drained or paused replica, was "
      << ReplicaPhaseName(phase_);
  pre_update_phase_ = phase_;
  phase_ = ReplicaPhase::kUpdatingWeights;
  weight_update_begin_ = sim_->Now();
  return ++weight_update_epoch_;
}

bool RolloutReplica::EndWeightUpdate(int64_t epoch, int new_version,
                                     double wait_seconds) {
  // A pull completion can outlive the update it belongs to: the replica died
  // and was revived, or the relay restarted and the pull was re-issued. Such
  // a callback carries a stale epoch and must not touch phase state.
  if (phase_ != ReplicaPhase::kUpdatingWeights || epoch != weight_update_epoch_) {
    return false;
  }
  SetWeightVersion(new_version);
  metrics_.weight_update_wait_seconds += wait_seconds;
  ++metrics_.weight_updates;
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kReplica, "replica/weight_update",
                        config_.id, weight_update_begin_, sim_->Now(), new_version,
                        wait_seconds);
  phase_ = pre_update_phase_;
  if (phase_ == ReplicaPhase::kIdle && busy()) {
    phase_ = ReplicaPhase::kGenerating;
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
  return true;
}

void RolloutReplica::AbortWeightUpdate() {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kUpdatingWeights);
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/weight_update_abort",
                        config_.id, weight_version_);
  ++weight_update_epoch_;  // invalidate the in-flight pull completion
  phase_ = pre_update_phase_;
}

void RolloutReplica::Pause() {
  if (phase_ != ReplicaPhase::kGenerating) {
    if (phase_ == ReplicaPhase::kIdle) {
      phase_ = ReplicaPhase::kPaused;
    }
    return;
  }
  SyncProgress();
  phase_ = ReplicaPhase::kPaused;
  TouchMetrics();
}

void RolloutReplica::Resume(int new_version, bool recompute_kv) {
  if (phase_ == ReplicaPhase::kDead) {
    return;
  }
  LAMINAR_CHECK(phase_ == ReplicaPhase::kPaused)
      << "resume from " << ReplicaPhaseName(phase_);
  if (new_version >= 0 && new_version != weight_version_) {
    SetWeightVersion(new_version);
    // Partial rollout: every open trajectory continues under the new policy.
    auto stamp = [new_version](TrajectoryWork& w) {
      if (!w.record.weight_versions.empty() &&
          w.record.weight_versions.back() != new_version) {
        w.record.weight_versions.push_back(new_version);
      }
    };
    for (BatchMember& m : running_) {
      if (m.live) {
        stamp(m.work);
      }
    }
    for (EnvEntry& e : env_waiting_) {
      if (e.live) {
        stamp(e.work);
      }
    }
    if (recompute_kv) {
      // The cache holds activations of the *old* weights; every resident
      // context must be re-prefilled (the paper's partial-rollout overhead).
      // Context counts are integers below 2^53, so this double sum is exact
      // and independent of traversal order.
      double recompute_tokens = static_cast<double>(batch_ctx_tokens_);
      for (const EnvEntry& e : env_waiting_) {
        if (e.live) {
          recompute_tokens += static_cast<double>(e.work.context_tokens);
        }
      }
      pending_stall_seconds_ += decode_.PrefillLatency(recompute_tokens) / speed_factor_;
      metrics_.prefill_tokens += static_cast<int64_t>(recompute_tokens);
    }
  }
  phase_ = busy() ? ReplicaPhase::kGenerating : ReplicaPhase::kIdle;
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
}

std::vector<TrajectoryWork> RolloutReplica::Kill() {
  CancelAdvance();
  for (const EnvEntry& e : env_waiting_) {
    if (e.live) {
      sim_->Cancel(e.event);
    }
  }
  // Running and env-waiting work streamed checkpoints to the partial pool at
  // admission, so the manager recovers those via TakeByReplica. Queued work
  // may never have been admitted anywhere; hand it back so the caller can
  // account for it explicitly instead of losing it silently.
  std::vector<TrajectoryWork> discarded;
  discarded.reserve(waiting_.size());
  for (TrajectoryWork& w : waiting_) {
    w.kv_resident = false;
    discarded.push_back(std::move(w));
  }
  ClearBatch();
  waiting_.clear();
  env_waiting_.clear();
  num_env_ = 0;
  num_serving_ = 0;  // resident serving requests die with the machine
  kv_used_tokens_ = 0.0;
  pending_stall_seconds_ = 0.0;
  phase_ = ReplicaPhase::kDead;
  TouchMetrics();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/kill", config_.id,
                        static_cast<int64_t>(discarded.size()));
  return discarded;
}

void RolloutReplica::Revive() {
  LAMINAR_CHECK(phase_ == ReplicaPhase::kDead);
  phase_ = ReplicaPhase::kIdle;
  speed_factor_ = 1.0;  // a replacement machine starts healthy
  TouchMetrics();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/revive", config_.id,
                        weight_version_);
}

void RolloutReplica::SetSpeedFactor(double factor) {
  LAMINAR_CHECK(factor > 0.0 && factor <= 1.0) << "speed factor " << factor;
  if (factor == speed_factor_ || phase_ == ReplicaPhase::kDead) {
    return;
  }
  // Credit progress made at the old speed, then re-plan the advance at the
  // new one. ScheduleAdvance() reads speed_factor_ for both the step latency
  // and any carried-over prefill debt.
  SyncProgress();
  speed_factor_ = factor;
  if (phase_ == ReplicaPhase::kGenerating) {
    ScheduleAdvance();
  }
}

double RolloutReplica::ResidentKvTokens() const {
  // Context counts are integers below 2^53, so this double sum is exact.
  double total = static_cast<double>(batch_ctx_tokens_);
  for (const EnvEntry& e : env_waiting_) {
    if (e.live && e.work.kv_resident) {
      total += static_cast<double>(e.work.context_tokens);
    }
  }
  return total;
}

size_t RolloutReplica::FindEnvBySeq(uint64_t seq) const {
  auto it = std::lower_bound(
      env_waiting_.begin(), env_waiting_.end(), seq,
      [](const EnvEntry& e, uint64_t key) { return e.seq < key; });
  LAMINAR_CHECK(it != env_waiting_.end() && it->seq == seq && it->live)
      << "env rejoin for unknown seq " << seq;
  return static_cast<size_t>(it - env_waiting_.begin());
}

TrajectoryWork RolloutReplica::TakeEnv(size_t index) {
  EnvEntry& e = env_waiting_[index];
  e.live = false;
  --num_env_;
  return std::move(e.work);
}

void RolloutReplica::TrimEnv() {
  while (!env_waiting_.empty() && !env_waiting_.back().live) {
    env_waiting_.pop_back();
  }
  size_t live = static_cast<size_t>(num_env_);
  if (env_waiting_.size() - live > live / 2 + kTombstoneSlack) {
    std::erase_if(env_waiting_, [](const EnvEntry& e) { return !e.live; });
  }
}

int64_t RolloutReplica::ObservedDecodeTokens() const {
  return ObservedDecodeProbe().tokens;
}

RolloutReplica::DecodeProbeSample RolloutReplica::ObservedDecodeProbe() const {
  DecodeProbeSample s;
  s.busy_seconds = decode_busy_seconds_;
  s.request_seconds = decode_request_seconds_;
  s.ctx_request_seconds = decode_ctx_request_seconds_;
  s.tokens = metrics_.decode_tokens;
  if (advance_event_ != kInvalidEventId) {
    double decode_elapsed = (sim_->Now() - advance_start_) - advance_stall_;
    if (decode_elapsed > 0.0 && advance_step_latency_ > 0.0) {
      int64_t done =
          static_cast<int64_t>(std::floor(decode_elapsed / advance_step_latency_));
      done = std::min(done, advance_steps_);
      if (done > 0) {
        double batch = static_cast<double>(batch_size_);
        double busy = static_cast<double>(done) * advance_step_latency_;
        s.busy_seconds += busy;
        s.request_seconds += busy * batch;
        s.ctx_request_seconds += busy * batch * advance_avg_ctx_;
        s.tokens += done * batch_size_;
      }
    }
  }
  return s;
}

ReplicaSnapshot RolloutReplica::Snapshot() const {
  ReplicaSnapshot snap;
  snap.replica_id = config_.id;
  snap.weight_version = weight_version_;
  snap.kv_used_frac = kv_used_frac();
  snap.num_reqs = num_reqs();
  snap.num_waiting = static_cast<int>(waiting_.size());
  snap.busy = busy();
  snap.eligible = phase_ == ReplicaPhase::kGenerating;
  return snap;
}

void RolloutReplica::CreditDecodeProbe(int64_t steps, int64_t batch) {
  double busy = static_cast<double>(steps) * advance_step_latency_;
  decode_busy_seconds_ += busy;
  decode_request_seconds_ += busy * static_cast<double>(batch);
  decode_ctx_request_seconds_ += busy * static_cast<double>(batch) * advance_avg_ctx_;
}

void RolloutReplica::CancelAdvance() {
  if (advance_event_ != kInvalidEventId) {
    sim_->Cancel(advance_event_);
    advance_event_ = kInvalidEventId;
  }
}

void RolloutReplica::SyncProgress() {
  if (advance_event_ == kInvalidEventId) {
    return;
  }
  double elapsed = sim_->Now() - advance_start_;
  double decode_elapsed = elapsed - advance_stall_;
  int64_t done = 0;
  if (decode_elapsed > 0.0 && advance_step_latency_ > 0.0) {
    done = static_cast<int64_t>(std::floor(decode_elapsed / advance_step_latency_));
    // Boundaries are handled only by Advance(); stay strictly before them.
    done = std::min(done, advance_steps_ - 1);
    done = std::max<int64_t>(done, 0);
  }
  if (done > 0) {
    int64_t batch = batch_size_;
    vstep_ += done;
    batch_ctx_tokens_ += batch * done;
    kv_used_tokens_ += static_cast<double>(batch * done);
    metrics_.decode_tokens += batch * done;
    CreditDecodeProbe(done, batch);
  }
  // Unconsumed prefill debt carries over to the next schedule.
  pending_stall_seconds_ += std::max(0.0, advance_stall_ - std::max(elapsed, 0.0));
  CancelAdvance();
}

void RolloutReplica::ScheduleAdvance() {
  if (phase_ != ReplicaPhase::kGenerating) {
    return;
  }
  SyncProgress();
  if (batch_size_ == 0) {
    TryAdmit();
    if (batch_size_ == 0) {
      TouchMetrics();
      return;  // everything is env-waiting or the replica drained
    }
  }
  PreemptForHeadroom();
  if (batch_size_ == 0) {
    TouchMetrics();
    return;
  }
  int batch = batch_size_;
  int64_t min_remaining = MinRemaining();
  LAMINAR_CHECK_GE(min_remaining, 1);
  // The context sum is an exact integer below 2^53, so avg_ctx is bit-equal
  // to a per-member double re-sum.
  double avg_ctx = static_cast<double>(batch_ctx_tokens_) / batch;
  double step_latency = decode_.StepLatency(batch, avg_ctx) / speed_factor_;
  int64_t kv_steps = static_cast<int64_t>(
      std::floor((kv_capacity_tokens_ - kv_used_tokens_) / batch));
  kv_steps = std::max<int64_t>(kv_steps, 1);  // headroom guaranteed by preemption
  int64_t steps =
      std::min({min_remaining, kv_steps, config_.max_steps_per_advance});
  double duration = pending_stall_seconds_ + static_cast<double>(steps) * step_latency;
  advance_start_ = sim_->Now();
  advance_steps_ = steps;
  advance_step_latency_ = step_latency;
  advance_avg_ctx_ = avg_ctx;
  advance_stall_ = pending_stall_seconds_;
  pending_stall_seconds_ = 0.0;
  TouchMetrics();
  advance_event_ = sim_->ScheduleContinuationAfter(
      duration, ContinuationComponentId(kContFamilyReplica, config_.id), kContAdvance,
      ContinuationPayload::Of(steps));
}

void RolloutReplica::PreemptForHeadroom() {
  // Keep enough free cache for every running sequence to take a burst of
  // steps; evicting the most recently admitted sequence frees its context
  // (it will re-prefill once space reappears). Serving requests are skipped
  // while any rollout sequence remains — the tier's KV priority.
  while (batch_size_ > 0 &&
         kv_capacity_tokens_ - kv_used_tokens_ <
             static_cast<double>(batch_size_ * config_.kv_preempt_headroom_steps)) {
    // TrimBatch() keeps the last slot live: the most recently admitted member.
    size_t victim_idx = running_.size() - 1;
    if (num_serving_ > 0) {
      size_t i = running_.size();
      while (i > 0 && (!running_[i - 1].live || IsServingId(running_[i - 1].work.record.id))) {
        --i;
      }
      if (i > 0) {
        victim_idx = i - 1;
      }
    }
    TrajectoryWork victim = LeaveBatch(victim_idx);
    TrimBatch();
    kv_used_tokens_ -= static_cast<double>(victim.context_tokens);
    victim.kv_resident = false;
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/preempt", config_.id,
                          victim.record.id);
    waiting_.push_front(std::move(victim));
    ++metrics_.preemptions;
  }
}

void RolloutReplica::TryAdmit() {
  double admit_limit = kv_capacity_tokens_ * (1.0 - config_.admit_headroom_frac);
  while (!waiting_.empty()) {
    int active = batch_size_ + num_env_;
    if (active >= config_.max_concurrency) {
      break;
    }
    TrajectoryWork& front = waiting_.front();
    double needed = static_cast<double>(front.context_tokens);
    double growth_reserve = static_cast<double>(
        (static_cast<int64_t>(batch_size_) + 1) * config_.kv_growth_reserve_steps);
    if (kv_used_tokens_ + needed + growth_reserve > admit_limit) {
      break;
    }
    TrajectoryWork w = std::move(front);
    waiting_.pop_front();
    if (!w.kv_resident) {
      pending_stall_seconds_ +=
          decode_.PrefillLatency(static_cast<double>(w.context_tokens)) / speed_factor_;
      metrics_.prefill_tokens += w.context_tokens;
      w.kv_resident = true;
    }
    kv_used_tokens_ += static_cast<double>(w.context_tokens);
    if (w.record.weight_versions.empty()) {
      w.record.weight_versions.push_back(weight_version_);
    }
    if (on_progress_) {
      on_progress_(w, config_.id);
    }
    JoinBatch(std::move(w));
  }
}

void RolloutReplica::Advance(int64_t steps) {
  advance_event_ = kInvalidEventId;
  LAMINAR_CHECK_GT(batch_size_, 0);
  int64_t batch = batch_size_;
  vstep_ += steps;
  batch_ctx_tokens_ += batch * steps;
  kv_used_tokens_ += static_cast<double>(batch * steps);
  metrics_.decode_tokens += batch * steps;
  CreditDecodeProbe(steps, batch);

  // Take out the members that hit their segment boundary. `steps` never
  // exceeds the fewest remaining tokens and SyncProgress() stops short of
  // every boundary, so all hits land on this very step and the heap's stamp
  // tie-break hands them over in admission (running_) order.
  boundary_scratch_.clear();
  while (!boundaries_.empty() && boundaries_.front().step <= vstep_) {
    Boundary b = boundaries_.front();
    std::pop_heap(boundaries_.begin(), boundaries_.end(), LaterBoundary{});
    boundaries_.pop_back();
    if (IsCurrent(b)) {
      LAMINAR_CHECK_EQ(b.step, vstep_) << "advance overran a segment boundary";
      boundary_scratch_.push_back(LeaveBatch(b.slot));
    }
  }
  TrimBatch();
  for (TrajectoryWork& w : boundary_scratch_) {
    FinishSegment(std::move(w));
  }
  boundary_scratch_.clear();
  TryAdmit();
  ScheduleAdvance();
  CheckBatchDone();
}

void RolloutReplica::FinishSegment(TrajectoryWork work) {
  // Read before `work` moves: a one-segment spec stores its segment inline.
  double env_latency = work.current_segment().env_latency;
  if (env_latency > 0.0) {
    // Trajectory leaves the decode batch for its sandbox call; the KV pages
    // stay resident so no recompute is needed on rejoin.
    if (on_progress_) {
      on_progress_(work, config_.id);
    }
    EnvEntry entry;
    entry.work = std::move(work);
    entry.at = sim_->Now() + env_latency;
    entry.seq = ++env_seq_;
    entry.live = true;
    // The event payload names the entry by seq, which is stable across
    // snapshot adoption, so the descriptor serializes and re-mints
    // byte-exactly.
    entry.event = sim_->ScheduleContinuationAt(
        entry.at, ContinuationComponentId(kContFamilyReplica, config_.id), kContEnvRejoin,
        ContinuationPayload::Of(static_cast<int64_t>(entry.seq)));
    env_waiting_.push_back(std::move(entry));
    ++num_env_;
    return;
  }
  work.segment_index += 1;
  work.decoded_in_segment = 0;
  if (work.finished()) {
    CompleteTrajectory(std::move(work));
  } else {
    JoinBatch(std::move(work));
  }
}

void RolloutReplica::RejoinFromEnv(uint64_t seq) {
  SyncProgress();
  TrajectoryWork work = TakeEnv(FindEnvBySeq(seq));
  TrimEnv();
  const TrajectorySegment& seg = work.current_segment();
  // Sandbox output becomes new context: it occupies KV and must be prefilled.
  work.context_tokens += seg.feedback_tokens;
  if (work.kv_resident) {
    kv_used_tokens_ += static_cast<double>(seg.feedback_tokens);
  }
  pending_stall_seconds_ +=
      decode_.PrefillLatency(static_cast<double>(seg.feedback_tokens)) / speed_factor_;
  metrics_.prefill_tokens += seg.feedback_tokens;
  work.segment_index += 1;
  work.decoded_in_segment = 0;
  if (work.finished()) {
    CompleteTrajectory(std::move(work));
  } else if (work.kv_resident) {
    JoinBatch(std::move(work));
  } else {
    waiting_.push_front(std::move(work));
  }
  if (phase_ == ReplicaPhase::kGenerating) {
    TryAdmit();
    ScheduleAdvance();
  }
  CheckBatchDone();
}

void RolloutReplica::CompleteTrajectory(TrajectoryWork work) {
  if (work.kv_resident) {
    kv_used_tokens_ -= static_cast<double>(work.context_tokens);
  }
  if (IsServingId(work.record.id)) {
    --num_serving_;
  }
  work.record.finished = sim_->Now();
  ++metrics_.completed_trajectories;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kReplica, "replica/traj_complete",
                        config_.id, work.record.id,
                        static_cast<double>(work.record.total_tokens()));
  if (on_complete_) {
    on_complete_(std::move(work.record));
  }
}

void RolloutReplica::JoinBatch(TrajectoryWork work) {
  uint64_t stamp = ++batch_stamp_;
  boundaries_.push_back(Boundary{vstep_ + work.remaining_in_segment(), stamp,
                                 static_cast<uint32_t>(running_.size())});
  std::push_heap(boundaries_.begin(), boundaries_.end(), LaterBoundary{});
  batch_ctx_tokens_ += work.context_tokens;
  ++batch_size_;
  running_.emplace_back(std::move(work), vstep_, stamp, true);
}

TrajectoryWork RolloutReplica::LeaveBatch(size_t slot) {
  BatchMember& m = running_[slot];
  Materialize(m);
  m.live = false;
  --batch_size_;
  batch_ctx_tokens_ -= m.work.context_tokens;
  return std::move(m.work);
}

void RolloutReplica::Materialize(BatchMember& m) {
  int64_t decoded = vstep_ - m.join_step;
  m.work.decoded_in_segment += decoded;
  m.work.context_tokens += decoded;
  m.join_step = vstep_;
}

bool RolloutReplica::IsCurrent(const Boundary& b) const {
  return b.slot < running_.size() && running_[b.slot].live &&
         running_[b.slot].stamp == b.stamp;
}

int64_t RolloutReplica::MinRemaining() {
  while (!boundaries_.empty() && !IsCurrent(boundaries_.front())) {
    std::pop_heap(boundaries_.begin(), boundaries_.end(), LaterBoundary{});
    boundaries_.pop_back();
  }
  LAMINAR_CHECK(!boundaries_.empty()) << "boundary heap lost a batch member";
  return boundaries_.front().step - vstep_;
}

void RolloutReplica::TrimBatch() {
  while (!running_.empty() && !running_.back().live) {
    running_.pop_back();
  }
  // Every live member owns exactly one heap entry; the rest are stale.
  size_t live = static_cast<size_t>(batch_size_);
  size_t waste = (running_.size() - live) + (boundaries_.size() - live);
  if (waste <= live / 2 + kTombstoneSlack) {
    return;
  }
  std::erase_if(running_, [](const BatchMember& m) { return !m.live; });
  boundaries_.clear();
  for (size_t slot = 0; slot < running_.size(); ++slot) {
    const BatchMember& m = running_[slot];
    boundaries_.push_back(Boundary{m.join_step + m.work.remaining_in_segment(), m.stamp,
                                   static_cast<uint32_t>(slot)});
  }
  std::make_heap(boundaries_.begin(), boundaries_.end(), LaterBoundary{});
}

void RolloutReplica::ClearBatch() {
  running_.clear();
  boundaries_.clear();
  batch_size_ = 0;
  batch_ctx_tokens_ = 0;
}

void RolloutReplica::CheckBatchDone() {
  if (phase_ == ReplicaPhase::kGenerating && !busy()) {
    phase_ = ReplicaPhase::kIdle;
    TouchMetrics();
    if (on_batch_done_) {
      on_batch_done_(this);
    }
  }
}

void RolloutReplica::SnapshotState(SnapshotTx& tx) {
  tx.Begin("replica");
  tx.DigestI64("id", config_.id);
  tx.U64As("phase", &phase_);
  tx.U64As("pre_update_phase", &pre_update_phase_);
  tx.I64As("weight_version", &weight_version_);
  tx.I64As("weight_update_epoch", &weight_update_epoch_);
  tx.F64("speed_factor", &speed_factor_);
  tx.F64("kv_used_tokens", &kv_used_tokens_);
  tx.F64("pending_stall_seconds", &pending_stall_seconds_);
  tx.U64As("env_seq", &env_seq_);
  // The three work queues in behavior-defining order: running (admission
  // order) and waiting in container order, env-waiting in seq order. Batch
  // members are materialized as they are written, and adoption re-joins them
  // at the current virtual step, so the blob never sees the step counter.
  // Pending rejoin events re-resolve their entries through
  // RestoreContinuation.
  SnapshotPacked(
      tx, "queues",
      [this](ByteSink& s) {
        s.U64(static_cast<uint64_t>(batch_size_));
        for (BatchMember& m : running_) {
          if (m.live) {
            Materialize(m);
            PackWork(s, m.work);
          }
        }
        s.U64(waiting_.size());
        for (const TrajectoryWork& w : waiting_) {
          PackWork(s, w);
        }
        s.U64(static_cast<uint64_t>(num_env_));
        for (const EnvEntry& e : env_waiting_) {
          if (e.live) {
            PackWork(s, e.work);
            s.Time(e.at);
            s.U64(e.seq);
          }
        }
      },
      [this](ByteSource& s) {
        ClearBatch();
        uint64_t num_running = s.U64();
        running_.reserve(static_cast<size_t>(num_running));
        for (uint64_t i = 0; i < num_running; ++i) {
          JoinBatch(UnpackWork(s));
        }
        waiting_.clear();
        for (uint64_t i = 0, n = s.U64(); i < n; ++i) {
          waiting_.push_back(UnpackWork(s));
        }
        env_waiting_.clear();
        uint64_t num_env = s.U64();
        env_waiting_.reserve(static_cast<size_t>(num_env));
        for (uint64_t i = 0; i < num_env; ++i) {
          EnvEntry e;
          e.work = UnpackWork(s);
          e.at = s.Time();
          e.seq = s.U64();
          e.live = true;
          LAMINAR_CHECK(env_waiting_.empty() || env_waiting_.back().seq < e.seq)
              << "env entries out of seq order";
          env_waiting_.push_back(std::move(e));
        }
        num_env_ = static_cast<int>(num_env);
      });
  // In-flight advance metadata for partial-progress crediting; the event
  // itself is re-minted from the event_heap section.
  SnapshotPacked(
      tx, "advance",
      [this](ByteSink& s) {
        s.Time(advance_start_);
        s.I64(advance_steps_);
        s.F64(advance_step_latency_);
        s.F64(advance_stall_);
        s.F64(advance_avg_ctx_);
        s.Time(weight_update_begin_);
        s.Time(trace_busy_since_);
        s.Bool(trace_was_busy_);
      },
      [this](ByteSource& s) {
        advance_start_ = s.Time();
        advance_steps_ = s.I64();
        advance_step_latency_ = s.F64();
        advance_stall_ = s.F64();
        advance_avg_ctx_ = s.F64();
        weight_update_begin_ = s.Time();
        trace_busy_since_ = s.Time();
        trace_was_busy_ = s.Bool();
        advance_event_ = kInvalidEventId;  // re-seated by RestoreContinuation
      });
  tx.F64("decode_busy_seconds", &decode_busy_seconds_);
  tx.F64("decode_request_seconds", &decode_request_seconds_);
  tx.F64("decode_ctx_request_seconds", &decode_ctx_request_seconds_);
  tx.Begin("kv_integrator");
  metrics_.kv_used_tokens.Snapshot(tx);
  tx.End();
  tx.Begin("batch_integrator");
  metrics_.batch_size.Snapshot(tx);
  tx.End();
  tx.Begin("busy_integrator");
  metrics_.busy.Snapshot(tx);
  tx.End();
  tx.I64As("decode_tokens", &metrics_.decode_tokens);
  tx.I64As("prefill_tokens", &metrics_.prefill_tokens);
  tx.I64As("completed_trajectories", &metrics_.completed_trajectories);
  tx.I64As("preemptions", &metrics_.preemptions);
  tx.I64As("migrations_in", &metrics_.migrations_in);
  tx.I64As("migrations_out", &metrics_.migrations_out);
  tx.F64("weight_update_wait", &metrics_.weight_update_wait_seconds);
  tx.I64As("weight_updates", &metrics_.weight_updates);
  tx.I64As("serving_active", &num_serving_);
  tx.I64As("serving_assigned_total", &serving_assigned_total_);
  tx.End();
}

}  // namespace laminar
