#include "src/relay/relay_tier.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"

namespace laminar {
namespace {

constexpr int32_t kRelayComp = ContinuationComponentId(kContFamilyRelayTier);

}  // namespace

RelayTier::RelayTier(Simulator* sim, RelayTierConfig config)
    : sim_(sim), config_(config), relays_(config.num_relays),
      link_down_until_(config.num_relays, SimTime::Zero()),
      drop_next_(config.num_relays, 0) {
  LAMINAR_CHECK_GT(config_.num_relays, 0);
  LAMINAR_CHECK_GT(config_.weight_bytes, 0.0);
  sim_->continuations().Register(kRelayComp, this);
}

RelayTier::~RelayTier() { sim_->continuations().Unregister(kRelayComp); }

void RelayTier::RunContinuation(uint16_t kind, const ContinuationPayload& p) {
  switch (kind) {
    case kContArrival:
      OnArrival(static_cast<int>(p.a), static_cast<int>(p.b));
      return;
    case kContPullDone:
      CompletePull(p.a);
      return;
  }
  LAMINAR_CHECK(false) << "relay tier: unknown continuation kind " << kind;
}

void RelayTier::RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                                    SimTime at) {
  if (kind == kContPullDone) {
    sim_->ScheduleContinuationAt(at, kRelayComp, kind, p);
    return;
  }
  LAMINAR_CHECK_EQ(kind, kContArrival)
      << "relay tier: unknown restored continuation kind " << kind;
  // Re-seat the arrival's event id on the pending entry the adopted map
  // carries for it. The heap can also hold arrivals no entry references:
  // ReviveRelay clears the map without cancelling them, and ScheduleArrival
  // replaces an entry without cancelling its old event. Those re-mint as the
  // same orphans they were, so an entry is matched on its arrival time and
  // never created here.
  EventId id = sim_->ScheduleContinuationAt(at, kRelayComp, kind, p);
  auto& pending = relays_[static_cast<int>(p.a)].pending;
  auto it = pending.find(static_cast<int>(p.b));
  if (it != pending.end() && it->second.at == at) {
    it->second.event = id;
  }
}

void RelayTier::ScheduleArrival(int relay, int version, SimTime at) {
  EventId eid = sim_->ScheduleContinuationAt(at, kRelayComp, kContArrival,
                                             ContinuationPayload::Of(relay, version));
  relays_[relay].pending[version] = PendingArrival{eid, at};
}

void RelayTier::StartPullLoad(int relay, int got, SimTime requested, PullTicket ticket,
                              double load_seconds) {
  int64_t seq = next_pull_seq_++;
  pulls_[seq] = PendingPull{relay, got, requested, ticket};
  sim_->ScheduleContinuationAfter(load_seconds, kRelayComp, kContPullDone,
                                 ContinuationPayload::Of(seq));
}

void RelayTier::CompletePull(int64_t seq) {
  auto it = pulls_.find(seq);
  LAMINAR_CHECK(it != pulls_.end()) << "unknown pull seq " << seq;
  PendingPull p = it->second;
  pulls_.erase(it);
  double wait = sim_->Now() - p.requested;
  pull_waits_.Add(wait);
  LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kRelay, "relay/pull_wait", p.relay,
                        p.requested, sim_->Now(), p.got);
  CompleteTicket(p.ticket, p.got, wait);
}

void RelayTier::CompleteTicket(const PullTicket& ticket, int version,
                               double wait_seconds) {
  sim_->continuations().Run(
      ticket.comp, ticket.kind,
      ContinuationPayload::Of(ticket.a, ticket.b, version,
                              ContinuationPayload::FromF64(wait_seconds)));
}

int RelayTier::VersionAt(int relay) const {
  LAMINAR_CHECK_GE(relay, 0);
  LAMINAR_CHECK_LT(relay, static_cast<int>(relays_.size()));
  return relays_[relay].version;
}

bool RelayTier::IsAlive(int relay) const { return relays_[relay].alive; }

double RelayTier::PullLoadSeconds(int tensor_parallel) const {
  LAMINAR_CHECK_GT(tensor_parallel, 0);
  // Each GPU loads its own shard over its own PCIe link, in parallel.
  return config_.weight_bytes / tensor_parallel / config_.pcie_bandwidth;
}

std::vector<int> RelayTier::AliveChain() const {
  std::vector<int> chain;
  chain.push_back(master_);
  for (int i = 0; i < static_cast<int>(relays_.size()); ++i) {
    if (i != master_ && relays_[i].alive) {
      chain.push_back(i);
    }
  }
  return chain;
}

double RelayTier::Publish(int version) {
  LAMINAR_CHECK_GT(version, latest_published_) << "versions must be published in order";
  latest_published_ = version;
  ++publishes_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/publish", master_, version);
  double stall = config_.weight_bytes / config_.actor_push_bandwidth;
  actor_stalls_.Add(stall);
  SimTime master_ready =
      std::max(sim_->Now() + stall + config_.reshard_seconds, master_ready_at_);
  // The master relay "receives" once the push + reshard completes; the chain
  // broadcast then fans out from OnArrival (so failure-driven rescheduling
  // keeps the continuation).
  ScheduleArrival(master_, version, master_ready);
  broadcast_starts_[version] = sim_->Now();
  return stall;
}

void RelayTier::StartBroadcast(int version, SimTime master_ready) {
  std::vector<int> chain = AliveChain();
  int p = static_cast<int>(chain.size());
  if (p <= 1) {
    return;
  }
  BroadcastParams params;
  params.message_bytes = config_.weight_bytes;
  params.byte_time = 1.0 / config_.rdma_bandwidth;
  params.startup_time = config_.rdma_startup;
  int k = OptimalChunkCount(params, p);
  for (int pos = 1; pos < p; ++pos) {
    int relay = chain[pos];
    SimTime at = master_ready + ArrivalTime(params, pos, k);
    at = std::max(at, sim_->Now());
    ScheduleArrival(relay, version, at);
  }
}

void RelayTier::OnArrival(int relay, int version) {
  Relay& r = relays_[relay];
  if (r.alive && drop_next_[relay] > 0) {
    // The chain message was lost in flight. The receiver's per-hop timeout
    // guard notices the gap and the upstream relay retransmits the chunk.
    --drop_next_[relay];
    ++messages_dropped_;
    ++arrival_retries_;
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/drop", relay, version);
    ScheduleArrival(relay, version, sim_->Now() + config_.hop_timeout_guard);
    return;
  }
  if (r.alive && sim_->Now() < link_down_until_[relay]) {
    // Inbound link is flapping: the transfer stalls until the link heals and
    // the chain is rebuilt around the degraded hop.
    ++arrival_retries_;
    ScheduleArrival(relay, version, link_down_until_[relay] + config_.rebuild_seconds);
    return;
  }
  r.pending.erase(version);
  if (!r.alive) {
    return;
  }
  if (version > r.version) {
    r.version = version;
  }
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/arrival", relay, version);
  // The master fans a freshly received version down the chain exactly once.
  if (relay == master_ && broadcast_started_.insert(version).second) {
    StartBroadcast(version, sim_->Now());
  }
  // Track broadcast completion: when no relay still has this version pending,
  // the chain has fully propagated it.
  bool any_pending = false;
  for (const Relay& other : relays_) {
    if (other.alive && other.pending.count(version) > 0) {
      any_pending = true;
      break;
    }
  }
  if (!any_pending) {
    auto it = broadcast_starts_.find(version);
    if (it != broadcast_starts_.end()) {
      broadcast_times_.Add(sim_->Now() - it->second);
      LAMINAR_TRACE_SPAN_AT(sim_, TraceComponent::kRelay, "relay/broadcast", master_,
                            it->second, sim_->Now(), version);
      broadcast_starts_.erase(it);
    }
  }
  // Service rollout pulls waiting for this (or an older) version.
  std::vector<Waiter> still_waiting;
  std::vector<Waiter> ready;
  for (Waiter& w : r.waiters) {
    if (r.version >= w.min_version) {
      ready.push_back(std::move(w));
    } else {
      still_waiting.push_back(std::move(w));
    }
  }
  r.waiters = std::move(still_waiting);
  for (Waiter& w : ready) {
    StartPullLoad(relay, r.version, w.requested, w.ticket,
                  PullLoadSeconds(w.tensor_parallel));
  }
}

void RelayTier::PullLatest(int relay, int tensor_parallel, int current_version,
                           PullTicket ticket) {
  LAMINAR_CHECK_GE(relay, 0);
  LAMINAR_CHECK_LT(relay, static_cast<int>(relays_.size()));
  if (latest_published_ <= current_version) {
    CompleteTicket(ticket, current_version, 0.0);
    return;
  }
  Relay& r = relays_[relay];
  if (r.alive && r.version > current_version) {
    // The common case (paper §4.2 step 3): the local relay already caches a
    // newer version, so the rollout loads it over PCIe immediately — it
    // never waits for an in-flight resharding/broadcast to complete.
    StartPullLoad(relay, r.version, sim_->Now(), ticket,
                  PullLoadSeconds(tensor_parallel));
    return;
  }
  // Nothing newer is resident yet: wait for the first arrival that is.
  r.waiters.push_back(Waiter{current_version + 1, tensor_parallel, sim_->Now(), ticket});
}

void RelayTier::KillRelay(int relay) {
  Relay& r = relays_[relay];
  // Clear waiters even when the relay is already down: PullLatest parks a
  // waiter on a dead relay (it fires once the relay revives and a newer
  // version arrives), so a second kill — e.g. a relay-process fault followed
  // by its machine failing — must still discard them, or a stale waiter
  // outlives the crash and completes a weight update that no longer exists.
  r.waiters.clear();
  if (!r.alive) {
    return;
  }
  r.alive = false;
  r.version = -1;
  for (auto& [version, arrival] : r.pending) {
    sim_->Cancel(arrival.event);
  }
  r.pending.clear();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/kill", relay,
                        latest_published_);

  ++chain_rebuilds_;
  double extra = config_.rebuild_seconds;
  if (relay == master_) {
    // Elect the surviving relay with the newest weights as the new master.
    int best = -1;
    for (int i = 0; i < static_cast<int>(relays_.size()); ++i) {
      if (relays_[i].alive && (best == -1 || relays_[i].version > relays_[best].version)) {
        best = i;
      }
    }
    if (best == -1) {
      LAMINAR_LOG(kWarning) << "all relays dead; weight distribution suspended";
      return;
    }
    master_ = best;
    ++master_elections_;
    extra = NextElectionDelay();
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/election", best,
                          latest_published_, extra);
    master_ready_at_ = sim_->Now() + extra;
    // If a publication was lost with the old master, the trainer re-sends it
    // to the newly elected master once notified.
    if (latest_published_ >= 0 && relays_[best].version < latest_published_ &&
        relays_[best].pending.count(latest_published_) == 0) {
      double resend = config_.weight_bytes / config_.actor_push_bandwidth +
                      config_.reshard_seconds;
      ScheduleArrival(best, latest_published_, master_ready_at_ + resend);
    }
  }
  // The scheduler rebuilds the chain around the failure; in-flight chunk
  // streams to downstream relays resume after the O(1) repair delay.
  for (int i = 0; i < static_cast<int>(relays_.size()); ++i) {
    Relay& other = relays_[i];
    if (!other.alive) {
      continue;
    }
    for (auto& [version, arrival] : other.pending) {
      // Reschedule: original arrival time plus the repair delay.
      if (!sim_->IsPending(arrival.event)) {
        continue;
      }
      sim_->Cancel(arrival.event);
      SimTime at = std::max(arrival.at + extra, sim_->Now());
      arrival.at = at;
      arrival.event = sim_->ScheduleContinuationAt(
          at, kRelayComp, kContArrival, ContinuationPayload::Of(i, version));
    }
  }
}

double RelayTier::NextElectionDelay() {
  SimTime now = sim_->Now();
  if (consecutive_elections_ > 0 &&
      now - last_election_ <= config_.election_stability_window_seconds) {
    ++consecutive_elections_;
  } else {
    consecutive_elections_ = 1;
  }
  last_election_ = now;
  double delay =
      config_.master_elect_seconds * std::pow(2.0, consecutive_elections_ - 1);
  return std::min(delay, config_.master_elect_backoff_cap_seconds);
}

void RelayTier::FlapLink(int relay, double duration_seconds) {
  LAMINAR_CHECK_GE(relay, 0);
  LAMINAR_CHECK_LT(relay, static_cast<int>(relays_.size()));
  LAMINAR_CHECK_GE(duration_seconds, 0.0);
  ++link_flaps_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/link_flap", relay, 0,
                        duration_seconds);
  SimTime heal = sim_->Now() + duration_seconds;
  link_down_until_[relay] = std::max(link_down_until_[relay], heal);
  Relay& r = relays_[relay];
  if (!r.alive) {
    return;  // a dead relay's link state is moot
  }
  ++chain_rebuilds_;
  // In-flight chunk streams into this relay stall until the link heals and
  // the scheduler rebuilds the chain around the degraded hop.
  for (auto& [version, arrival] : r.pending) {
    if (!sim_->IsPending(arrival.event)) {
      continue;
    }
    sim_->Cancel(arrival.event);
    SimTime at = std::max(arrival.at, link_down_until_[relay] + config_.rebuild_seconds);
    arrival.at = at;
    arrival.event = sim_->ScheduleContinuationAt(
        at, kRelayComp, kContArrival, ContinuationPayload::Of(relay, version));
  }
}

void RelayTier::DropNextArrival(int relay) {
  LAMINAR_CHECK_GE(relay, 0);
  LAMINAR_CHECK_LT(relay, static_cast<int>(relays_.size()));
  ++drop_next_[relay];
}

void RelayTier::ReviveRelay(int relay) {
  Relay& r = relays_[relay];
  if (r.alive) {
    return;
  }
  r.alive = true;
  r.version = -1;
  r.pending.clear();
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/revive", relay,
                        latest_published_);
  if (!relays_[master_].alive) {
    // Everyone had died; the revived relay becomes master and the trainer is
    // notified to re-send the newest published weights.
    master_ = relay;
    ++master_elections_;
    LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kRelay, "relay/election", relay,
                          latest_published_);
    master_ready_at_ = std::max(master_ready_at_, sim_->Now() + NextElectionDelay());
  }
  if (relay == master_) {
    if (latest_published_ >= 0 && r.version < latest_published_) {
      int version = latest_published_;
      // A fresh publication already in flight to this master supersedes this.
      if (r.pending.count(version) == 0) {
        double resend = config_.weight_bytes / config_.actor_push_bandwidth +
                        config_.reshard_seconds;
        ScheduleArrival(relay, version, std::max(master_ready_at_, sim_->Now()) + resend);
      }
    }
    return;
  }
  // Sync the newest weights from the master over one RDMA hop.
  const Relay& m = relays_[master_];
  if (m.version >= 0) {
    double hop = config_.weight_bytes / config_.rdma_bandwidth + config_.rdma_startup;
    ScheduleArrival(relay, m.version, sim_->Now() + hop);
  }
}

void RelayTier::Snapshot(SnapshotTx& tx) {
  tx.Begin("relay_tier");
  tx.I64As("master", &master_);
  tx.I64As("latest_published", &latest_published_);
  double master_ready_at = master_ready_at_.seconds();
  tx.F64("master_ready_at", &master_ready_at);
  SnapshotPacked(
      tx, "relays",
      [this](ByteSink& s) {
        for (size_t i = 0; i < relays_.size(); ++i) {
          const Relay& r = relays_[i];
          s.Bool(r.alive);
          s.I32(r.version);
          s.U64(r.pending.size());
          for (const auto& [version, arrival] : r.pending) {
            s.I32(version);
            s.Time(arrival.at);
          }
          s.U64(r.waiters.size());
          for (const Waiter& w : r.waiters) {
            s.I32(w.min_version);
            s.I32(w.tensor_parallel);
            s.Time(w.requested);
            s.I32(w.ticket.comp);
            s.U32(w.ticket.kind);
            s.I64(w.ticket.a);
            s.I64(w.ticket.b);
          }
          s.Time(link_down_until_[i]);
          s.I32(drop_next_[i]);
        }
      },
      [this](ByteSource& s) {
        for (size_t i = 0; i < relays_.size(); ++i) {
          Relay& r = relays_[i];
          r.alive = s.Bool();
          r.version = s.I32();
          r.pending.clear();
          uint64_t pending = s.U64();
          for (uint64_t j = 0; j < pending; ++j) {
            int version = s.I32();
            // Event ids re-seat when RestoreContinuation re-mints the heap.
            r.pending[version] = PendingArrival{kInvalidEventId, s.Time()};
          }
          r.waiters.clear();
          uint64_t waiters = s.U64();
          for (uint64_t j = 0; j < waiters; ++j) {
            Waiter w;
            w.min_version = s.I32();
            w.tensor_parallel = s.I32();
            w.requested = s.Time();
            w.ticket.comp = s.I32();
            w.ticket.kind = static_cast<uint16_t>(s.U32());
            w.ticket.a = s.I64();
            w.ticket.b = s.I64();
            r.waiters.push_back(w);
          }
          link_down_until_[i] = s.Time();
          drop_next_[i] = s.I32();
        }
      });
  tx.I64As("consecutive_elections", &consecutive_elections_);
  double last_election = last_election_.seconds();
  tx.F64("last_election", &last_election);
  tx.I64("publishes", &publishes_);
  tx.I64("chain_rebuilds", &chain_rebuilds_);
  tx.I64("master_elections", &master_elections_);
  tx.I64("link_flaps", &link_flaps_);
  tx.I64("messages_dropped", &messages_dropped_);
  tx.I64("arrival_retries", &arrival_retries_);
  SnapshotPacked(
      tx, "broadcasts",
      [this](ByteSink& s) {
        s.U64(broadcast_starts_.size());
        for (const auto& [version, at] : broadcast_starts_) {
          s.I32(version);
          s.Time(at);
        }
        s.U64(broadcast_started_.size());
        for (int version : broadcast_started_) {
          s.I32(version);
        }
      },
      [this](ByteSource& s) {
        broadcast_starts_.clear();
        uint64_t starts = s.U64();
        for (uint64_t j = 0; j < starts; ++j) {
          int version = s.I32();
          broadcast_starts_[version] = s.Time();
        }
        broadcast_started_.clear();
        uint64_t started = s.U64();
        for (uint64_t j = 0; j < started; ++j) {
          broadcast_started_.insert(s.I32());
        }
      });
  SnapshotPacked(
      tx, "pulls",
      [this](ByteSink& s) {
        s.I64(next_pull_seq_);
        s.U64(pulls_.size());
        for (const auto& [seq, p] : pulls_) {
          s.I64(seq);
          s.I32(p.relay);
          s.I32(p.got);
          s.Time(p.requested);
          s.I32(p.ticket.comp);
          s.U32(p.ticket.kind);
          s.I64(p.ticket.a);
          s.I64(p.ticket.b);
        }
      },
      [this](ByteSource& s) {
        next_pull_seq_ = s.I64();
        pulls_.clear();
        uint64_t n = s.U64();
        for (uint64_t j = 0; j < n; ++j) {
          int64_t seq = s.I64();
          PendingPull p;
          p.relay = s.I32();
          p.got = s.I32();
          p.requested = s.Time();
          p.ticket.comp = s.I32();
          p.ticket.kind = static_cast<uint16_t>(s.U32());
          p.ticket.a = s.I64();
          p.ticket.b = s.I64();
          pulls_[seq] = p;
        }
      });
  if (tx.adopting()) {
    master_ready_at_ = SimTime(master_ready_at);
    last_election_ = SimTime(last_election);
  }
  tx.Begin("pull_waits");
  pull_waits_.Snapshot(tx);
  tx.End();
  tx.Begin("broadcast_times");
  broadcast_times_.Snapshot(tx);
  tx.End();
  tx.Begin("actor_stalls");
  actor_stalls_.Snapshot(tx);
  tx.End();
  tx.End();
}

}  // namespace laminar
