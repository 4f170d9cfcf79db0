#include "src/data/partial_response_pool.h"

#include <utility>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"

namespace laminar {
namespace {

// Every per-id structure is a dense array, so an id outside the rollout
// range (a serving id, 2^40 and up, or a negative one) must be refused
// before it can size anything.
void CheckPoolId(TrajId id) {
  LAMINAR_CHECK(IsRolloutId(id))
      << "partial-response pool id " << id << " is outside the rollout id range";
}

}  // namespace

void PartialResponsePool::Release(TrajId id) {
  size_t idx = static_cast<size_t>(id);
  if (idx < slot_of_.size() && slot_of_[idx] != 0) {
    free_.push_back(slot_of_[idx] - 1);
    slot_of_[idx] = 0;
  }
}

bool PartialResponsePool::SetTerminal(TrajId id) {
  size_t idx = static_cast<size_t>(id);
  if (idx >= terminal_.size()) {
    terminal_.resize(idx + 1, 0);
  }
  if (terminal_[idx] != 0) {
    return false;
  }
  terminal_[idx] = 1;
  return true;
}

bool PartialResponsePool::Update(const TrajectoryWork& work, int owner_replica) {
  TrajId id = work.record.id;
  CheckPoolId(id);
  if (IsTerminal(id)) {
    ++stale_updates_;
    return false;
  }
  size_t idx = static_cast<size_t>(id);
  if (idx >= slot_of_.size()) {
    slot_of_.resize(idx + 1, 0);
  }
  uint32_t& slot = slot_of_[idx];
  if (slot == 0) {
    if (free_.empty()) {
      LAMINAR_CHECK_LT(slab_.size(), size_t{UINT32_MAX}) << "partial-response pool slab overflow";
      free_.push_back(static_cast<uint32_t>(slab_.size()));
      slab_.emplace_back();
    }
    slot = free_.back() + 1;
    free_.pop_back();
  }
  // Overwrites in place: a reused slot's stale payload donates its storage.
  Entry& e = slab_[slot - 1];
  e.work = work;
  e.owner_replica = owner_replica;
  ++updates_;
  return true;
}

bool PartialResponsePool::MarkCompleted(TrajId id) {
  CheckPoolId(id);
  Release(id);
  if (!SetTerminal(id)) {
    ++duplicate_completions_;
    return false;
  }
  ++completed_;
  return true;
}

bool PartialResponsePool::MarkDropped(TrajId id) {
  CheckPoolId(id);
  Release(id);
  if (!SetTerminal(id)) {
    return false;
  }
  ++dropped_;
  return true;
}

std::vector<TrajectoryWork> PartialResponsePool::TakeByReplica(int replica) {
  std::vector<TrajectoryWork> out;
  for (size_t idx = 0; idx < slot_of_.size(); ++idx) {
    uint32_t slot = slot_of_[idx];
    if (slot == 0 || slab_[slot - 1].owner_replica != replica) {
      continue;
    }
    // The entry is leaving the pool, so move the payload out of the slab
    // instead of copying it.
    TrajectoryWork work = std::move(slab_[slot - 1].work);
    Release(static_cast<TrajId>(idx));
    work.kv_resident = false;
    // A checkpoint taken at a sandbox-call boundary (FinishSegment reports
    // progress before advancing the segment) has its current segment fully
    // decoded. The sandbox call outlives the dead replica, so resolve the
    // interaction the same way RolloutReplica::ExtractAllWork does: append
    // the feedback and resume at the next segment on the destination.
    if (!work.finished() && work.remaining_in_segment() == 0 &&
        work.segment_index + 1 < static_cast<int>(work.record.spec.num_segments())) {
      work.context_tokens += work.current_segment().feedback_tokens;
      work.segment_index += 1;
      work.decoded_in_segment = 0;
    }
    out.push_back(std::move(work));
  }
  return out;
}

int64_t PartialResponsePool::total_context_tokens() const {
  int64_t total = 0;
  for (uint32_t slot : slot_of_) {
    if (slot != 0) {
      total += slab_[slot - 1].work.context_tokens;
    }
  }
  return total;
}

void PartialResponsePool::Snapshot(SnapshotTx& tx) {
  tx.Begin("partial_pool");
  tx.I64("updates", &updates_);
  tx.I64("completed", &completed_);
  tx.I64("dropped", &dropped_);
  tx.I64("duplicate_completions", &duplicate_completions_);
  tx.I64("stale_updates", &stale_updates_);
  SnapshotPacked(
      tx, "terminal",
      [this](ByteSink& s) {
        s.U64(terminal_.size());
        s.Raw(terminal_.data(), terminal_.size());
      },
      [this](ByteSource& s) {
        terminal_.resize(static_cast<size_t>(s.U64()));
        s.Raw(terminal_.data(), terminal_.size());
      });
  // Every live entry in ascending TrajId, the order TakeByReplica recovers
  // work in. Slot numbers are not serialized: adoption reassigns them.
  SnapshotPacked(
      tx, "entries",
      [this](ByteSink& s) {
        s.U64(size());
        for (size_t idx = 0; idx < slot_of_.size(); ++idx) {
          if (uint32_t slot = slot_of_[idx]; slot != 0) {
            const Entry& entry = slab_[slot - 1];
            s.I64(static_cast<TrajId>(idx));
            s.I32(entry.owner_replica);
            PackWork(s, entry.work);
          }
        }
      },
      [this](ByteSource& s) {
        slab_.clear();
        free_.clear();
        slot_of_.clear();
        uint64_t n = s.U64();
        LAMINAR_CHECK_LE(n, s.remaining()) << "partial_pool entry count overruns record";
        slab_.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i) {
          TrajId id = s.I64();
          CheckPoolId(id);
          size_t idx = static_cast<size_t>(id);
          LAMINAR_CHECK_GE(idx, slot_of_.size()) << "partial_pool entries not in ascending TrajId";
          int owner = s.I32();
          slab_.push_back({UnpackWork(s), owner});
          slot_of_.resize(idx + 1, 0);
          slot_of_[idx] = static_cast<uint32_t>(slab_.size());
        }
      });
  tx.DigestU64("size", size());
  tx.DigestI64("context_tokens", total_context_tokens());
  tx.End();
}

}  // namespace laminar
