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
  if (idx < handles_.size() && handles_[idx].valid()) {
    table_.Remove(handles_[idx]);
    handles_[idx] = EntityHandle{};
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
  if (idx >= handles_.size()) {
    handles_.resize(idx + 1);
  }
  EntityHandle& handle = handles_[idx];
  if (Entry* e = table_.Get(handle)) {
    e->work = work;
    e->owner_replica = owner_replica;
  } else {
    handle = table_.Insert({work, owner_replica});
  }
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
  for (EntityHandle& handle : handles_) {
    const Entry* e = table_.Get(handle);
    if (e == nullptr || e->owner_replica != replica) {
      continue;
    }
    // The entry is leaving the pool, so move the payload out of the slab
    // instead of copying it.
    TrajectoryWork work = std::move(table_.Remove(handle).work);
    handle = EntityHandle{};
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
  table_.ForEach([&total](EntityHandle /*h*/, const Entry& entry) {
    total += entry.work.context_tokens;
  });
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
  // work in. Slab handles are not serialized: adoption reassigns them, and
  // they never influence behavior or bytes.
  SnapshotPacked(
      tx, "entries",
      [this](ByteSink& s) {
        s.U64(table_.size());
        for (size_t idx = 0; idx < handles_.size(); ++idx) {
          if (const Entry* entry = table_.Get(handles_[idx])) {
            s.I64(static_cast<TrajId>(idx));
            s.I32(entry->owner_replica);
            PackWork(s, entry->work);
          }
        }
      },
      [this](ByteSource& s) {
        table_.Clear();
        handles_.clear();
        size_t n = static_cast<size_t>(s.U64());
        table_.Reserve(n);
        for (size_t i = 0; i < n; ++i) {
          TrajId id = s.I64();
          CheckPoolId(id);
          size_t idx = static_cast<size_t>(id);
          LAMINAR_CHECK_GE(idx, handles_.size()) << "partial_pool entries not in ascending TrajId";
          int owner = s.I32();
          TrajectoryWork work = UnpackWork(s);
          handles_.resize(idx + 1);
          handles_[idx] = table_.Insert({std::move(work), owner});
        }
      });
  tx.DigestU64("size", table_.size());
  tx.DigestI64("context_tokens", total_context_tokens());
  tx.End();
}

}  // namespace laminar
