// Partial-response pool: central, CPU-resident store of in-progress
// trajectory state (paper §3.1, step 2 of the workflow).
//
// Rollouts stream progress here so that a machine failure loses no work: the
// rollout manager redirects the interrupted TrajectoryWork items to healthy
// replicas, which re-prefill the saved context and continue decoding.
//
// The pool is also the system's exactly-once ledger for trajectory outcomes:
// every trajectory ends terminal exactly once — completed (MarkCompleted) or
// explicitly dropped (MarkDropped) — and terminal ids are tombstoned so a
// late Update from a stale owner (e.g. a drained gray-failure replica racing
// its migrated clone) can never resurrect the entry, and a duplicate
// completion is suppressed rather than double-counted.
//
// Layout (DESIGN.md §11): trajectory ids are issued sequentially from 0
// (PromptPool), so every per-id structure is a dense array indexed by TrajId.
// The heavy TrajectoryWork payloads live in a plain slab with a LIFO free
// list; a per-id array holds each live entry's slot + 1 (0 means "none"),
// and a byte array holds the terminal tombstones. Update, MarkCompleted,
// MarkDropped and Contains are one array index each. Releasing an entry only
// frees its slot index: the cold payload stays until the next Update that
// reuses the slot overwrites it, so the slab retains at most its high-water
// mark of payloads. Slot numbers never leave the pool and never influence
// behavior or bytes. Serving requests (kServingIdBase and up) never enter
// the pool: the mutators CHECK the id range before sizing anything.
//
// Recovery order is canonical: TakeByReplica and the snapshot walk live
// entries in ascending TrajId. The order feeds the manager's round-robin
// redirect sharding, and it depends only on which entries are live, so a
// direct-boot restore recovers work in the same order as the run that wrote
// the blob.
#ifndef LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_
#define LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_

#include <cstdint>
#include <vector>

#include "src/data/trajectory.h"

namespace laminar {

class SnapshotTx;

class PartialResponsePool {
 public:
  // Records/overwrites the saved state for a trajectory. `owner_replica`
  // identifies which replica currently generates it (a re-Update by a new
  // owner after migration simply moves ownership). Returns false — and
  // changes nothing — if the trajectory is already terminal (stale update).
  bool Update(const TrajectoryWork& work, int owner_replica);

  // Marks a trajectory terminal-completed and erases its saved state.
  // Returns true the first time; false for a duplicate completion (the
  // caller should suppress the duplicate's side effects).
  bool MarkCompleted(TrajId id);
  // Marks a trajectory terminal-dropped (explicitly abandoned, e.g. work
  // that died with a machine before ever being checkpointed). Returns true
  // the first time; false if the trajectory was already terminal.
  bool MarkDropped(TrajId id);

  // All in-progress work owned by `replica`, e.g. everything lost when its
  // machine dies, in ascending TrajId. The returned items have
  // kv_resident=false (the cache died with the machine).
  std::vector<TrajectoryWork> TakeByReplica(int replica);

  // False for any id outside [0, kServingIdBase).
  bool Contains(TrajId id) const {
    return IsRolloutId(id) && static_cast<size_t>(id) < slot_of_.size() &&
           slot_of_[static_cast<size_t>(id)] != 0;
  }
  bool IsTerminal(TrajId id) const {
    return IsRolloutId(id) && static_cast<size_t>(id) < terminal_.size() &&
           terminal_[static_cast<size_t>(id)] != 0;
  }
  size_t size() const { return slab_.size() - free_.size(); }
  int64_t updates() const { return updates_; }
  int64_t completed() const { return completed_; }
  int64_t dropped() const { return dropped_; }
  int64_t duplicate_completions() const { return duplicate_completions_; }
  int64_t stale_updates() const { return stale_updates_; }
  // Total context tokens held (a proxy for the pool's memory footprint).
  int64_t total_context_tokens() const;

  // Snapshot (src/snapshot, DESIGN.md §13): counters, the terminal bitmap,
  // and every live entry — id, owner and full work payload — in ascending
  // TrajId, the recovery order.
  void Snapshot(SnapshotTx& tx);

 private:
  struct Entry {
    TrajectoryWork work;
    int owner_replica = -1;
  };

  // Frees `id`'s slot, if it has one, without touching the payload.
  void Release(TrajId id);
  // Returns false if `id` was already terminal (the first call wins).
  bool SetTerminal(TrajId id);

  std::vector<Entry> slab_;
  std::vector<uint32_t> free_;      // LIFO: the most recently freed slot first
  std::vector<uint32_t> slot_of_;   // live entry's slot + 1, indexed by TrajId
  std::vector<uint8_t> terminal_;   // tombstone bitmap, indexed by TrajId
  int64_t updates_ = 0;
  int64_t completed_ = 0;
  int64_t dropped_ = 0;
  int64_t duplicate_completions_ = 0;
  int64_t stale_updates_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_PARTIAL_RESPONSE_POOL_H_
