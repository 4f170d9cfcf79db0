// Discrete-event simulation engine.
//
// The simulator owns a virtual clock and a priority queue of scheduled
// continuations: every event is a (component, kind, payload) descriptor
// dispatched through the continuation registry (src/sim/continuation.h).
// Events at equal timestamps execute in scheduling order, which — combined
// with the deterministic Rng streams (common/rng.h) — makes every run
// bit-reproducible.
//
// Internals (DESIGN.md "Simulation engine internals"): event records live in
// a slab pool indexed by a 32-bit slot with a 32-bit generation tag packed
// into the EventId, so Cancel()/IsPending() are O(1) array probes with no
// hashing. The heap is ordered by (time, seq), where seq is one counter
// bumped by every schedule and restore re-mint. Cancellation is lazy — the
// heap entry stays behind as a tombstone that Step() skips when popped, and
// the heap is compacted when tombstones outnumber live entries.
#ifndef LAMINAR_SRC_SIM_SIMULATOR_H_
#define LAMINAR_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/sim_time.h"
#include "src/sim/continuation.h"

namespace laminar {

class TraceSink;
class SnapshotTx;

// Packed (generation << 32) | pool slot. Generations start at 1, so a valid
// id is never 0.
using EventId = uint64_t;
constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules the continuation (comp, kind, payload) to run at absolute time
  // `t` (>= Now()): when the event fires, the registry dispatches it to the
  // client registered under `comp` (DESIGN.md §13). Every event is such a
  // descriptor, which is what lets the live heap serialize into the
  // snapshot's event_heap section. Returns an id that can be passed to
  // Cancel() until the event fires.
  EventId ScheduleContinuationAt(SimTime t, int32_t comp, uint16_t kind,
                                 const ContinuationPayload& payload = {});
  // Same, `delay` seconds (>= 0) from now.
  EventId ScheduleContinuationAfter(double delay, int32_t comp, uint16_t kind,
                                    const ContinuationPayload& payload = {});

  // Components register their continuation dispatch here (at construction /
  // Setup, before any descriptor event fires or is restored).
  ContinuationRegistry& continuations() { return registry_; }
  const ContinuationRegistry& continuations() const { return registry_; }

  // Cancels a pending event. Returns true if the event was still pending.
  bool Cancel(EventId id);
  bool IsPending(EventId id) const {
    uint32_t slot = SlotOf(id);
    if (slot >= slots_.size()) {
      return false;
    }
    const Slot& s = slots_[slot];
    return s.generation == GenerationOf(id) && s.pending;
  }

  // Executes the next pending event, advancing the clock. Returns false if
  // the queue is empty.
  bool Step();

  // Runs events until the clock would pass `deadline`; the clock finishes at
  // exactly `deadline` (events at later times remain pending).
  void RunUntil(SimTime deadline);

  // Runs until no events remain or `max_events` have executed.
  void RunUntilIdle(uint64_t max_events = UINT64_MAX);

  // Runs until `predicate()` returns true (checked before the first event
  // and after every executed event) or the queue drains. Returns true if the
  // predicate was satisfied.
  bool RunUntilTrue(const std::function<bool()>& predicate,
                    uint64_t max_events = UINT64_MAX);

  size_t pending_events() const { return live_; }
  uint64_t executed_events() const { return executed_; }

  // Structured tracing (src/trace). Null when tracing is disabled — the
  // emission macros test this pointer and do nothing else, so instrumented
  // code costs one predictable branch per site in ordinary runs. The sink is
  // owned by the driver; the simulator only hands it to instrumented code.
  TraceSink* trace() const { return trace_; }
  void set_trace(TraceSink* sink) { trace_ = sink; }

  // Introspection for tests and benches: slab slots ever allocated (bounded
  // by the peak number of simultaneously pending events, not by churn) and
  // heap entries including tombstones awaiting compaction.
  size_t event_pool_slots() const { return slots_.size(); }
  size_t heap_entries() const { return heap_keys_.size(); }

  // Engine snapshot (src/snapshot, DESIGN.md §13): the clock, the
  // executed-event count, and the live event heap serialized in canonical
  // (time, seq) order as (time_key, component, kind, payload) entries.
  // Sequence numbers and slot generations are deliberately excluded — the
  // order carries everything a restore needs. In adopt mode the clock and
  // executed count are seated and the entries are stashed; the driver calls
  // RemintRestoredEvents() after the full component adoption walk so
  // RestoreContinuation implementations see fully-adopted component state.
  void Snapshot(SnapshotTx& tx);

  // Re-schedules every stashed snapshot entry through the continuation
  // registry in canonical order, so each takes a fresh sequence number in
  // the order the blob lists them — which reproduces exactly the
  // (time, seq) comparisons an uninterrupted run leaves in the heap.
  // CHECK-fails on an entry naming a negative component, which no schedule
  // can produce: the blob is malformed.
  void RemintRestoredEvents();

 private:
  // One event record: the descriptor it dispatches, the generation its
  // EventId must carry, and whether it is scheduled (heap entry live) or on
  // the free list.
  struct Slot {
    ContinuationDesc desc;
    uint32_t generation = 1;
    bool pending = false;
  };
  static_assert(sizeof(Slot) == 48, "an event slot should stay 6 words");

  // One live heap entry read back from a snapshot, awaiting re-mint.
  struct RestoredEvent {
    uint64_t key = 0;
    ContinuationDesc desc;
  };

  // The heap is stored as parallel arrays (struct-of-arrays): heap_keys_
  // holds just the timestamps the sift comparisons read — eight entries per
  // cache line — while heap_meta_ carries the payload moved alongside.
  // Timestamps are stored bit-cast to uint64: non-negative IEEE-754 doubles
  // order identically to their bit patterns, and integer compares let the
  // sift loops run on conditional moves instead of mispredicted branches.
  // `seq` breaks timestamp ties in scheduling order.
  struct HeapMeta {
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };
  static_assert(sizeof(HeapMeta) == 16, "heap metadata should stay 2 words");

  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id); }
  static uint32_t GenerationOf(EventId id) { return static_cast<uint32_t>(id >> 32); }
  static EventId Pack(uint32_t slot, uint32_t generation) {
    return (static_cast<uint64_t>(generation) << 32) | slot;
  }

  static uint64_t TimeKey(SimTime t);
  static double KeyTime(uint64_t key);
  // Heap order is (time key, seq). Both comparisons read heap_meta_ only on
  // a time tie, so the sift loops stay on the key array.
  bool EntryBefore(size_t a, size_t b) const {
    return heap_keys_[a] < heap_keys_[b] ||
           (heap_keys_[a] == heap_keys_[b] && heap_meta_[a].seq < heap_meta_[b].seq);
  }
  // The entry (k, seq) held outside the arrays sorts before entry j.
  bool HeldBefore(uint64_t k, uint64_t seq, size_t j) const {
    return k < heap_keys_[j] || (k == heap_keys_[j] && seq < heap_meta_[j].seq);
  }

  // A heap entry is live iff its (slot, generation) still names a scheduled
  // event; anything else is a tombstone left behind by Cancel().
  bool Live(const HeapMeta& m) const {
    const Slot& s = slots_[m.slot];
    return s.generation == m.generation && s.pending;
  }

  uint32_t AllocSlot();
  void RetireSlot(uint32_t slot);
  void PushHeap(SimTime t, uint32_t slot, uint32_t generation);
  // 4-ary min-heap primitives (shallower than a binary heap, so pushes/pops
  // touch fewer cache lines).
  void HeapSiftUp(size_t i);
  void HeapSiftDown(size_t i);
  void HeapPopTop();
  // Pops tombstones off the heap top so heap front is a live event.
  void PruneStaleTop();
  // Rebuilds the heap without tombstones once they dominate it.
  void MaybeCompactHeap();

  SimTime now_ = SimTime::Zero();
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t live_ = 0;        // pending events
  size_t tombstones_ = 0;  // stale entries still in the heap
  std::vector<uint64_t> heap_keys_;
  std::vector<HeapMeta> heap_meta_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  TraceSink* trace_ = nullptr;
  ContinuationRegistry registry_;
  std::vector<RestoredEvent> restored_;  // adopt-mode stash, see Snapshot()
};

// A repeating timer: runs `fn` every `period` seconds starting at
// `start + period` until Stop() or the owner is destroyed. Used for
// heartbeats and the rollout manager's periodic repack check. Each tick is a
// continuation event carrying (comp, kind): the owning component's
// RunContinuation must route that kind to Fire(), and after the body runs
// the tick schedules the next one. The pending tick serializes into the
// event_heap section and comes back through RestorePending() on direct boot.
class PeriodicTask {
 public:
  PeriodicTask(Simulator* sim, double period, int32_t comp, uint16_t kind,
               std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }
  void set_period(double period) { period_ = period; }

  // Continuation entry point: the owner's RunContinuation calls this when
  // the task's tick kind fires.
  void Fire() { Tick(); }
  // Direct-boot restore of a pending tick read from the event heap:
  // re-schedules it at `at` and marks the task running.
  void RestorePending(SimTime at);

 private:
  void Tick();

  Simulator* sim_;
  double period_;
  int32_t comp_;
  uint16_t kind_;
  std::function<void()> fn_;
  EventId pending_ = kInvalidEventId;
  bool running_ = false;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_SIM_SIMULATOR_H_
