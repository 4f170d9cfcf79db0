#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"

namespace laminar {

// Non-negative IEEE-754 doubles order identically to their bit patterns read
// as unsigned integers, so the heap can compare timestamps with integer
// instructions. `+ 0.0` canonicalizes -0.0 (whose sign bit would otherwise
// sort it last).
uint64_t Simulator::TimeKey(SimTime t) {
  return std::bit_cast<uint64_t>(t.seconds() + 0.0);
}

double Simulator::KeyTime(uint64_t key) { return std::bit_cast<double>(key); }

uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  LAMINAR_CHECK_LT(slots_.size(), static_cast<size_t>(kNoCurrent))
      << "event slab exhausted";
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::RetireSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.fn) {
    s.fn = nullptr;  // skip the std::function reset churn for descriptor events
  }
  s.desc.comp = -1;
  if (++s.generation == 0) {
    s.generation = 1;  // keep packed ids nonzero and unambiguous
  }
  s.state = SlotState::kFree;
  free_slots_.push_back(slot);
}

void Simulator::HeapSiftUp(size_t i) {
  const uint64_t k = heap_keys_[i];
  const HeapMeta m = heap_meta_[i];
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!HeldBefore(k, m.seq, parent)) {
      break;
    }
    heap_keys_[i] = heap_keys_[parent];
    heap_meta_[i] = heap_meta_[parent];
    i = parent;
  }
  heap_keys_[i] = k;
  heap_meta_[i] = m;
}

void Simulator::HeapSiftDown(size_t i) {
  const uint64_t k = heap_keys_[i];
  const HeapMeta m = heap_meta_[i];
  const size_t n = heap_keys_.size();
  for (;;) {
    const size_t child = (i << 2) + 1;
    if (child >= n) {
      break;
    }
    size_t best = child;
    const size_t end = child + 4 < n ? child + 4 : n;
    for (size_t c = child + 1; c < end; ++c) {
      if (EntryBefore(c, best)) {
        best = c;
      }
    }
    if (HeldBefore(k, m.seq, best)) {
      break;
    }
    heap_keys_[i] = heap_keys_[best];
    heap_meta_[i] = heap_meta_[best];
    i = best;
  }
  heap_keys_[i] = k;
  heap_meta_[i] = m;
}

void Simulator::HeapPopTop() {
  const uint64_t bk = heap_keys_.back();
  const HeapMeta bm = heap_meta_.back();
  heap_keys_.pop_back();
  heap_meta_.pop_back();
  const size_t n = heap_keys_.size();
  if (n == 0) {
    return;
  }
  // Bottom-up pop: walk the hole at the root down along minimum children to
  // a leaf (no comparisons against the displaced back element on the way),
  // then drop that element into the hole and sift it up — it rarely rises.
  size_t i = 0;
  for (;;) {
    const size_t child = (i << 2) + 1;
    if (child >= n) {
      break;
    }
    size_t best = child;
    const size_t end = child + 4 < n ? child + 4 : n;
    for (size_t c = child + 1; c < end; ++c) {
      if (EntryBefore(c, best)) {
        best = c;
      }
    }
    heap_keys_[i] = heap_keys_[best];
    heap_meta_[i] = heap_meta_[best];
    i = best;
  }
  heap_keys_[i] = bk;
  heap_meta_[i] = bm;
  HeapSiftUp(i);
}

void Simulator::PushHeap(SimTime t, uint32_t slot, uint32_t generation) {
  heap_keys_.push_back(TimeKey(t));
  heap_meta_.push_back(HeapMeta{next_seq_++, slot, generation});
  HeapSiftUp(heap_keys_.size() - 1);
}

uint32_t Simulator::ScheduleSlot(SimTime t) {
  // The one causality check of the engine, shared by every schedule path.
  LAMINAR_CHECK(t >= now_) << "scheduling into the past: " << t.seconds() << " < "
                           << now_.seconds();
  uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.state = SlotState::kPending;
  PushHeap(t, slot, s.generation);
  ++live_;
  return slot;
}

EventId Simulator::ScheduleAt(SimTime t, std::function<void()> fn) {
  uint32_t slot = ScheduleSlot(t);
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  return Pack(slot, s.generation);
}

EventId Simulator::ScheduleAfter(double delay, std::function<void()> fn) {
  LAMINAR_CHECK(delay >= 0.0) << "negative delay " << delay;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleContinuationAt(SimTime t, int32_t comp, uint16_t kind,
                                          const ContinuationPayload& payload) {
  LAMINAR_CHECK_GE(comp, 0);
  uint32_t slot = ScheduleSlot(t);
  Slot& s = slots_[slot];
  s.desc = ContinuationDesc{comp, kind, payload};
  return Pack(slot, s.generation);
}

EventId Simulator::ScheduleContinuationAfter(double delay, int32_t comp, uint16_t kind,
                                             const ContinuationPayload& payload) {
  LAMINAR_CHECK(delay >= 0.0) << "negative delay " << delay;
  return ScheduleContinuationAt(now_ + delay, comp, kind, payload);
}

EventId Simulator::RearmCurrentAfter(double delay) {
  LAMINAR_CHECK(current_ != kNoCurrent) << "RearmCurrentAfter outside an event callback";
  LAMINAR_CHECK(delay >= 0.0) << "negative delay " << delay;
  Slot& s = slots_[current_];
  LAMINAR_CHECK(s.state == SlotState::kExecuting) << "current event already re-armed";
  if (++s.generation == 0) {
    s.generation = 1;
  }
  s.state = SlotState::kRearmed;
  PushHeap(now_ + delay, current_, s.generation);
  ++live_;
  return Pack(current_, s.generation);
}

bool Simulator::Cancel(EventId id) {
  uint32_t slot = SlotOf(id);
  if (slot >= slots_.size()) {
    return false;
  }
  Slot& s = slots_[slot];
  if (s.generation != GenerationOf(id)) {
    return false;
  }
  if (s.state == SlotState::kPending) {
    RetireSlot(slot);
    --live_;
    ++tombstones_;
    MaybeCompactHeap();
    return true;
  }
  if (s.state == SlotState::kRearmed) {
    // Cancelled from inside its own callback; the closure is out on loan to
    // Step(), so just undo the re-arm and let Step() retire the slot.
    if (++s.generation == 0) {
      s.generation = 1;
    }
    s.state = SlotState::kExecuting;
    --live_;
    ++tombstones_;
    return true;
  }
  return false;
}

void Simulator::PruneStaleTop() {
  while (!heap_keys_.empty() && !Live(heap_meta_.front())) {
    HeapPopTop();
    --tombstones_;
  }
}

void Simulator::MaybeCompactHeap() {
  if (tombstones_ < 64 || tombstones_ * 2 < heap_keys_.size()) {
    return;
  }
  size_t out = 0;
  for (size_t i = 0; i < heap_keys_.size(); ++i) {
    if (Live(heap_meta_[i])) {
      heap_keys_[out] = heap_keys_[i];
      heap_meta_[out] = heap_meta_[i];
      ++out;
    }
  }
  heap_keys_.resize(out);
  heap_meta_.resize(out);
  // Floyd heap construction for the 4-ary layout.
  if (out > 1) {
    for (size_t i = (out - 2) / 4 + 1; i-- > 0;) {
      HeapSiftDown(i);
    }
  }
  tombstones_ = 0;
}

bool Simulator::Step() {
  while (!heap_keys_.empty()) {
    const double t = KeyTime(heap_keys_.front());
    const HeapMeta m = heap_meta_.front();
    HeapPopTop();
    if (!Live(m)) {
      --tombstones_;
      continue;
    }
    Slot& s = slots_[m.slot];
    s.state = SlotState::kExecuting;
    // Run the body from locals: the callback may schedule events that grow
    // the slab (invalidating `s`), cancel its own re-arm, or be the
    // closure's only owner. Descriptor events copy 40 bytes of POD instead
    // of moving a closure.
    const ContinuationDesc desc = s.desc;
    std::function<void()> fn;
    if (desc.comp < 0) {
      fn = std::move(s.fn);
    }
    now_ = SimTime(t);
    ++executed_;
    --live_;
    uint32_t prev_current = current_;
    current_ = m.slot;
    if (desc.comp >= 0) {
      registry_.Run(desc.comp, desc.kind, desc.payload);
    } else {
      fn();
    }
    current_ = prev_current;
    Slot& after = slots_[m.slot];
    if (after.state == SlotState::kRearmed) {
      if (desc.comp < 0) {
        after.fn = std::move(fn);  // hand the closure back for the next firing
      }
      after.state = SlotState::kPending;
    } else {
      RetireSlot(m.slot);
    }
    return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime deadline) {
  for (;;) {
    // Skip tombstones to see the genuine next event time.
    PruneStaleTop();
    if (heap_keys_.empty() || SimTime(KeyTime(heap_keys_.front())) > deadline) {
      break;
    }
    Step();
  }
  if (deadline > now_ && deadline.is_finite()) {
    now_ = deadline;
  }
}

void Simulator::RunUntilIdle(uint64_t max_events) {
  uint64_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
}

bool Simulator::RunUntilTrue(const std::function<bool()>& predicate,
                             uint64_t max_events) {
  if (predicate()) {
    return true;
  }
  uint64_t n = 0;
  while (n < max_events && Step()) {
    ++n;
    if (predicate()) {
      return true;
    }
  }
  return false;
}

namespace {

// One canonical event_heap entry: 48 little-endian bytes. Sequence numbers
// are excluded on purpose: the entry order carries them.
void PackHeapEntry(std::string& out, uint64_t key, const ContinuationDesc& d) {
  auto put_le = [&out](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  put_le(key, 8);
  put_le(static_cast<uint32_t>(d.comp), 4);
  put_le(d.kind, 2);
  put_le(0, 2);
  put_le(static_cast<uint64_t>(d.payload.a), 8);
  put_le(static_cast<uint64_t>(d.payload.b), 8);
  put_le(static_cast<uint64_t>(d.payload.c), 8);
  put_le(static_cast<uint64_t>(d.payload.d), 8);
}

constexpr size_t kHeapEntryBytes = 48;

uint64_t ReadLe(const std::string& s, size_t pos, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[pos + i])) << (8 * i);
  }
  return v;
}

}  // namespace

void Simulator::Snapshot(SnapshotTx& tx) {
  tx.Begin("sim");
  double now_s = now_.seconds();
  uint64_t executed = executed_;
  tx.F64("now", &now_s);
  tx.U64("executed", &executed);
  if (tx.adopting()) {
    LAMINAR_CHECK_EQ(pending_events(), 0u)
        << "direct-boot adopt into a simulator that already scheduled events";
    executed_ = executed;
    now_ = SimTime(now_s);
  }
  // Live entries in canonical (time key, seq) order.
  struct Entry {
    uint64_t key;
    uint64_t seq;
    ContinuationDesc desc;
  };
  std::vector<Entry> entries;
  entries.reserve(live_);
  bool complete = true;
  for (size_t i = 0; i < heap_meta_.size(); ++i) {
    const HeapMeta& m = heap_meta_[i];
    if (!Live(m)) {
      continue;
    }
    const Slot& s = slots_[m.slot];
    entries.push_back(Entry{heap_keys_[i], m.seq, s.desc});
    if (s.desc.comp < 0) {
      complete = false;
    }
  }
  LAMINAR_CHECK_EQ(entries.size(), live_);
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.key < y.key || (x.key == y.key && x.seq < y.seq);
  });
  uint64_t live_u = static_cast<uint64_t>(live_);
  tx.U64("live_events", &live_u);
  bool complete_b = complete;
  tx.Bool("heap_complete", &complete_b);
  std::string packed;
  packed.reserve(entries.size() * kHeapEntryBytes);
  for (const Entry& e : entries) {
    PackHeapEntry(packed, e.key, e.desc);
  }
  tx.Bytes("event_heap", &packed);
  if (tx.adopting()) {
    LAMINAR_CHECK_EQ(packed.size(), live_u * kHeapEntryBytes)
        << "event_heap section size disagrees with live_events";
    restored_.clear();
    restored_.reserve(live_u);
    for (size_t pos = 0; pos < packed.size(); pos += kHeapEntryBytes) {
      RestoredEvent ev;
      ev.key = ReadLe(packed, pos, 8);
      ev.desc.comp = static_cast<int32_t>(static_cast<uint32_t>(ReadLe(packed, pos + 8, 4)));
      ev.desc.kind = static_cast<uint16_t>(ReadLe(packed, pos + 12, 2));
      ev.desc.payload.a = static_cast<int64_t>(ReadLe(packed, pos + 16, 8));
      ev.desc.payload.b = static_cast<int64_t>(ReadLe(packed, pos + 24, 8));
      ev.desc.payload.c = static_cast<int64_t>(ReadLe(packed, pos + 32, 8));
      ev.desc.payload.d = static_cast<int64_t>(ReadLe(packed, pos + 40, 8));
      restored_.push_back(ev);
    }
  }
  tx.End();
}

void Simulator::RemintRestoredEvents() {
  // Canonical-order re-mint: each RestoreContinuation schedules through the
  // ordinary paths, so restored events take consecutive sequence numbers in
  // blob order and every later schedule sorts after them — exactly the
  // pairwise (time, seq) comparisons an uninterrupted run leaves in the
  // heap. See DESIGN.md §13 for the argument.
  std::vector<RestoredEvent> entries = std::move(restored_);
  restored_.clear();
  for (const RestoredEvent& e : entries) {
    LAMINAR_CHECK_GE(e.desc.comp, 0)
        << "snapshot contains a non-reconstructible (closure) event; "
           "direct-boot restore requires continuation descriptors";
    registry_.Require(e.desc.comp)
        .RestoreContinuation(e.desc.kind, e.desc.payload, SimTime(KeyTime(e.key)));
  }
}

PeriodicTask::PeriodicTask(Simulator* sim, double period, std::function<void()> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  LAMINAR_CHECK_GT(period_, 0.0);
}

PeriodicTask::PeriodicTask(Simulator* sim, double period, int32_t comp, uint16_t kind,
                           std::function<void()> fn)
    : sim_(sim), period_(period), comp_(comp), kind_(kind), fn_(std::move(fn)) {
  LAMINAR_CHECK_GT(period_, 0.0);
  LAMINAR_CHECK_GE(comp_, 0);
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  pending_ = comp_ >= 0
                 ? sim_->ScheduleContinuationAfter(period_, comp_, kind_)
                 : sim_->ScheduleAfter(period_, [this] { Tick(); });
}

void PeriodicTask::RestorePending(SimTime at) {
  LAMINAR_CHECK_GE(comp_, 0) << "RestorePending on a closure-based PeriodicTask";
  if (pending_ != kInvalidEventId) {
    sim_->Cancel(pending_);
  }
  running_ = true;
  pending_ = sim_->ScheduleContinuationAt(at, comp_, kind_);
}

void PeriodicTask::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (pending_ != kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = kInvalidEventId;
  }
}

void PeriodicTask::Tick() {
  pending_ = kInvalidEventId;
  if (!running_) {
    return;
  }
  fn_();
  // Re-arm the event record in place unless the callback stopped the task or
  // restarted it (Start() inside fn_ schedules its own fresh event).
  if (running_ && pending_ == kInvalidEventId) {
    pending_ = sim_->RearmCurrentAfter(period_);
  }
}

}  // namespace laminar
