// Trajectory records and in-progress work state.
//
// A TrajectoryRecord is the durable description of one trajectory: its
// generation plan, the policy version(s) that produced it, its reward and
// its timing. TrajectoryWork wraps a record with generation progress; it is
// the unit that moves between rollout replicas (repack, failure redirect)
// and is checkpointed in the partial-response pool.
#ifndef LAMINAR_SRC_DATA_TRAJECTORY_H_
#define LAMINAR_SRC_DATA_TRAJECTORY_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/common/logging.h"
#include "src/common/sim_time.h"
#include "src/workload/trajectory_spec.h"

namespace laminar {

using TrajId = int64_t;
constexpr TrajId kInvalidTrajId = -1;

// Online serving requests (DESIGN.md §14) ride the replica engine as
// TrajectoryWork but never enter the training data path (prompt ledger,
// PartialResponsePool, experience buffer — all of which index dense rollout
// ids). They live in their own id range so every layer can tell the two
// apart with one comparison.
constexpr TrajId kServingIdBase = TrajId{1} << 40;
inline constexpr bool IsServingId(TrajId id) { return id >= kServingIdBase; }
// Ids PromptPool issues: dense from 0, so they can index per-id arrays.
inline constexpr bool IsRolloutId(TrajId id) { return id >= 0 && id < kServingIdBase; }

// Policy versions a trajectory was generated under, oldest first. Nearly
// every trajectory has one, so up to kInlineCapacity versions live inline and
// copying such a list never allocates; a longer list (partial rollout across
// many weight switches) spills to one heap array. It is no larger than a
// std::vector<int> and offers the part of that interface callers use.
class VersionList {
 public:
  static constexpr uint32_t kInlineCapacity = 4;

  VersionList() = default;
  VersionList(std::initializer_list<int> init) { Assign(init.begin(), init.size()); }
  VersionList(const VersionList& other) { Assign(other.begin(), other.size()); }
  VersionList(VersionList&& other) noexcept { Steal(other); }
  VersionList& operator=(const VersionList& other) {
    if (this != &other) {
      Assign(other.begin(), other.size());
    }
    return *this;
  }
  VersionList& operator=(VersionList&& other) noexcept {
    if (this != &other) {
      Free();
      Steal(other);
    }
    return *this;
  }
  ~VersionList() { Free(); }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  const int* begin() const { return data(); }
  const int* end() const { return data() + size_; }
  int operator[](size_t i) const { return data()[i]; }
  int front() const { return data()[0]; }
  int back() const { return data()[size_ - 1]; }
  void push_back(int v) {
    if (size_ == capacity_) {
      LAMINAR_CHECK_LT(capacity_, UINT32_MAX / 2) << "version list overflow";
      Reserve(2 * capacity_);
    }
    data()[size_++] = v;
  }

 private:
  bool on_heap() const { return capacity_ > kInlineCapacity; }
  int* data() { return on_heap() ? heap_ : inline_; }
  const int* data() const { return on_heap() ? heap_ : inline_; }
  // Grows to `capacity` (past the inline buffer), keeping the contents.
  void Reserve(uint32_t capacity) {
    int* fresh = new int[capacity];
    std::copy(begin(), end(), fresh);
    Free();
    heap_ = fresh;
    capacity_ = capacity;
  }
  // Reuses the current storage when it has room, so overwriting a pooled
  // record never reallocates.
  void Assign(const int* src, size_t n) {
    size_ = 0;
    if (n > capacity_) {
      Reserve(static_cast<uint32_t>(n));
    }
    std::copy(src, src + n, data());
    size_ = static_cast<uint32_t>(n);
  }
  void Free() {
    if (on_heap()) {
      delete[] heap_;
      capacity_ = kInlineCapacity;
    }
  }
  // Takes `other`'s contents, heap array included, and leaves it empty.
  void Steal(VersionList& other) {
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::copy(other.inline_, other.inline_ + kInlineCapacity, inline_);
    }
    other.size_ = 0;
    other.capacity_ = kInlineCapacity;
  }

  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineCapacity;
  union {
    int inline_[kInlineCapacity] = {};
    int* heap_;
  };
};
static_assert(sizeof(VersionList) <= sizeof(std::vector<int>));

// Fields are ordered widest first, so the record carries no inner padding.
// The snapshot codec and the record digest write them field by field in
// their own fixed order, which this layout does not affect.
struct TrajectoryRecord {
  TrajId id = kInvalidTrajId;
  int64_t prompt_id = -1;
  TrajectorySpec spec;

  // Policy versions used across the trajectory's lifetime. A single entry for
  // ordinary generation; multiple entries when partial rollout switched
  // weights mid-generation (the paper's "mixed-version" pathology).
  VersionList weight_versions;

  // Outcome (filled by the reward function at completion).
  double reward = 0.0;
  // Probability the generating policy assigned to the sampled outcome; used
  // for importance ratios in the policy update (src/policy).
  double behavior_prob = 0.0;
  double difficulty = 0.5;

  SimTime created = SimTime::Zero();
  SimTime finished = SimTime::Zero();
  int group_index = 0;  // index within the prompt's GRPO group
  // Actor version at the moment generation finished: the paper's inherent
  // staleness is finish_actor_version - generation version (§6).
  int finish_actor_version = 0;
  int consume_actor_version = 0;
  bool success = false;  // outcome, set with `reward`

  int generation_version() const {
    return weight_versions.empty() ? 0 : weight_versions.front();
  }
  int latest_version() const {
    return weight_versions.empty() ? 0 : weight_versions.back();
  }
  bool mixed_version() const {
    for (size_t i = 1; i < weight_versions.size(); ++i) {
      if (weight_versions[i] != weight_versions[0]) {
        return true;
      }
    }
    return false;
  }
  int num_versions() const {
    int n = weight_versions.empty() ? 0 : 1;
    for (size_t i = 1; i < weight_versions.size(); ++i) {
      if (weight_versions[i] != weight_versions[i - 1]) {
        ++n;
      }
    }
    return n;
  }
  int inherent_staleness() const { return finish_actor_version - generation_version(); }
  int consume_staleness() const { return consume_actor_version - generation_version(); }
  // Prompt + response + env feedback tokens: the paper's throughput metric
  // counts all of them.
  int64_t total_tokens() const { return spec.total_context_tokens(); }
};

// Generation progress for an in-flight trajectory.
struct TrajectoryWork {
  TrajectoryRecord record;
  int64_t decoded_in_segment = 0;
  // Tokens currently in context (prompt + everything decoded + feedback so far).
  int64_t context_tokens = 0;
  int segment_index = 0;
  // True while the context is materialized in some replica's KVCache. A work
  // item that lost its cache (preemption, migration, failure) must re-prefill
  // `context_tokens` before decoding resumes.
  bool kv_resident = false;

  void InitContext() { context_tokens = record.spec.prompt_tokens; }

  bool finished() const {
    return segment_index >= static_cast<int>(record.spec.num_segments());
  }
  const TrajectorySegment& current_segment() const {
    return record.spec.segments()[segment_index];
  }
  int64_t remaining_in_segment() const {
    return current_segment().decode_tokens - decoded_in_segment;
  }
  int64_t remaining_decode_tokens() const {
    if (finished()) {
      return 0;
    }
    int64_t n = remaining_in_segment();
    std::span<const TrajectorySegment> segments = record.spec.segments();
    for (size_t i = segment_index + 1; i < segments.size(); ++i) {
      n += segments[i].decode_tokens;
    }
    return n;
  }
};
// Every hand-off copies or moves this; keep it within three cache lines.
static_assert(sizeof(TrajectoryWork) <= 176);

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_TRAJECTORY_H_
