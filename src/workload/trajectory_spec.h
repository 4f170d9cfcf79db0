// The shape of one trajectory's generation work.
//
// A trajectory alternates decode segments with (optional) environment
// interactions. Single-turn math reasoning is one decode segment; multi-turn
// tool calling interleaves decode segments with code-sandbox calls whose
// results are appended to the context as feedback tokens (which must be
// prefilled, not decoded).
//
// The segment list is immutable once a trajectory enters the pipeline, yet a
// record is copied many times on its way through it (replica -> partial pool
// -> experience buffer -> trainer batch). Segments therefore live in one
// shared refcounted array (control block and segments in a single
// allocation): copying a spec bumps a refcount, so pipeline hand-off never
// allocates (DESIGN.md §11). Builders that know the turn count up front
// (workload generator, snapshot decoder) fill a fresh array in place through
// ResetSegments; AppendSegment is a copy-on-write convenience for tests and
// one-segment specs.
#ifndef LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_
#define LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

namespace laminar {

struct TrajectorySegment {
  int64_t decode_tokens = 0;     // tokens generated auto-regressively
  double env_latency = 0.0;      // sandbox/API wait after this segment (0 if none)
  int64_t feedback_tokens = 0;   // env output appended to context after the wait
};

struct TrajectorySpec {
  int64_t prompt_tokens = 0;

  std::span<const TrajectorySegment> segments() const {
    return {segments_.get(), num_segments_};
  }
  size_t num_segments() const { return num_segments_; }

  // Replaces the segment list with `n` value-initialized segments in a fresh
  // store (one allocation) and returns them for the caller to fill. Copies
  // that shared the old store keep it.
  std::span<TrajectorySegment> ResetSegments(size_t n) {
    std::shared_ptr<TrajectorySegment[]> fresh;
    if (n > 0) {
      fresh = std::make_shared<TrajectorySegment[]>(n);
    }
    std::span<TrajectorySegment> out(fresh.get(), n);
    segments_ = std::move(fresh);
    num_segments_ = n;
    return out;
  }
  // Copy-on-write append: builds a new store of one more segment, so copies
  // sharing the old store are never affected.
  void AppendSegment(const TrajectorySegment& seg) {
    std::shared_ptr<const TrajectorySegment[]> old = std::move(segments_);
    std::span<TrajectorySegment> fresh = ResetSegments(num_segments_ + 1);
    std::copy(old.get(), old.get() + (fresh.size() - 1), fresh.begin());
    fresh.back() = seg;
  }
  void ClearSegments() { ResetSegments(0); }

  int64_t total_decode_tokens() const {
    int64_t n = 0;
    for (const auto& s : segments()) {
      n += s.decode_tokens;
    }
    return n;
  }
  int64_t total_feedback_tokens() const {
    int64_t n = 0;
    for (const auto& s : segments()) {
      n += s.feedback_tokens;
    }
    return n;
  }
  // Final context length once fully generated.
  int64_t total_context_tokens() const {
    return prompt_tokens + total_decode_tokens() + total_feedback_tokens();
  }
  double total_env_latency() const {
    double t = 0.0;
    for (const auto& s : segments()) {
      t += s.env_latency;
    }
    return t;
  }
  int num_turns() const { return static_cast<int>(num_segments()); }

 private:
  std::shared_ptr<const TrajectorySegment[]> segments_;
  size_t num_segments_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_
