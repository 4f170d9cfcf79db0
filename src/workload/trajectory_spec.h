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
// -> experience buffer -> trainer batch). A single segment (every math spec,
// every serving request, one-turn tool specs) is stored inline, so such a
// spec is built, copied and destroyed without touching the heap. Two or more
// segments live in one shared refcounted array (control block and segments in
// a single allocation): copying that spec bumps a refcount, so pipeline
// hand-off never allocates either way (DESIGN.md §11). A span from segments()
// is valid only while its spec is alive and unmoved. Builders that know the
// turn count up front (workload generator, snapshot decoder) fill the
// segments in place through ResetSegments; AppendSegment is a copy-on-write
// convenience for tests and one-segment specs.
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
    return {num_segments_ > 1 ? shared_.get() : &inline_, num_segments_};
  }
  size_t num_segments() const { return num_segments_; }

  // Replaces the segment list with `n` value-initialized segments and returns
  // them for the caller to fill: in place for one, in a fresh shared store
  // (one allocation) for more. Copies that shared the old store keep it.
  std::span<TrajectorySegment> ResetSegments(size_t n) {
    inline_ = {};
    shared_.reset();
    num_segments_ = n;
    if (n <= 1) {
      return {&inline_, n};
    }
    std::shared_ptr<TrajectorySegment[]> fresh = std::make_shared<TrajectorySegment[]>(n);
    std::span<TrajectorySegment> out(fresh.get(), n);
    shared_ = std::move(fresh);
    return out;
  }
  // Copy-on-write append: builds the list anew with one more segment, so
  // copies sharing the old store are never affected.
  void AppendSegment(const TrajectorySegment& seg) {
    const TrajectorySpec old = *this;
    std::span<TrajectorySegment> fresh = ResetSegments(old.num_segments_ + 1);
    std::ranges::copy(old.segments(), fresh.begin());
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
  TrajectorySegment inline_;  // the segment when there is exactly one
  std::shared_ptr<const TrajectorySegment[]> shared_;  // two or more
  size_t num_segments_ = 0;
};

}  // namespace laminar

#endif  // LAMINAR_SRC_WORKLOAD_TRAJECTORY_SPEC_H_
