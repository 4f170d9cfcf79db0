// Order-sensitive FNV digests over trajectory payloads: the experience
// buffer's snapshot cross-check (DESIGN.md §13), a cheap witness written
// next to the packed records and read-and-skipped on adopt.
#ifndef LAMINAR_SRC_DATA_TRAJECTORY_DIGEST_H_
#define LAMINAR_SRC_DATA_TRAJECTORY_DIGEST_H_

#include <cstdint>

#include "src/data/trajectory.h"
#include "src/snapshot/snapshot.h"

namespace laminar {

inline uint64_t SnapshotFoldU64(uint64_t h, uint64_t v) {
  return SnapshotFnv1a(&v, sizeof(v), h);
}
inline uint64_t SnapshotFoldI64(uint64_t h, int64_t v) {
  return SnapshotFoldU64(h, static_cast<uint64_t>(v));
}
inline uint64_t SnapshotFoldF64(uint64_t h, double v) {
  return SnapshotFoldU64(h, SnapshotF64Bits(v));
}

inline uint64_t TrajectorySpecDigest(const TrajectorySpec& spec, uint64_t h) {
  h = SnapshotFoldI64(h, spec.prompt_tokens);
  h = SnapshotFoldU64(h, spec.num_segments());
  for (const TrajectorySegment& seg : spec.segments()) {
    h = SnapshotFoldI64(h, seg.decode_tokens);
    h = SnapshotFoldF64(h, seg.env_latency);
    h = SnapshotFoldI64(h, seg.feedback_tokens);
  }
  return h;
}

inline uint64_t TrajectoryRecordDigest(const TrajectoryRecord& r, uint64_t h) {
  h = SnapshotFoldI64(h, r.id);
  h = SnapshotFoldI64(h, r.prompt_id);
  h = SnapshotFoldI64(h, r.group_index);
  h = TrajectorySpecDigest(r.spec, h);
  h = SnapshotFoldU64(h, r.weight_versions.size());
  for (int v : r.weight_versions) {
    h = SnapshotFoldI64(h, v);
  }
  h = SnapshotFoldF64(h, r.reward);
  h = SnapshotFoldF64(h, r.behavior_prob);
  h = SnapshotFoldF64(h, r.difficulty);
  h = SnapshotFoldU64(h, r.success ? 1 : 0);
  h = SnapshotFoldF64(h, r.created.seconds());
  h = SnapshotFoldF64(h, r.finished.seconds());
  h = SnapshotFoldI64(h, r.finish_actor_version);
  h = SnapshotFoldI64(h, r.consume_actor_version);
  return h;
}

}  // namespace laminar

#endif  // LAMINAR_SRC_DATA_TRAJECTORY_DIGEST_H_
