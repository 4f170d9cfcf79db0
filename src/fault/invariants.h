// System-wide invariant checker (armed during chaos runs).
//
// The chaos engine can only prove robustness if something watches the whole
// system while faults fire. The checker audits four global properties:
//
//  1. Exactly-once prompt ledger: every trajectory the prompt pool issued is,
//     at all times, in flight (on a replica or parked in the manager),
//     terminal-completed, or terminal-dropped — never lost, never duplicated.
//  2. No duplicate experience: a trajectory id enters the experience buffer
//     at most once.
//  3. KVCache token conservation: each replica's kv_used_tokens accounting
//     equals the sum of context tokens of its cache-resident work.
//  4. Staleness sanity: inherent staleness of every buffered record is
//     non-negative.
//
// Violations are recorded with the sim time and a description, so a chaos
// seed that breaks an invariant is directly replayable.
#ifndef LAMINAR_SRC_FAULT_INVARIANTS_H_
#define LAMINAR_SRC_FAULT_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/data/partial_response_pool.h"
#include "src/data/trajectory.h"
#include "src/rollout/replica.h"
#include "src/sim/simulator.h"

namespace laminar {

class SnapshotTx;

// Serving-tier counters sampled for the admission-conservation audit
// (DESIGN.md §14). Populated by a driver-provided callback so the checker
// stays decoupled from the rollout manager.
struct ServingCounts {
  int64_t requests = 0;
  int64_t rejected = 0;
  int64_t queued = 0;
  int64_t resident = 0;
  int64_t completed = 0;
  int64_t timed_out = 0;
  int64_t failed = 0;
  int64_t deadline_hits = 0;
  int64_t deadline_misses = 0;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(Simulator* sim);

  // Wiring -------------------------------------------------------------------
  // Total trajectories the prompt pool has handed out.
  void set_issued_fn(std::function<int64_t()> fn) { issued_fn_ = std::move(fn); }
  // Trajectories currently on replicas or parked in the rollout manager.
  void set_inflight_fn(std::function<int64_t()> fn) { inflight_fn_ = std::move(fn); }
  void set_pool(const PartialResponsePool* pool) { pool_ = pool; }
  void AddReplica(const RolloutReplica* replica) { replicas_.push_back(replica); }
  // Arms the serving-tier audit: every sweep additionally checks admitted-
  // request conservation (each request in exactly one terminal-or-queued
  // state) and deadline-bookkeeping sanity (hits + misses == completions).
  // Unset (the default, serving off) adds no checks.
  void set_serving_fn(std::function<ServingCounts()> fn) {
    serving_fn_ = std::move(fn);
  }

  // Observations -------------------------------------------------------------
  void ObserveBufferPush(const TrajectoryRecord& record);
  void ObserveFaultInjected() { ++faults_injected_; }

  // Checks -------------------------------------------------------------------
  // Periodic sweep: prompt-ledger conservation + per-replica KV accounting.
  void CheckSweep();
  // End-of-run audit: one final sweep plus ledger/buffer cross-checks.
  void CheckFinal();

  int64_t checks_run() const { return checks_run_; }
  int64_t violation_count() const { return violation_count_; }
  int64_t faults_injected() const { return faults_injected_; }
  int64_t buffer_pushes() const { return pushes_; }
  const std::vector<std::string>& violations() const { return violations_; }
  bool ok() const { return violation_count_ == 0; }

  // Snapshot witness (src/snapshot, DESIGN.md §13): counters, the recorded
  // violation strings and the duplicate-push bitmap, all fully adoptable so a
  // direct boot keeps auditing from where the blob left off.
  void Snapshot(SnapshotTx& tx);

 private:
  void Report(const std::string& what);

  Simulator* sim_;
  std::function<int64_t()> issued_fn_;
  std::function<int64_t()> inflight_fn_;
  std::function<ServingCounts()> serving_fn_;
  const PartialResponsePool* pool_ = nullptr;
  std::vector<const RolloutReplica*> replicas_;

  // Trajectory ids are issued sequentially from 0, so the duplicate-push set
  // is a dense bitmap (this observation runs on every completion).
  std::vector<uint8_t> pushed_;
  int64_t pushes_ = 0;
  int64_t checks_run_ = 0;
  int64_t violation_count_ = 0;
  int64_t faults_injected_ = 0;
  std::vector<std::string> violations_;
};

// Throughput-recovery predicate for fault drills: compares the mean of
// `series` over the `window_seconds` before `fault_start` against the mean
// over the `window_seconds` after `recovered_by`, and returns true when the
// post-recovery mean reaches `ratio` of the pre-fault baseline. An empty
// baseline window counts as recovered (nothing to regress from).
bool ThroughputRecovered(const TimeSeries& series, SimTime fault_start,
                         SimTime recovered_by, double window_seconds, double ratio);

}  // namespace laminar

#endif  // LAMINAR_SRC_FAULT_INVARIANTS_H_
