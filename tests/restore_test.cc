// Direct-boot restore suite (DESIGN.md §13): a run restarted from an LMSNAP1
// blob must be indistinguishable from one that never stopped — identical
// fingerprint (reports, iterations, series, ledger, binary trace) and an
// identical boot-barrier re-snapshot — with the serving tier on or off, and
// under crash-restart chaos. A snapshot_verify rerun, which re-executes the
// prefix and verifies every field at the barrier, is the reference the boot
// is held to: both must land on the same bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/laminar_system.h"
#include "src/core/run.h"
#include "src/fault/injector.h"
#include "src/sim/continuation.h"
#include "src/sim/simulator.h"
#include "src/snapshot/snapshot.h"
#include "src/verify/oracles.h"

namespace laminar {
namespace {

RlSystemConfig RestoreConfig() {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.global_batch = 256;
  cfg.max_concurrency = 128;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.seed = 4321;
  cfg.invariants_enabled = true;
  cfg.ledger_enabled = true;
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = 0;
  return cfg;
}

// One cell of the restore-equivalence matrix: snapshot `base` at
// `barrier_seconds` (mid-run by default), rerun with snapshot_verify (a
// re-execution verifying every field against the blob), direct-boot from the
// blob (adopt + re-mint), and require byte-identical fingerprints and blobs
// everywhere.
void CheckRestoreEquivalence(const RlSystemConfig& base,
                             std::optional<double> barrier_seconds = std::nullopt) {
  SystemReport full = RunExperiment(base);
  ASSERT_GT(full.simulated_seconds, 0.0);
  std::string want = RunFingerprint(full);

  RlSystemConfig snapped = base;
  snapped.snapshot_at_seconds = barrier_seconds.value_or(0.5 * full.simulated_seconds);
  ASSERT_LT(snapped.snapshot_at_seconds, full.simulated_seconds);
  SystemReport a = RunExperiment(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  ASSERT_FALSE(a.snapshot->empty());
  EXPECT_EQ(RunFingerprint(a), want) << "snapshot perturbed the run";

  // Verifying rerun: re-execute from t=0, pausing at the same barrier to
  // verify field-by-field.
  RlSystemConfig replay = snapped;
  replay.snapshot_verify = a.snapshot;
  SystemReport b = RunExperiment(replay);
  ASSERT_NE(b.snapshot, nullptr);
  EXPECT_EQ(*b.snapshot, *a.snapshot);
  EXPECT_TRUE(b.snapshot_mismatches.empty())
      << b.snapshot_mismatches.size()
      << " mismatches; first: " << b.snapshot_mismatches.front();
  EXPECT_EQ(RunFingerprint(b), want);

  // Direct boot: O(1)-of-the-prefix adoption, then run to completion.
  RlSystemConfig boot = base;
  boot.restore_from = a.snapshot;
  // Also field-diff the adopted state against the blob, so a drifted boot
  // names the offending fields instead of just failing the byte compare.
  boot.snapshot_verify = a.snapshot;
  SystemReport r = RunExperiment(boot);
  EXPECT_TRUE(r.restored);
  EXPECT_TRUE(r.snapshot_mismatches.empty())
      << r.snapshot_mismatches.size()
      << " adopted-state mismatches; first: " << r.snapshot_mismatches.front();
  EXPECT_EQ(r.invariant_violations, 0) << "direct boot violated invariants";
  ASSERT_NE(r.snapshot, nullptr);
  // The boot-barrier re-snapshot byte-equals the blob we booted from: the
  // adopted state IS the serialized state.
  EXPECT_EQ(*r.snapshot, *a.snapshot) << "boot re-snapshot drifted";
  // And the continued run is indistinguishable from never having stopped.
  EXPECT_EQ(RunFingerprint(r), want) << "direct boot diverged";
}

TEST(DirectBootTest, ResumesByteIdenticalToFullRun) {
  CheckRestoreEquivalence(RestoreConfig());
}

// Regression (found by the fuzzer's always-on restore oracle, seeds 0/4/6):
// tool-calling scenarios drifted on direct boot — the boot-barrier
// re-snapshot was not byte-identical to the blob.
TEST(DirectBootTest, ToolCallingResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.task = TaskKind::kToolCalling;
  CheckRestoreEquivalence(cfg);
}

TEST(DirectBootTest, ServingTierResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.serving.enabled = true;
  cfg.serving.base_rate_per_sec = 2.0;
  cfg.serving.diurnal_amplitude = 0.6;
  cfg.serving.diurnal_period_seconds = 300.0;
  CheckRestoreEquivalence(cfg);
}

TEST(DirectBootTest, CrashRestartChaosResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.chaos_enabled = true;
  cfg.chaos_seed = 99;
  CheckRestoreEquivalence(cfg);
}

TEST(DirectBootTest, ServingPlusChaosResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.serving.enabled = true;
  cfg.serving.base_rate_per_sec = 2.0;
  cfg.chaos_enabled = true;
  cfg.chaos_seed = 7;
  CheckRestoreEquivalence(cfg);
}

// Regression: ReviveRelay clears a relay's pending arrivals without
// cancelling their events, so the heap can hold an arrival that no pending
// entry names while a later arrival of the same version owns the entry.
// Re-minting the orphan on boot must not overwrite that entry's arrival time
// (the boot re-snapshot drifted in relay_tier/relays). bench_full_system's
// chaos mix at a 120 s barrier, with the seeds that hit it.
TEST(DirectBootTest, OrphanedRelayArrivalResumesByteIdentical) {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.group_size = 8;
  cfg.num_minibatches = 4;
  cfg.max_concurrency = 128;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 3;
  cfg.chaos_enabled = true;
  cfg.chaos.start_seconds = 30.0;
  cfg.chaos.horizon_seconds = 3600.0;
  cfg.chaos.machine_fail_per_hour = 4.0;
  cfg.chaos.relay_fail_per_hour = 8.0;
  cfg.chaos.master_fail_per_hour = 4.0;
  cfg.chaos.trainer_fail_per_hour = 4.0;
  cfg.chaos.machine_stall_per_hour = 60.0;
  cfg.chaos.link_flap_per_hour = 60.0;
  cfg.chaos.replica_slow_per_hour = 20.0;
  cfg.chaos.message_drop_per_hour = 120.0;
  cfg.invariants_enabled = true;
  cfg.seed = 2071678083;
  cfg.chaos_seed = 2115654868;
  CheckRestoreEquivalence(cfg, 120.0);
}

// Regression: snapshot taken INSIDE a machine-stall window. The blob then
// carries a frozen machine (beats stopped, replicas mid-freeze) and a pending
// stall-thaw continuation, and the direct boot must resume the stall exactly
// — same thaw instant, same redirected work, same RNG draw positions in every
// forked stream (a warm start that re-seeded a stream from scratch instead of
// adopting (seed, draws) from the blob would desynchronize every later
// length/score draw and show up here as a fingerprint diff).
TEST(DirectBootTest, SnapshotInsideStallWindowResumesByteIdentical) {
  RlSystemConfig cfg = RestoreConfig();
  SystemReport probe = RunExperiment(cfg);
  ASSERT_GT(probe.simulated_seconds, 60.0);
  double mid = 0.5 * probe.simulated_seconds;
  // Stall window [mid-15, mid+45] brackets the barrier. The stall outlives
  // the miss threshold, so at the barrier the machine is reported dead with a
  // replacement in flight, redirected work is back in the pool, and the
  // now-moot thaw continuation is still pending in the heap — all of which
  // must ride the blob.
  FaultEvent stall{mid - 15.0, FaultKind::kMachineStall, 0, 60.0};

  auto run_scripted = [&stall](const RlSystemConfig& c) {
    auto driver = MakeDriver(c);
    static_cast<LaminarSystem*>(driver.get())->ScheduleFault(stall);
    return driver->Run();
  };

  SystemReport full = run_scripted(cfg);
  EXPECT_GE(full.faults_injected, 1);
  std::string want = RunFingerprint(full);

  RlSystemConfig snapped = cfg;
  snapped.snapshot_at_seconds = mid;
  SystemReport a = run_scripted(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  EXPECT_EQ(RunFingerprint(a), want) << "snapshot perturbed the stalled run";

  // Direct boot. The scripted fault is NOT re-scheduled: it already fired
  // before the barrier, and its thaw rides the blob's event heap.
  RlSystemConfig boot = cfg;
  boot.restore_from = a.snapshot;
  SystemReport r = RunExperiment(boot);
  EXPECT_TRUE(r.restored);
  EXPECT_EQ(r.invariant_violations, 0);
  ASSERT_NE(r.snapshot, nullptr);
  EXPECT_EQ(*r.snapshot, *a.snapshot) << "boot re-snapshot drifted mid-stall";
  EXPECT_EQ(RunFingerprint(r), want) << "direct boot diverged out of the stall";
}

// Minimal continuation client owning one reconstructible PeriodicTask;
// records the sim time of every fire so cadences can be compared across a
// snapshot/adopt boundary.
class TickRecorder : public ContinuationClient {
 public:
  static constexpr uint16_t kTick = 0x7001;

  explicit TickRecorder(Simulator* sim)
      : sim_(sim),
        comp_(ContinuationComponentId(kContFamilySystem, 99)),
        task_(sim, 1.0, comp_, kTick,
              [this] { fires_.push_back(sim_->Now().seconds()); }) {
    sim_->continuations().Register(comp_, this);
  }
  ~TickRecorder() override { sim_->continuations().Unregister(comp_); }

  void Start() { task_.Start(); }
  const std::vector<double>& fires() const { return fires_; }

  void RunContinuation(uint16_t kind, const ContinuationPayload&) override {
    ASSERT_EQ(kind, kTick);
    task_.Fire();
  }
  void RestoreContinuation(uint16_t kind, const ContinuationPayload&,
                           SimTime at) override {
    ASSERT_EQ(kind, kTick);
    task_.RestorePending(at);
  }

 private:
  Simulator* sim_;
  int32_t comp_;
  PeriodicTask task_;
  std::vector<double> fires_;
};

// Regression: a snapshot taken at the barrier immediately after a
// PeriodicTask tick — the smallest representable instant past fire_time —
// must carry the next tick, which the fired tick scheduled from inside its
// own callback. If the heap walk misses it, the blob silently drops every
// periodic driver (heartbeats, repack monitor, serving sweep) whose tick
// coincides with the barrier, and the direct boot goes quiet.
TEST(DirectBootTest, RearmedPeriodicTickSurvivesSnapshotAtBarrier) {
  const double barrier =
      std::nextafter(1.0, std::numeric_limits<double>::infinity());

  Simulator sim;
  TickRecorder rec(&sim);
  rec.Start();
  sim.RunUntil(SimTime(barrier));
  ASSERT_EQ(rec.fires(), std::vector<double>({1.0}));
  ASSERT_EQ(sim.pending_events(), 1u)
      << "re-armed tick not pending before the snapshot";

  SnapshotWriter writer;
  SnapshotTx tx(&writer);
  sim.Snapshot(tx);
  std::string blob = writer.Finish();

  Simulator boot;
  TickRecorder boot_rec(&boot);
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(blob, &error)) << error;
  SnapshotTx adopt(&reader, SnapshotMode::kAdopt);
  boot.Snapshot(adopt);
  ASSERT_TRUE(adopt.mismatches().empty());
  boot.RemintRestoredEvents();
  EXPECT_EQ(boot.pending_events(), 1u) << "re-armed tick dropped on adopt";

  // The adopted heap re-serializes to the exact bytes it was booted from.
  SnapshotWriter rewriter;
  SnapshotTx retx(&rewriter);
  boot.Snapshot(retx);
  EXPECT_EQ(rewriter.Finish(), blob) << "boot re-snapshot drifted";

  // Identical cadence from the barrier on: the restored task fires at 2, 3,
  // 4, 5 exactly as the uninterrupted one does.
  sim.RunUntil(SimTime(5.5));
  boot.RunUntil(SimTime(5.5));
  EXPECT_EQ(rec.fires(), std::vector<double>({1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(boot_rec.fires(), std::vector<double>({2.0, 3.0, 4.0, 5.0}));
}

// Every schedule names a registered component, so an event_heap entry with
// a negative component can only come from a malformed blob: adoption seats
// it, and the re-mint refuses it with a message instead of dispatching it.
TEST(DirectBootDeathTest, RefusesHeapEntryWithoutComponent) {
  std::string entry(48, '\0');       // time key 0, kind 0, zero payload
  entry.replace(8, 4, 4, '\xff');    // component -1
  SnapshotWriter writer;
  writer.BeginSection("sim");
  writer.F64("now", 0.0);
  writer.U64("executed", 0);
  writer.U64("live_events", 1);
  writer.U64("heap_complete", 1);
  writer.Bytes("event_heap", entry);
  writer.EndSection();
  std::string blob = writer.Finish();

  Simulator boot;
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(blob, &error)) << error;
  SnapshotTx adopt(&reader, SnapshotMode::kAdopt);
  boot.Snapshot(adopt);
  ASSERT_TRUE(adopt.mismatches().empty());
  EXPECT_DEATH(boot.RemintRestoredEvents(), "names no component");
}

// Direct boot is Laminar-only: a baseline's blob carries its components but
// not its orchestration state, so the boot refuses it by name before
// adopting a field.
TEST(DirectBootDeathTest, RefusesBaselineDriver) {
  RlSystemConfig cfg = RestoreConfig();
  cfg.system = SystemKind::kPartialRollout;
  cfg.invariants_enabled = false;
  RlSystemConfig snapped = cfg;
  snapped.snapshot_at_seconds = 30.0;
  SystemReport a = RunExperiment(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  RlSystemConfig boot = cfg;
  boot.restore_from = a.snapshot;
  EXPECT_DEATH(RunExperiment(boot), "direct boot supports the Laminar driver only");
}

// Re-emits every record of `blob` under another header version: a blob in
// today's layout whose version says it is older.
std::string Restamp(const std::string& blob, uint32_t version) {
  SnapshotReader reader;
  std::string error;
  EXPECT_TRUE(reader.Parse(blob, &error)) << error;
  SnapshotWriter writer(version);
  for (const SnapshotRecord& r : reader.records()) {
    std::string name(r.name);
    switch (r.kind) {
      case SnapshotRecordKind::kSection: writer.BeginSection(name); break;
      case SnapshotRecordKind::kEndSection: writer.EndSection(); break;
      case SnapshotRecordKind::kU64: writer.U64(name, r.u64); break;
      case SnapshotRecordKind::kI64: writer.I64(name, static_cast<int64_t>(r.u64)); break;
      case SnapshotRecordKind::kF64: writer.F64(name, SnapshotBitsF64(r.u64)); break;
      case SnapshotRecordKind::kBytes: writer.Bytes(name, std::string(r.bytes)); break;
      case SnapshotRecordKind::kEndOfStream: break;
    }
  }
  return writer.Finish();
}

// v3 changed the partial_pool section (ascending-TrajId entries, no bucket
// count, no order digest). An older blob still parses, but it is refused by
// its version: direct boot aborts naming the version before adopting a
// single field, and a verify reports the version instead of diffing fields.
// The fixture carries today's layout, so only the version can refuse it.
TEST(DirectBootTest, RefusesBlobsOlderThanCurrentVersion) {
  RlSystemConfig base = RestoreConfig();
  SystemReport full = RunExperiment(base);
  RlSystemConfig snapped = base;
  snapped.snapshot_at_seconds = 0.5 * full.simulated_seconds;
  SystemReport a = RunExperiment(snapped);
  ASSERT_NE(a.snapshot, nullptr);
  auto old_blob = std::make_shared<const std::string>(Restamp(*a.snapshot, 2));
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(*old_blob, &error)) << error;
  EXPECT_EQ(reader.version(), 2u);

  RlSystemConfig verify = snapped;
  verify.snapshot_verify = old_blob;
  SystemReport v = RunExperiment(verify);
  ASSERT_EQ(v.snapshot_mismatches.size(), 1u);
  EXPECT_NE(v.snapshot_mismatches[0].find("LMSNAP1 v2"), std::string::npos)
      << v.snapshot_mismatches[0];
  EXPECT_EQ(RunFingerprint(v), RunFingerprint(full));

  RlSystemConfig boot = base;
  boot.restore_from = old_blob;
  EXPECT_DEATH(RunExperiment(boot), "restore_from blob is LMSNAP1 v2");
  // The same bytes stamped with the current version boot normally.
  boot.restore_from = std::make_shared<const std::string>(Restamp(*a.snapshot, kSnapshotVersion));
  EXPECT_EQ(*boot.restore_from, *a.snapshot);
  EXPECT_EQ(RunFingerprint(RunExperiment(boot)), RunFingerprint(full));
}

}  // namespace
}  // namespace laminar
