#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/data/experience_buffer.h"
#include "src/data/partial_response_pool.h"
#include "src/data/prompt_pool.h"
#include "src/data/trajectory.h"
#include "src/data/trajectory_digest.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/workload/generator.h"

// Counts every global allocation in this binary, so the hand-off tests below
// can pin paths that must not touch the heap. Both scalar news are replaced
// because both are freed through the replaced delete (sanitizer runtimes
// would otherwise report a new/free mismatch); array new and delete forward
// to the scalar forms by default.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a new
// expression and warns about a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace laminar {
namespace {

template <typename Fn>
int64_t AllocationsDuring(Fn&& fn) {
  int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TrajectoryRecord Rec(TrajId id, int version, int64_t prompt_id = 0) {
  TrajectoryRecord r;
  r.id = id;
  r.prompt_id = prompt_id;
  r.weight_versions = {version};
  r.spec.prompt_tokens = 10;
  r.spec.AppendSegment({100, 0.0, 0});
  return r;
}

TEST(TrajectoryRecordTest, StalenessAndMixedVersionAccessors) {
  TrajectoryRecord r = Rec(1, 3);
  r.finish_actor_version = 5;
  r.consume_actor_version = 7;
  EXPECT_EQ(r.inherent_staleness(), 2);
  EXPECT_EQ(r.consume_staleness(), 4);
  EXPECT_FALSE(r.mixed_version());
  EXPECT_EQ(r.num_versions(), 1);
  r.weight_versions = {3, 3, 4, 5};
  EXPECT_TRUE(r.mixed_version());
  EXPECT_EQ(r.num_versions(), 3);
  EXPECT_EQ(r.generation_version(), 3);
  EXPECT_EQ(r.latest_version(), 5);
}

TEST(TrajectoryWorkTest, ProgressAccessors) {
  TrajectoryWork w;
  w.record = Rec(1, 0);
  w.record.spec.AppendSegment({50, 0.0, 0});
  w.InitContext();
  EXPECT_EQ(w.context_tokens, 10);
  EXPECT_EQ(w.remaining_decode_tokens(), 150);
  w.decoded_in_segment = 40;
  EXPECT_EQ(w.remaining_in_segment(), 60);
  EXPECT_EQ(w.remaining_decode_tokens(), 110);
  w.segment_index = 2;
  EXPECT_TRUE(w.finished());
}

TEST(PromptPoolTest, GroupsShareDifficultyAndPromptId) {
  PromptPool pool(WorkloadGenerator(WorkloadConfig{}, Rng(1)), 16, Rng(2));
  std::vector<TrajectoryWork> group = pool.NextBatch(16, 0, SimTime::Zero());
  ASSERT_EQ(group.size(), 16u);
  for (const TrajectoryWork& w : group) {
    EXPECT_EQ(w.record.prompt_id, group[0].record.prompt_id);
    EXPECT_DOUBLE_EQ(w.record.difficulty, group[0].record.difficulty);
  }
  // Ids are unique and group indices dense.
  for (size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(group[i].record.group_index, static_cast<int>(i));
  }
}

TEST(PromptPoolTest, BatchMustBeWholeGroups) {
  PromptPool pool(WorkloadGenerator(WorkloadConfig{}, Rng(1)), 16, Rng(2));
  auto batch = pool.NextBatch(64, 0, SimTime::Zero());
  EXPECT_EQ(batch.size(), 64u);
  EXPECT_EQ(pool.prompts_issued(), 4);
  EXPECT_DEATH(pool.NextBatch(10, 0, SimTime::Zero()), "whole number");
}

// The record path NextBatch replaced, kept as the reference it must match:
// one prompt's group at a time built as records, then each record converted
// to work. It owns the same two streams PromptPool does.
struct RecordPathPool {
  WorkloadGenerator generator;
  int group_size;
  Rng rng;
  int64_t next_prompt_id = 0;
  TrajId next_traj_id = 0;

  std::vector<TrajectoryRecord> NextGroup(int weight_version) {
    std::vector<TrajectoryRecord> group;
    int64_t prompt_id = next_prompt_id++;
    double difficulty = rng.Uniform();
    for (int g = 0; g < group_size; ++g) {
      TrajectoryRecord rec;
      rec.id = next_traj_id++;
      rec.prompt_id = prompt_id;
      rec.group_index = g;
      rec.difficulty = difficulty;
      rec.spec = generator.Sample(weight_version);
      group.push_back(std::move(rec));
    }
    return group;
  }

  std::vector<TrajectoryWork> NextBatch(int num_trajectories, int weight_version,
                                        SimTime created) {
    std::vector<TrajectoryWork> works;
    for (int i = 0; i < num_trajectories / group_size; ++i) {
      for (TrajectoryRecord& record : NextGroup(weight_version)) {
        record.created = created;
        TrajectoryWork work;
        work.record = std::move(record);
        work.InitContext();
        works.push_back(std::move(work));
      }
    }
    return works;
  }
};

std::string PackedWork(const TrajectoryWork& w) {
  ByteSink s;
  PackWork(s, w);
  return s.Take();
}

void ExpectSameBatch(const std::vector<TrajectoryWork>& got,
                     const std::vector<TrajectoryWork>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const TrajectoryRecord& g = got[i].record;
    const TrajectoryRecord& r = want[i].record;
    ASSERT_EQ(g.id, r.id) << i;
    EXPECT_EQ(g.prompt_id, r.prompt_id) << i;
    EXPECT_EQ(g.group_index, r.group_index) << i;
    EXPECT_EQ(g.difficulty, r.difficulty) << i;
    EXPECT_EQ(g.created, r.created) << i;
    EXPECT_EQ(got[i].context_tokens, want[i].context_tokens) << i;
    // The spec, and every other field, byte for byte.
    EXPECT_EQ(PackedWork(got[i]), PackedWork(want[i])) << i;
  }
}

TEST(PromptPoolTest, InPlaceBatchDrawsExactlyWhatTheRecordPathDrew) {
  for (TaskKind task : {TaskKind::kMathReasoning, TaskKind::kToolCalling}) {
    SCOPED_TRACE(TaskKindName(task));
    WorkloadConfig cfg;
    cfg.task = task;
    cfg.length_drift = true;  // so the weight version reaches the samples
    PromptPool pool(WorkloadGenerator(cfg, Rng(21)), 16, Rng(22));
    RecordPathPool ref{WorkloadGenerator(cfg, Rng(21)), 16, Rng(22)};
    ExpectSameBatch(pool.NextBatch(1024, 0, SimTime::Zero()),
                    ref.NextBatch(1024, 0, SimTime::Zero()));
    ExpectSameBatch(pool.NextBatch(1024, 3, SimTime(41.5)),
                    ref.NextBatch(1024, 3, SimTime(41.5)));
    ExpectSameBatch(pool.NextBatch(16, 4, SimTime(42.0)),
                    ref.NextBatch(16, 4, SimTime(42.0)));
    EXPECT_EQ(pool.prompts_issued(), ref.next_prompt_id);
    EXPECT_EQ(pool.trajectories_issued(), ref.next_traj_id);

    // Mid-sequence, a pool adopted from a snapshot carries on identically.
    SnapshotWriter writer;
    SnapshotTx write_tx(&writer);
    pool.Snapshot(write_tx);
    std::string blob = writer.Finish();
    SnapshotReader reader;
    std::string error;
    ASSERT_TRUE(reader.Parse(blob, &error)) << error;
    PromptPool adopted(WorkloadGenerator(cfg, Rng(99)), 16, Rng(98));
    SnapshotTx adopt_tx(&reader, SnapshotMode::kAdopt);
    adopted.Snapshot(adopt_tx);
    ASSERT_TRUE(adopt_tx.ok()) << adopt_tx.mismatches().front();
    ExpectSameBatch(adopted.NextBatch(1024, 5, SimTime(60.0)),
                    ref.NextBatch(1024, 5, SimTime(60.0)));
  }
}

TEST(ExperienceBufferTest, FifoSamplesOldestFirst) {
  ExperienceBuffer buf(MakeFifoSampler());
  for (int i = 0; i < 10; ++i) {
    buf.Push(Rec(i, i));
  }
  EXPECT_TRUE(buf.CanSample(10));
  auto batch = buf.Sample(3, 10);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[2].id, 2);
  EXPECT_EQ(buf.size(), 7u);
  // Consume version stamped.
  EXPECT_EQ(batch[0].consume_actor_version, 10);
}

TEST(ExperienceBufferTest, FreshnessSamplerPrefersNewVersions) {
  ExperienceBuffer buf(MakeFreshnessSampler());
  buf.Push(Rec(0, 1));
  buf.Push(Rec(1, 5));
  buf.Push(Rec(2, 3));
  auto batch = buf.Sample(2, 6);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, StalenessCappedSkipsStaleWhenPossible) {
  ExperienceBuffer buf(MakeStalenessCappedSampler(2));
  buf.Push(Rec(0, 0));  // staleness 10 at version 10
  buf.Push(Rec(1, 9));
  buf.Push(Rec(2, 10));
  auto batch = buf.Sample(2, 10);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, StalenessCappedFallsBackWhenStarved) {
  ExperienceBuffer buf(MakeStalenessCappedSampler(2));
  buf.Push(Rec(0, 0));
  buf.Push(Rec(1, 0));
  auto batch = buf.Sample(2, 10);  // all stale; must still fill
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ExperienceBufferTest, StalenessCappedFallbackPrefersLeastStale) {
  // Regression: the fallback used to fill from the lowest buffer index — the
  // oldest, most-stale data — instead of the least-stale over-bound records.
  ExperienceBuffer buf(MakeStalenessCappedSampler(2));
  buf.Push(Rec(0, 0));   // staleness 10 at actor version 10
  buf.Push(Rec(1, 5));   // staleness 5
  buf.Push(Rec(2, 9));   // staleness 1: within bound
  auto batch = buf.Sample(2, 10);
  ASSERT_EQ(batch.size(), 2u);
  // One fresh record plus the least-stale fallback (id 1, not id 0).
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, StalenessCappedFallbackScansWholeBuffer) {
  // The least-stale over-bound record may sit anywhere in the buffer, so the
  // classification pass must consider every record (no early exit) before the
  // fallback ranks the over-bound ones.
  ExperienceBuffer buf(MakeStalenessCappedSampler(1));
  buf.Push(Rec(0, 0));   // staleness 10
  buf.Push(Rec(1, 10));  // fresh
  buf.Push(Rec(2, 3));   // staleness 7
  buf.Push(Rec(3, 8));   // staleness 2: least stale of the over-bound, last
  auto batch = buf.Sample(2, 10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1);
  EXPECT_EQ(batch[1].id, 3);
}

TEST(ExperienceBufferTest, DropOldestEviction) {
  ExperienceBuffer buf(MakeFifoSampler(), 3, EvictionPolicy::kDropOldest);
  for (int i = 0; i < 5; ++i) {
    buf.Push(Rec(i, i));
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.total_evicted(), 2);
  auto batch = buf.Sample(1, 5);
  EXPECT_EQ(batch[0].id, 2);
}

TEST(ExperienceBufferTest, DropStalestEviction) {
  ExperienceBuffer buf(MakeFifoSampler(), 2, EvictionPolicy::kDropStalest);
  buf.Push(Rec(0, 7));
  buf.Push(Rec(1, 2));
  buf.Push(Rec(2, 9));  // evicts id 1 (version 2)
  auto batch = buf.Sample(2, 9);
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[1].id, 2);
}

TEST(ExperienceBufferTest, CountsTokens) {
  ExperienceBuffer buf(MakeFifoSampler());
  buf.Push(Rec(0, 0));
  EXPECT_EQ(buf.total_tokens_pushed(), 110);
}

TEST(PartialResponsePoolTest, UpdateRemoveAndTakeByReplica) {
  PartialResponsePool pool;
  TrajectoryWork w1;
  w1.record = Rec(1, 0);
  w1.InitContext();
  w1.context_tokens = 500;
  w1.kv_resident = true;
  TrajectoryWork w2;
  w2.record = Rec(2, 0);
  w2.InitContext();
  pool.Update(w1, /*owner=*/3);
  pool.Update(w2, /*owner=*/4);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.total_context_tokens(), 510);

  auto lost = pool.TakeByReplica(3);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].record.id, 1);
  // The cache died with the machine.
  EXPECT_FALSE(lost[0].kv_resident);
  EXPECT_EQ(pool.size(), 1u);

  EXPECT_TRUE(pool.Contains(2));
  EXPECT_TRUE(pool.MarkCompleted(2));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.MarkCompleted(2));
  EXPECT_EQ(pool.size(), 0u);
}

TEST(PartialResponsePoolTest, UpdateOverwritesProgress) {
  PartialResponsePool pool;
  TrajectoryWork w;
  w.record = Rec(1, 0);
  w.InitContext();
  pool.Update(w, 0);
  w.decoded_in_segment = 42;
  pool.Update(w, 0);
  auto got = pool.TakeByReplica(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].decoded_in_segment, 42);
  EXPECT_EQ(pool.updates(), 2);
}

TEST(PartialResponsePoolTest, RemoveOfMissingIdStillTombstones) {
  PartialResponsePool pool;
  // A trajectory that finished without ever checkpointing has no live entry,
  // but its completion must still enter the terminal ledger.
  EXPECT_FALSE(pool.Contains(7));
  EXPECT_TRUE(pool.MarkCompleted(7));
  EXPECT_TRUE(pool.IsTerminal(7));
  EXPECT_EQ(pool.completed(), 1);
  // ...so a late Update from a stale owner cannot resurrect it.
  TrajectoryWork w;
  w.record = Rec(7, 0);
  w.InitContext();
  EXPECT_FALSE(pool.Update(w, /*owner=*/0));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.stale_updates(), 1);
}

// Found by the scenario fuzzer (tests/corpus/env_boundary_restore.scenario):
// FinishSegment checkpoints a trajectory when it enters its sandbox call, at
// which point the current segment is fully decoded but not yet advanced. If
// the hosting machine then dies, restoring that checkpoint verbatim hands
// AssignWork a trajectory with remaining_in_segment() == 0, which trips the
// replica's progress check. The restore must resolve the env interaction the
// same way ExtractAllWork does: append the feedback, advance the segment.
TEST(PartialResponsePoolTest, RestoreResolvesEnvBoundaryCheckpoint) {
  PartialResponsePool pool;
  TrajectoryWork w;
  w.record = Rec(1, 0);
  w.record.spec.prompt_tokens = 10;
  w.record.spec.ClearSegments();
  w.record.spec.AppendSegment({/*decode=*/100, /*env_latency=*/3.0, /*feedback=*/64});
  w.record.spec.AppendSegment({/*decode=*/50, 0.0, 0});
  w.InitContext();
  w.context_tokens = 110;     // prompt + the fully decoded first segment
  w.decoded_in_segment = 100; // at the env boundary: remaining_in_segment() == 0
  w.kv_resident = true;
  pool.Update(w, /*owner=*/0);

  auto restored = pool.TakeByReplica(0);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].segment_index, 1);
  EXPECT_EQ(restored[0].decoded_in_segment, 0);
  EXPECT_EQ(restored[0].remaining_in_segment(), 50);
  // Sandbox output joined the context and must be re-prefilled with the rest.
  EXPECT_EQ(restored[0].context_tokens, 110 + 64);
  EXPECT_FALSE(restored[0].kv_resident);

  // A mid-segment checkpoint is restored untouched.
  TrajectoryWork mid;
  mid.record = Rec(2, 0);
  mid.record.spec.prompt_tokens = 10;
  mid.record.spec.ClearSegments();
  mid.record.spec.AppendSegment({100, 3.0, 64});
  mid.record.spec.AppendSegment({50, 0.0, 0});
  mid.InitContext();
  mid.context_tokens = 40;
  mid.decoded_in_segment = 30;
  pool.Update(mid, /*owner=*/0);
  auto untouched = pool.TakeByReplica(0);
  ASSERT_EQ(untouched.size(), 1u);
  EXPECT_EQ(untouched[0].segment_index, 0);
  EXPECT_EQ(untouched[0].decoded_in_segment, 30);
  EXPECT_EQ(untouched[0].context_tokens, 40);
}

TEST(PartialResponsePoolTest, TakeByReplicaWithNoMatchingEntries) {
  PartialResponsePool pool;
  EXPECT_TRUE(pool.TakeByReplica(3).empty());
  TrajectoryWork w;
  w.record = Rec(1, 0);
  w.InitContext();
  pool.Update(w, /*owner=*/2);
  // The wrong owner's take leaves other replicas' entries untouched.
  EXPECT_TRUE(pool.TakeByReplica(3).empty());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(1));
}

TEST(PartialResponsePoolTest, ReUpdateByNewOwnerMovesOwnership) {
  PartialResponsePool pool;
  TrajectoryWork w;
  w.record = Rec(1, 0);
  w.InitContext();
  pool.Update(w, /*owner=*/1);

  // Migration: the manager takes the work off the failed owner and the new
  // host checkpoints it under its own id.
  auto taken = pool.TakeByReplica(1);
  ASSERT_EQ(taken.size(), 1u);
  taken[0].decoded_in_segment = 17;
  EXPECT_TRUE(pool.Update(taken[0], /*owner=*/2));

  // The old owner can no longer see (or steal back) the trajectory.
  EXPECT_TRUE(pool.TakeByReplica(1).empty());
  auto moved = pool.TakeByReplica(2);
  ASSERT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved[0].record.id, 1);
  EXPECT_EQ(moved[0].decoded_in_segment, 17);
}

TEST(PartialResponsePoolTest, TerminalLedgerSuppressesDuplicates) {
  PartialResponsePool pool;
  TrajectoryWork w;
  w.record = Rec(1, 0);
  w.InitContext();
  pool.Update(w, 0);

  EXPECT_TRUE(pool.MarkCompleted(1));
  // Duplicate completion (e.g. a drained replica racing its migrated clone).
  EXPECT_FALSE(pool.MarkCompleted(1));
  EXPECT_EQ(pool.completed(), 1);
  EXPECT_EQ(pool.duplicate_completions(), 1);
  // A drop after completion is also suppressed: the outcome already happened.
  EXPECT_FALSE(pool.MarkDropped(1));
  EXPECT_EQ(pool.dropped(), 0);

  // Drop-first ordering works the same way.
  EXPECT_TRUE(pool.MarkDropped(2));
  EXPECT_FALSE(pool.MarkCompleted(2));
  EXPECT_EQ(pool.dropped(), 1);
  EXPECT_EQ(pool.completed(), 1);
  EXPECT_TRUE(pool.IsTerminal(2));
}

TEST(PartialResponsePoolTest, ContextTokenTotalsTrackTakesAndCompletions) {
  PartialResponsePool pool;
  auto add = [&](TrajId id, int64_t tokens, int owner) {
    TrajectoryWork w;
    w.record = Rec(id, 0);
    w.InitContext();
    w.context_tokens = tokens;
    pool.Update(w, owner);
  };
  add(1, 500, /*owner=*/1);
  add(2, 300, /*owner=*/1);
  add(3, 200, /*owner=*/2);
  EXPECT_EQ(pool.total_context_tokens(), 1000);

  int64_t taken_tokens = 0;
  for (const TrajectoryWork& w : pool.TakeByReplica(1)) {
    taken_tokens += w.context_tokens;
  }
  EXPECT_EQ(taken_tokens, 800);
  EXPECT_EQ(pool.total_context_tokens(), 200);

  pool.MarkCompleted(3);
  EXPECT_EQ(pool.total_context_tokens(), 0);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(PartialResponsePoolTest, ServingAndNegativeIdsNeverIndexTheDenseArrays) {
  PartialResponsePool pool;
  EXPECT_FALSE(pool.Contains(kServingIdBase));
  EXPECT_FALSE(pool.IsTerminal(kServingIdBase));
  EXPECT_FALSE(pool.Contains(-1));
  EXPECT_FALSE(pool.IsTerminal(-1));
  TrajectoryWork serving;
  serving.record = Rec(kServingIdBase, 0);
  serving.InitContext();
  // Each mutator refuses the id before sizing its per-id arrays: a serving
  // id would otherwise resize them to 2^40 entries.
  EXPECT_DEATH(pool.Update(serving, /*owner=*/0), "outside the rollout id range");
  EXPECT_DEATH(pool.MarkCompleted(kServingIdBase), "outside the rollout id range");
  EXPECT_DEATH(pool.MarkDropped(-1), "outside the rollout id range");
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.updates(), 0);
}

// Recovery order is ascending TrajId, and a direct boot recovers the same
// sequence. A seeded history of every mutator runs against an ordered
// reference model; halfway through, the pool's snapshot section is adopted
// into a fresh pool, and both pools must then recover identical work.
TEST(PartialResponsePoolTest, RecoveryOrderIsAscendingAndSurvivesAdoption) {
  std::mt19937_64 rng(0xC0FFEE);
  std::vector<std::array<int64_t, 3>> ops(6000);  // (choice, id, owner)
  for (size_t i = 0; i < ops.size(); ++i) {
    // Ids come from a window that widens as PromptPool keeps issuing them.
    ops[i] = {static_cast<int64_t>(rng() % 100), static_cast<int64_t>(rng() % (50 + i / 2)),
              static_cast<int64_t>(rng() % 4)};
  }
  // Applies op `i` to `pool`; returns the ids a take recovered.
  auto apply = [&ops](PartialResponsePool& pool, size_t i) {
    auto [choice, id, owner] = ops[i];
    std::vector<TrajId> taken;
    if (choice < 70) {
      TrajectoryWork w;
      w.record = Rec(id, 0);
      w.InitContext();
      pool.Update(w, static_cast<int>(owner));
    } else if (choice < 84) {
      pool.MarkCompleted(id);
    } else if (choice < 98) {
      pool.MarkDropped(id);
    } else {
      for (const TrajectoryWork& w : pool.TakeByReplica(static_cast<int>(owner))) {
        taken.push_back(w.record.id);
      }
    }
    return taken;
  };

  PartialResponsePool live;
  std::map<TrajId, int64_t> model;  // live id -> owner
  std::set<TrajId> terminal;
  size_t recovered = 0;
  for (size_t i = 0; i < 3000; ++i) {
    auto [choice, id, owner] = ops[i];
    std::vector<TrajId> want;
    if (choice < 70) {
      if (terminal.count(id) == 0) {
        model[id] = owner;
      }
    } else if (choice < 98) {
      model.erase(id);
      terminal.insert(id);
    } else {
      for (auto [live_id, live_owner] : model) {
        if (live_owner == owner) {
          want.push_back(live_id);
        }
      }
      std::erase_if(model, [owner = owner](const auto& kv) { return kv.second == owner; });
    }
    std::vector<TrajId> got = apply(live, i);
    ASSERT_EQ(got, want) << "op " << i;
    recovered += got.size();
  }
  ASSERT_GT(recovered, 300u);
  ASSERT_EQ(live.size(), model.size());
  ASSERT_GT(live.size(), 10u);

  SnapshotWriter writer;
  SnapshotTx write_tx(&writer);
  live.Snapshot(write_tx);
  std::string blob = writer.Finish();
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(blob, &error)) << error;
  PartialResponsePool adopted;
  SnapshotTx adopt_tx(&reader, SnapshotMode::kAdopt);
  adopted.Snapshot(adopt_tx);
  ASSERT_TRUE(adopt_tx.ok()) << adopt_tx.mismatches().front();
  // The adopted pool re-serializes to the same bytes...
  SnapshotWriter rewriter;
  SnapshotTx rewrite_tx(&rewriter);
  adopted.Snapshot(rewrite_tx);
  EXPECT_EQ(rewriter.Finish(), blob);
  // ...and recovers exactly what the original does from here on.
  for (size_t i = 3000; i < ops.size(); ++i) {
    ASSERT_EQ(apply(adopted, i), apply(live, i)) << "op " << i;
  }
  EXPECT_EQ(adopted.size(), live.size());
  EXPECT_EQ(adopted.updates(), live.updates());
  EXPECT_EQ(adopted.completed(), live.completed());
  EXPECT_EQ(adopted.dropped(), live.dropped());
  EXPECT_EQ(adopted.stale_updates(), live.stale_updates());
}

// ---- Trajectory hand-off: heap-free copies, byte-stable encodings ----------

TEST(HandoffTest, SingleVersionWorkCopiesWithoutAllocating) {
  TrajectoryWork w;
  w.record = Rec(7, 3);
  w.InitContext();
  TrajectoryWork multi = w;
  multi.record.spec.AppendSegment({50, 1.5, 64});
  TrajectoryWork assigned;
  assigned.record = Rec(8, 1);
  TrajectoryWork assigned_multi;
  int64_t n = AllocationsDuring([&] {
    TrajectoryWork copy(w);
    assigned = copy;
    TrajectoryWork moved(std::move(copy));
    assigned.context_tokens += moved.context_tokens;
    assigned_multi = multi;
  });
  EXPECT_EQ(n, 0);
  EXPECT_EQ(assigned.record.id, 7);
  EXPECT_EQ(assigned.record.generation_version(), 3);
  // One segment lives inline: the copy holds an equal segment of its own.
  ASSERT_EQ(assigned.record.spec.num_segments(), 1u);
  EXPECT_EQ(assigned.record.spec.segments()[0].decode_tokens,
            w.record.spec.segments()[0].decode_tokens);
  EXPECT_NE(assigned.record.spec.segments().data(), w.record.spec.segments().data());
  // Two or more share one store.
  ASSERT_EQ(assigned_multi.record.spec.num_segments(), 2u);
  EXPECT_EQ(assigned_multi.record.spec.segments().data(),
            multi.record.spec.segments().data());
}

TEST(HandoffTest, PoolUpdateIntoReusedSlotAllocatesNothing) {
  PartialResponsePool pool;
  TrajectoryWork first;
  first.record = Rec(5, 0);
  first.InitContext();
  TrajectoryWork second;
  second.record = Rec(2, 0);
  second.InitContext();
  pool.Update(first, /*owner=*/1);
  pool.MarkCompleted(5);
  // Id 2 fits the per-id arrays id 5 sized, and reuses id 5's slot.
  EXPECT_EQ(AllocationsDuring([&] { pool.Update(second, /*owner=*/1); }), 0);
  EXPECT_EQ(AllocationsDuring([&] { pool.Update(second, /*owner=*/2); }), 0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.Contains(2));
}

TEST(HandoffTest, GeneratorSampleAllocatesOnlyForMultiTurnSpecs) {
  for (TaskKind task : {TaskKind::kMathReasoning, TaskKind::kToolCalling}) {
    WorkloadConfig cfg;
    cfg.task = task;
    WorkloadGenerator gen(cfg, Rng(11));
    TrajectorySpec spec;
    size_t max_turns = 0;
    int one_turn = 0;
    for (int i = 0; i < 64; ++i) {
      int64_t n = AllocationsDuring([&] { spec = gen.Sample(0); });
      EXPECT_EQ(n, spec.num_segments() > 1 ? 1 : 0) << TaskKindName(task);
      max_turns = std::max(max_turns, spec.num_segments());
      one_turn += spec.num_segments() == 1 ? 1 : 0;
    }
    EXPECT_EQ(max_turns > 1, task == TaskKind::kToolCalling);
    EXPECT_GT(one_turn, 0);
  }
}

TEST(HandoffTest, NextBatchAllocatesOnceAndOncePerMultiTurnSpec) {
  for (TaskKind task : {TaskKind::kMathReasoning, TaskKind::kToolCalling}) {
    WorkloadConfig cfg;
    cfg.task = task;
    PromptPool pool(WorkloadGenerator(cfg, Rng(13)), 16, Rng(14));
    std::vector<TrajectoryWork> batch;
    int64_t n = AllocationsDuring([&] { batch = pool.NextBatch(1024, 0, SimTime::Zero()); });
    ASSERT_EQ(batch.size(), 1024u);
    int64_t multi_turn = std::ranges::count_if(
        batch, [](const TrajectoryWork& w) { return w.record.spec.num_segments() > 1; });
    EXPECT_EQ(n, 1 + multi_turn) << TaskKindName(task);
    EXPECT_EQ(multi_turn > 0, task == TaskKind::kToolCalling);
  }
}

// The LMSNAP1 work encoding and the record digest, written field by field
// from std::vector containers: the reference the inline version list and the
// one-allocation segment store must reproduce byte for byte.
std::string ReferenceWorkBytes(const TrajectoryWork& w, const std::vector<int>& versions,
                               const std::vector<TrajectorySegment>& segments) {
  const TrajectoryRecord& r = w.record;
  ByteSink s;
  s.I64(r.id);
  s.I64(r.prompt_id);
  s.I32(r.group_index);
  s.I64(r.spec.prompt_tokens);
  s.U64(segments.size());
  for (const TrajectorySegment& seg : segments) {
    s.I64(seg.decode_tokens);
    s.F64(seg.env_latency);
    s.I64(seg.feedback_tokens);
  }
  s.U64(versions.size());
  for (int v : versions) {
    s.I32(v);
  }
  s.F64(r.reward);
  s.F64(r.behavior_prob);
  s.F64(r.difficulty);
  s.Bool(r.success);
  s.Time(r.created);
  s.Time(r.finished);
  s.I32(r.finish_actor_version);
  s.I32(r.consume_actor_version);
  s.I32(w.segment_index);
  s.I64(w.decoded_in_segment);
  s.I64(w.context_tokens);
  s.Bool(w.kv_resident);
  return s.Take();
}

uint64_t ReferenceDigest(const TrajectoryRecord& r, const std::vector<int>& versions,
                         const std::vector<TrajectorySegment>& segments) {
  uint64_t h = SnapshotFoldI64(0x5EED, r.id);
  h = SnapshotFoldI64(h, r.prompt_id);
  h = SnapshotFoldI64(h, r.group_index);
  h = SnapshotFoldI64(h, r.spec.prompt_tokens);
  h = SnapshotFoldU64(h, segments.size());
  for (const TrajectorySegment& seg : segments) {
    h = SnapshotFoldI64(h, seg.decode_tokens);
    h = SnapshotFoldF64(h, seg.env_latency);
    h = SnapshotFoldI64(h, seg.feedback_tokens);
  }
  h = SnapshotFoldU64(h, versions.size());
  for (int v : versions) {
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

TEST(HandoffTest, RecordsRoundTripByteIdenticalToVectorReference) {
  WorkloadConfig tool;
  tool.task = TaskKind::kToolCalling;
  WorkloadGenerator gen(tool, Rng(5));
  TrajectorySpec multi = gen.Sample(0);
  while (multi.num_segments() < 3) {
    multi = gen.Sample(0);
  }
  struct Case {
    std::vector<int> versions;
    TrajectorySpec spec;
  };
  TrajectorySpec single;
  single.prompt_tokens = 77;
  single.AppendSegment({900, 0.0, 0});
  std::vector<int> spilled = {5, 4, 5};
  while (spilled.size() <= VersionList::kInlineCapacity) {
    spilled.push_back(static_cast<int>(spilled.size()) + 3);
  }
  for (const Case& c : {Case{{5, 4, 5}, single}, Case{spilled, single}, Case{{2, 3}, multi}}) {
    TrajectoryWork w;
    w.record.id = 41;
    w.record.prompt_id = 9;
    w.record.group_index = 3;
    w.record.spec = c.spec;
    for (int v : c.versions) {
      w.record.weight_versions.push_back(v);
    }
    w.record.reward = 1.0;
    w.record.behavior_prob = 0.25;
    w.record.difficulty = 0.625;
    w.record.created = SimTime(12.5);
    w.record.finish_actor_version = 6;
    w.InitContext();
    w.decoded_in_segment = 1;
    w.context_tokens += 1;
    std::vector<TrajectorySegment> segments(c.spec.segments().begin(),
                                            c.spec.segments().end());
    const std::string want = ReferenceWorkBytes(w, c.versions, segments);
    const uint64_t want_digest = ReferenceDigest(w.record, c.versions, segments);
    EXPECT_EQ(PackedWork(w), want);

    TrajectoryWork copied = w;
    EXPECT_EQ(PackedWork(copied), want);
    TrajectoryWork assigned;
    assigned.record = Rec(1, 0);
    assigned = copied;
    EXPECT_EQ(PackedWork(assigned), want);
    TrajectoryWork moved = std::move(copied);
    EXPECT_EQ(PackedWork(moved), want);
    EXPECT_TRUE(copied.record.weight_versions.empty());

    PartialResponsePool pool;
    pool.Update(moved, /*owner=*/4);
    std::vector<TrajectoryWork> taken = pool.TakeByReplica(4);
    ASSERT_EQ(taken.size(), 1u);
    EXPECT_EQ(PackedWork(taken[0]), want);  // kv_resident was already false

    ByteSink sink;
    PackWork(sink, taken[0]);
    std::string bytes = sink.Take();
    ByteSource source(bytes);
    TrajectoryWork unpacked = UnpackWork(source);
    EXPECT_TRUE(source.AtEnd());
    EXPECT_EQ(PackedWork(unpacked), want);
    EXPECT_EQ(TrajectoryRecordDigest(unpacked.record, 0x5EED), want_digest);
    EXPECT_EQ(TrajectoryRecordDigest(w.record, 0x5EED), want_digest);
  }
}

TEST(HandoffTest, AppendingToACopiedSpecLeavesTheOriginalUntouched) {
  TrajectorySpec original;
  original.AppendSegment({10, 1.5, 64});
  original.AppendSegment({20, 0.0, 0});
  TrajectorySpec copy = original;
  EXPECT_EQ(copy.segments().data(), original.segments().data());  // shared store
  copy.AppendSegment({30, 0.0, 0});
  ASSERT_EQ(original.num_segments(), 2u);
  EXPECT_EQ(original.segments()[0].feedback_tokens, 64);
  EXPECT_EQ(original.segments()[1].decode_tokens, 20);
  EXPECT_EQ(original.total_decode_tokens(), 30);
  ASSERT_EQ(copy.num_segments(), 3u);
  EXPECT_EQ(copy.total_decode_tokens(), 60);
  copy.ClearSegments();
  EXPECT_EQ(copy.num_segments(), 0u);
  EXPECT_EQ(original.num_segments(), 2u);
}

TEST(HandoffTest, ReleasedSlotNeverShowsItsPreviousTenant) {
  PartialResponsePool pool;
  auto work = [](TrajId id, int64_t tokens) {
    TrajectoryWork w;
    w.record = Rec(id, 0);
    w.InitContext();
    w.context_tokens = tokens;
    return w;
  };
  pool.Update(work(1, 1000), /*owner=*/7);
  pool.MarkCompleted(1);                     // frees slot 0, payload left in place
  pool.Update(work(2, 30), /*owner=*/8);     // reuses slot 0
  pool.Update(work(3, 50), /*owner=*/7);     // new slot 1
  pool.MarkDropped(3);                       // frees slot 1, payload left in place
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.total_context_tokens(), 30);
  EXPECT_TRUE(pool.TakeByReplica(7).empty());

  SnapshotWriter writer;
  SnapshotTx write_tx(&writer);
  pool.Snapshot(write_tx);
  std::string blob = writer.Finish();
  SnapshotReader reader;
  std::string error;
  ASSERT_TRUE(reader.Parse(blob, &error)) << error;
  PartialResponsePool adopted;
  SnapshotTx adopt_tx(&reader, SnapshotMode::kAdopt);
  adopted.Snapshot(adopt_tx);
  ASSERT_TRUE(adopt_tx.ok()) << adopt_tx.mismatches().front();
  EXPECT_EQ(adopted.size(), 1u);
  EXPECT_EQ(adopted.total_context_tokens(), 30);
  EXPECT_TRUE(adopted.TakeByReplica(7).empty());

  std::vector<TrajectoryWork> taken = pool.TakeByReplica(8);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].record.id, 2);
  EXPECT_EQ(taken[0].context_tokens, 30);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.total_context_tokens(), 0);
}

}  // namespace
}  // namespace laminar
