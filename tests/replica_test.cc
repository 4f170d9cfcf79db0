#include "src/rollout/replica.h"

#include <gtest/gtest.h>

#include "src/cluster/hardware.h"
#include "src/common/rng.h"
#include "src/data/prompt_pool.h"
#include "src/llm/model_spec.h"
#include "src/sim/simulator.h"
#include "src/workload/generator.h"

namespace laminar {
namespace {

std::vector<TrajectoryWork> MakeWorks(PromptPool& pool, int n) {
  return pool.NextBatch(n, 0, SimTime::Zero());
}

// One decode segment of `decode_tokens` after a `prompt_tokens` prompt, no
// env call. Ids at or above kServingIdBase make it a serving request.
TrajectoryWork SingleSegmentWork(TrajId id, int64_t prompt_tokens, int64_t decode_tokens) {
  TrajectoryWork w;
  w.record.id = id;
  w.record.spec.prompt_tokens = prompt_tokens;
  w.record.spec.AppendSegment({decode_tokens, 0.0, 0});
  w.InitContext();
  return w;
}

std::vector<TrajId> Ids(const std::vector<TrajectoryWork>& works) {
  std::vector<TrajId> ids;
  for (const TrajectoryWork& w : works) {
    ids.push_back(w.record.id);
  }
  return ids;
}

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest()
      : decode_(Qwen25_7B(), MachineSpec{}, 1),
        pool_(WorkloadGenerator(WorkloadConfig{}, Rng(7)), 16, Rng(9)) {}

  RolloutReplica MakeReplica(int max_concurrency = 1024, int id = 0) {
    ReplicaConfig rc;
    rc.id = id;
    rc.max_concurrency = max_concurrency;
    return RolloutReplica(&sim_, rc, decode_, decode_.KvCapacityTokens());
  }

  Simulator sim_;
  DecodeModel decode_;
  PromptPool pool_;
};

TEST_F(ReplicaTest, CompletesAllAssignedWork) {
  RolloutReplica replica = MakeReplica();
  int completed = 0;
  int64_t decode_tokens_expected = 0;
  replica.set_on_complete([&](TrajectoryRecord rec) {
    ++completed;
    EXPECT_EQ(rec.weight_versions.size(), 1u);
    EXPECT_TRUE(rec.finished > SimTime::Zero());
  });
  bool batch_done = false;
  replica.set_on_batch_done([&](RolloutReplica*) { batch_done = true; });

  auto works = MakeWorks(pool_, 64);
  for (const auto& w : works) {
    decode_tokens_expected += w.record.spec.total_decode_tokens();
  }
  replica.AssignWork(std::move(works));
  sim_.RunUntilIdle();

  EXPECT_EQ(completed, 64);
  EXPECT_TRUE(batch_done);
  EXPECT_EQ(replica.phase(), ReplicaPhase::kIdle);
  EXPECT_EQ(replica.num_reqs(), 0);
  // Every decode token was produced exactly once.
  EXPECT_EQ(replica.metrics().decode_tokens, decode_tokens_expected);
  // KVCache accounting returns to zero when the replica drains.
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
}

// A one-segment spec keeps its segment inline, inside the work that moves
// into the env entry: the sandbox wait must still be the segment's own.
TEST_F(ReplicaTest, OneSegmentEnvCallRejoinsAfterItsLatency) {
  RolloutReplica replica = MakeReplica();
  TrajectoryWork w;
  w.record.id = 3;
  w.record.spec.prompt_tokens = 200;
  w.record.spec.AppendSegment({/*decode=*/40, /*env_latency=*/2.75, /*feedback=*/96});
  w.InitContext();
  SimTime boundary_at = SimTime::Max();
  replica.set_on_progress([&](const TrajectoryWork& p, int) {
    if (p.remaining_in_segment() == 0) {
      boundary_at = sim_.Now();
    }
  });
  std::vector<TrajectoryRecord> done;
  replica.set_on_complete([&](TrajectoryRecord rec) { done.push_back(std::move(rec)); });
  replica.AssignWork({w});
  sim_.RunUntilIdle();

  ASSERT_EQ(done.size(), 1u);
  ASSERT_TRUE(boundary_at.is_finite());
  // It rejoins, and with no segment left completes, exactly one env latency
  // after its decode boundary.
  EXPECT_EQ(done[0].finished, boundary_at + 2.75);
  // The prompt on admission, then the sandbox feedback on rejoin.
  EXPECT_EQ(replica.metrics().prefill_tokens, 200 + 96);
  EXPECT_EQ(replica.metrics().decode_tokens, 40);
  EXPECT_EQ(done[0].total_tokens(), 200 + 40 + 96);
  EXPECT_EQ(replica.num_reqs(), 0);
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
}

TEST_F(ReplicaTest, LargeBatchDrainsAndKvReturnsToZero) {
  RolloutReplica replica = MakeReplica(1024);
  int completed = 0;
  replica.set_on_complete([&](TrajectoryRecord) { ++completed; });
  replica.AssignWork(MakeWorks(pool_, 1024));
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 1024);
  EXPECT_EQ(replica.num_reqs(), 0);
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
  EXPECT_EQ(replica.phase(), ReplicaPhase::kIdle);
}

TEST_F(ReplicaTest, KvUtilizationStaysWithinCapacity) {
  RolloutReplica replica = MakeReplica(1024);
  replica.set_on_complete([](TrajectoryRecord) {});
  replica.AssignWork(MakeWorks(pool_, 512));
  // Step through and check the invariant after every event.
  while (sim_.Step()) {
    EXPECT_LE(replica.kv_used_tokens(), replica.kv_capacity_tokens() + 1e-6);
    EXPECT_GE(replica.kv_used_tokens(), -1e-6);
  }
}

TEST_F(ReplicaTest, PauseResumePreservesWork) {
  RolloutReplica replica = MakeReplica();
  int completed = 0;
  replica.set_on_complete([&](TrajectoryRecord) { ++completed; });
  replica.AssignWork(MakeWorks(pool_, 32));
  sim_.RunUntil(SimTime(5.0));
  replica.Pause();
  EXPECT_EQ(replica.phase(), ReplicaPhase::kPaused);
  int64_t tokens_at_pause = replica.metrics().decode_tokens;
  // Nothing advances while paused.
  sim_.RunUntil(SimTime(50.0));
  EXPECT_EQ(replica.metrics().decode_tokens, tokens_at_pause);
  replica.Resume();
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 32);
}

TEST_F(ReplicaTest, PartialRolloutResumeStampsNewVersion) {
  RolloutReplica replica = MakeReplica();
  std::vector<TrajectoryRecord> done;
  replica.set_on_complete([&](TrajectoryRecord rec) { done.push_back(rec); });
  replica.AssignWork(MakeWorks(pool_, 32));
  sim_.RunUntil(SimTime(5.0));
  replica.Pause();
  replica.Resume(/*new_version=*/3, /*recompute_kv=*/true);
  EXPECT_EQ(replica.weight_version(), 3);
  sim_.RunUntilIdle();
  ASSERT_EQ(done.size(), 32u);
  int mixed = 0;
  for (const auto& rec : done) {
    if (rec.mixed_version()) {
      ++mixed;
    }
  }
  // Everything still decoding at the resume point became mixed-version.
  EXPECT_GT(mixed, 0);
}

TEST_F(ReplicaTest, ExtractAllWorkEmptiesReplica) {
  RolloutReplica replica = MakeReplica();
  replica.set_on_complete([](TrajectoryRecord) {});
  replica.AssignWork(MakeWorks(pool_, 64));
  sim_.RunUntil(SimTime(10.0));
  int before = replica.num_reqs();
  EXPECT_GT(before, 0);
  auto works = replica.ExtractAllWork();
  EXPECT_EQ(static_cast<int>(works.size()), before);
  EXPECT_EQ(replica.num_reqs(), 0);
  EXPECT_NEAR(replica.kv_used_tokens(), 0.0, 1e-6);
  EXPECT_FALSE(replica.busy());
  // Progress must be preserved: some decoded tokens exist.
  int64_t decoded = 0;
  for (const auto& w : works) {
    decoded += w.decoded_in_segment;
  }
  EXPECT_GT(decoded, 0);
}

TEST_F(ReplicaTest, MigratedWorkFinishesOnDestination) {
  RolloutReplica src = MakeReplica();
  RolloutReplica dst = MakeReplica(1024, /*id=*/1);
  int completed = 0;
  src.set_on_complete([&](TrajectoryRecord) { ++completed; });
  dst.set_on_complete([&](TrajectoryRecord) { ++completed; });
  src.AssignWork(MakeWorks(pool_, 32));
  sim_.RunUntil(SimTime(10.0));
  auto works = src.ExtractAllWork();
  int in_flight = static_cast<int>(works.size());
  dst.AssignWork(std::move(works), /*kv_transferred=*/true);
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, 32);
  EXPECT_GT(dst.metrics().migrations_in, 0);
  EXPECT_EQ(in_flight + completed - 32, in_flight);
}

TEST_F(ReplicaTest, KillLosesWorkReviveAcceptsNew) {
  RolloutReplica replica = MakeReplica();
  int completed = 0;
  replica.set_on_complete([&](TrajectoryRecord) { ++completed; });
  replica.AssignWork(MakeWorks(pool_, 32));
  sim_.RunUntil(SimTime(5.0));
  replica.Kill();
  EXPECT_EQ(replica.phase(), ReplicaPhase::kDead);
  EXPECT_EQ(replica.num_reqs(), 0);
  sim_.RunUntilIdle();
  int after_kill = completed;
  replica.Revive();
  replica.AssignWork(MakeWorks(pool_, 16));
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, after_kill + 16);
}

TEST_F(ReplicaTest, DecodeBatchRampsDownAtTail) {
  RolloutReplica replica = MakeReplica();
  replica.set_on_complete([](TrajectoryRecord) {});
  replica.AssignWork(MakeWorks(pool_, 256));
  sim_.RunUntilIdle();
  // The KVCache lifecycle (Figure 9) implies average utilization well below
  // the peak: ramp-up, plateau, ramp-down.
  double avg_batch = replica.metrics().batch_size.AverageUntil(sim_.Now());
  EXPECT_GT(avg_batch, 1.0);
  EXPECT_LT(avg_batch, 256.0);
}

// Members that reach their segment boundary on the same step finish in
// admission order. A preempted member that is re-admitted joins the back of
// that order: here the newest rollout sequence is evicted past a serving
// request admitted after it, so once re-admitted it finishes after the
// request.
TEST_F(ReplicaTest, EqualBoundariesCompleteInAdmissionOrder) {
  RolloutReplica replica = MakeReplica();
  std::vector<TrajId> done;
  replica.set_on_complete([&](TrajectoryRecord rec) { done.push_back(rec.id); });
  std::vector<TrajectoryWork> works;
  for (TrajId id = 0; id < 8; ++id) {
    works.push_back(SingleSegmentWork(id, 512, 200));
  }
  replica.AssignWork(std::move(works));
  replica.AssignServingWork({SingleSegmentWork(kServingIdBase, 512, 200)});
  // Ask for one token more than is free: exactly one eviction.
  double needed = replica.kv_capacity_tokens() - replica.kv_used_tokens() + 1.0;
  std::vector<TrajectoryWork> evicted = replica.PreemptRolloutForServing(needed);
  ASSERT_EQ(Ids(evicted), std::vector<TrajId>({7}));
  replica.AssignWork(std::move(evicted));
  sim_.RunUntilIdle();
  EXPECT_EQ(done, std::vector<TrajId>({0, 1, 2, 3, 4, 5, 6, kServingIdBase, 7}));
}

// Headroom preemption and serving preemption both evict the most recently
// admitted rollout sequence and pass over serving requests.
TEST_F(ReplicaTest, PreemptionEvictsNewestRolloutSequenceAndSkipsServing) {
  ReplicaConfig rc;
  rc.admit_headroom_frac = 0.0;
  rc.kv_growth_reserve_steps = 0;
  rc.kv_preempt_headroom_steps = 16;
  RolloutReplica replica(&sim_, rc, decode_, /*kv_capacity_tokens=*/1000.0);
  replica.set_on_complete([](TrajectoryRecord) {});
  std::vector<TrajectoryWork> works;
  for (TrajId id = 0; id < 6; ++id) {
    works.push_back(SingleSegmentWork(id, 100, 1000));
  }
  replica.AssignWork(std::move(works));
  EXPECT_EQ(replica.metrics().preemptions, 0);
  // The request fits, but leaves 100 free tokens for a 7-member batch that
  // needs 16 steps each: headroom preemption takes rollout 5, not the
  // request admitted after it, and queues it at the front.
  replica.AssignServingWork({SingleSegmentWork(kServingIdBase, 300, 1000)});
  EXPECT_EQ(replica.metrics().preemptions, 1);
  // 200 tokens free; freeing 350 takes rollouts 4 then 3, again passing the
  // request.
  std::vector<TrajectoryWork> evicted = replica.PreemptRolloutForServing(350.0);
  EXPECT_EQ(Ids(evicted), std::vector<TrajId>({4, 3}));
  EXPECT_EQ(replica.metrics().preemptions, 3);
  // Left: rollouts 0-2 decoding in admission order, rollout 5 queued without
  // its cache, and the request, which never leaves.
  std::vector<TrajectoryWork> rest = replica.ExtractAllWork();
  EXPECT_EQ(Ids(rest), std::vector<TrajId>({0, 1, 2, 5}));
  EXPECT_FALSE(rest.back().kv_resident);
  EXPECT_EQ(replica.num_serving(), 1);
  EXPECT_EQ(replica.kv_used_tokens(), 300.0);
}

// The KV ledger and the resident-token recount are both sums of integer
// token counts, so they agree exactly after every event of a full-batch
// tool-calling run with every batch mutation interleaved: serving admission
// and preemption, repack-style extraction, partial-rollout pauses with KV
// recompute, and gray slowdowns.
TEST_F(ReplicaTest, ResidentKvTokensMatchLedgerUnderInterleavedMutations) {
  WorkloadConfig wc;
  wc.task = TaskKind::kToolCalling;
  PromptPool tool_pool(WorkloadGenerator(wc, Rng(11)), 16, Rng(13));
  RolloutReplica replica = MakeReplica(1024);
  int completed = 0;
  replica.set_on_complete([&](TrajectoryRecord) { ++completed; });
  replica.AssignWork(MakeWorks(tool_pool, 1024));
  TrajId next_serving = kServingIdBase;
  int version = 0;
  int64_t events = 0;
  while (sim_.Step()) {
    ++events;
    ASSERT_EQ(replica.ResidentKvTokens(), replica.kv_used_tokens()) << "event " << events;
    switch (events % 250) {
      case 50: {
        replica.AssignServingWork({SingleSegmentWork(next_serving++, 256, 64)});
        double needed = replica.kv_capacity_tokens() - replica.kv_used_tokens() + 4096.0;
        replica.AssignWork(replica.PreemptRolloutForServing(needed));
        break;
      }
      case 100:
        replica.AssignWork(replica.ExtractAllWork(), /*kv_transferred=*/true);
        break;
      case 150:
        replica.Pause();
        replica.Resume(++version, /*recompute_kv=*/true);
        break;
      case 200:
        replica.SetSpeedFactor(0.5);
        break;
      case 0:
        replica.SetSpeedFactor(1.0);
        break;
    }
    ASSERT_EQ(replica.ResidentKvTokens(), replica.kv_used_tokens()) << "event " << events;
  }
  EXPECT_GT(events, 1000);
  EXPECT_EQ(completed, 1024 + static_cast<int>(next_serving - kServingIdBase));
  EXPECT_EQ(replica.kv_used_tokens(), 0.0);
}

}  // namespace
}  // namespace laminar
