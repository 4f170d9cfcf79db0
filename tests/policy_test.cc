#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/policy/policy.h"

namespace laminar {
namespace {

// Builds a scored GRPO group of `group` trajectories at the given
// generation/consume versions, outcomes sampled under `gen_version`. With
// `mixed`, a random subset of each group continued under later versions
// (partial rollout), so groups are internally version-inconsistent — as in
// real interrupted generation.
std::vector<TrajectoryRecord> MakeBatch(Policy& policy, Rng& rng, int prompts, int group,
                                        int gen_version, int finish_version,
                                        bool mixed = false) {
  std::vector<TrajectoryRecord> out;
  static int64_t next_prompt = 0;
  for (int p = 0; p < prompts; ++p) {
    int64_t pid = next_prompt++;
    double difficulty = rng.Uniform();
    for (int g = 0; g < group; ++g) {
      TrajectoryRecord rec;
      rec.id = pid * 100 + g;
      rec.prompt_id = pid;
      rec.group_index = g;
      rec.difficulty = difficulty;
      rec.weight_versions = {gen_version};
      if (mixed && rng.Bernoulli(0.6)) {
        for (int v = gen_version + 1; v <= finish_version; ++v) {
          if (rng.Bernoulli(0.7)) {
            rec.weight_versions.push_back(v);
          }
        }
      }
      rec.finish_actor_version = finish_version;
      policy.ScoreTrajectory(rec, rng);
      out.push_back(rec);
    }
  }
  return out;
}

// Runs `iters` on-policy-with-staleness training iterations; returns final
// expected reward.
double TrainLoop(int iters, int staleness, RlAlgorithm algorithm, bool mixed,
                 uint64_t seed) {
  Policy policy{PolicyConfig{}};
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    int current = policy.latest_version();
    int gen_version = std::max(0, current - staleness);
    auto batch = MakeBatch(policy, rng, /*prompts=*/48, /*group=*/16, gen_version, current,
                           mixed);
    // Four mini-batches, as the convergence config does.
    size_t mb = batch.size() / 4;
    for (int m = 0; m < 4; ++m) {
      std::vector<TrajectoryRecord> chunk(batch.begin() + m * mb,
                                          batch.begin() + (m + 1) * mb);
      policy.UpdateMinibatch(chunk, algorithm);
    }
    policy.PublishVersion();
  }
  return policy.EvalExpectedReward();
}

TEST(PolicyTest, InitialRewardIsLow) {
  Policy policy{PolicyConfig{}};
  EXPECT_LT(policy.EvalExpectedReward(), 0.2);
  EXPECT_GT(policy.EvalExpectedReward(), 0.0);
}

TEST(PolicyTest, OnPolicyTrainingImprovesReward) {
  double before = Policy{PolicyConfig{}}.EvalExpectedReward();
  double after = TrainLoop(40, /*staleness=*/0, RlAlgorithm::kGrpo, false, 1);
  EXPECT_GT(after, before + 0.2);
}

TEST(PolicyTest, StalenessSlowsLearning) {
  double fresh = TrainLoop(30, 0, RlAlgorithm::kGrpo, false, 2);
  double stale = TrainLoop(30, 8, RlAlgorithm::kGrpo, false, 2);
  EXPECT_GT(fresh, stale);
}

TEST(PolicyTest, StalenessHarmIsMonotone) {
  // The Laminar regime (staleness <= 4) loses much less than deep staleness.
  double fresh = 0.0;
  double mild = 0.0;
  double deep = 0.0;
  for (uint64_t seed : {3u, 13u, 23u}) {
    fresh += TrainLoop(30, 0, RlAlgorithm::kGrpo, false, seed);
    mild += TrainLoop(30, 2, RlAlgorithm::kGrpo, false, seed);
    deep += TrainLoop(30, 10, RlAlgorithm::kGrpo, false, seed);
  }
  EXPECT_GT(mild, fresh * 0.6);
  EXPECT_GT(mild, deep);
  EXPECT_GT(fresh, deep * 1.1);
}

TEST(PolicyTest, MixedVersionTrajectoriesHurtGrpo) {
  // Partial rollout's within-group version inconsistency degrades GRPO
  // relative to clean single-version groups at the same staleness.
  double clean = 0.0;
  double mixed = 0.0;
  for (uint64_t seed : {4u, 14u, 24u, 34u}) {
    clean += TrainLoop(30, 3, RlAlgorithm::kGrpo, false, seed);
    mixed += TrainLoop(30, 3, RlAlgorithm::kGrpo, true, seed);
  }
  EXPECT_GT(clean, mixed * 0.99);
}

TEST(PolicyTest, DecoupledPpoMitigatesMixedVersions) {
  double naive = TrainLoop(30, 4, RlAlgorithm::kGrpo, true, 5);
  double decoupled = TrainLoop(30, 4, RlAlgorithm::kDecoupledPpo, true, 5);
  EXPECT_GT(decoupled, naive * 0.95);
}

TEST(PolicyTest, UniformGroupsCarryNoSignal) {
  Policy policy{PolicyConfig{}};
  std::vector<TrajectoryRecord> batch;
  for (int g = 0; g < 16; ++g) {
    TrajectoryRecord rec;
    rec.prompt_id = 1;
    rec.difficulty = 0.5;
    rec.weight_versions = {0};
    rec.reward = 1.0;  // everyone succeeded: advantage must be zero
    rec.success = true;
    rec.behavior_prob = 0.5;
    batch.push_back(rec);
  }
  auto before = policy.parameters();
  UpdateStats stats = policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
  EXPECT_DOUBLE_EQ(stats.grad_norm, 0.0);
  EXPECT_EQ(policy.parameters(), before);
}

TEST(PolicyTest, ClipFractionGrowsWithStaleness) {
  Policy fresh_policy{PolicyConfig{}};
  Rng rng(6);
  // Train a while so versions genuinely differ.
  for (int i = 0; i < 20; ++i) {
    auto batch = MakeBatch(fresh_policy, rng, 32, 16, fresh_policy.latest_version(),
                           fresh_policy.latest_version());
    fresh_policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
    fresh_policy.PublishVersion();
  }
  int v = fresh_policy.latest_version();
  auto on_policy = MakeBatch(fresh_policy, rng, 64, 16, v, v);
  auto off_policy = MakeBatch(fresh_policy, rng, 64, 16, std::max(0, v - 10), v);
  UpdateStats on = fresh_policy.UpdateMinibatch(on_policy, RlAlgorithm::kGrpo);
  UpdateStats off = fresh_policy.UpdateMinibatch(off_policy, RlAlgorithm::kGrpo);
  EXPECT_GE(off.clip_fraction, on.clip_fraction);
  EXPECT_GT(off.mean_abs_log_ratio, on.mean_abs_log_ratio);
}

TEST(PolicyTest, SuccessProbMonotoneInDifficulty) {
  Policy policy{PolicyConfig{}};
  double easy = policy.CurrentSuccessProb(0.1);
  double hard = policy.CurrentSuccessProb(0.9);
  EXPECT_GT(easy, hard);
}

TEST(PolicyTest, VersionSnapshotsAreStable) {
  Policy policy{PolicyConfig{}};
  Rng rng(7);
  double p0 = policy.SuccessProb(0, 0.5);
  for (int i = 0; i < 10; ++i) {
    auto batch = MakeBatch(policy, rng, 16, 16, policy.latest_version(),
                           policy.latest_version());
    policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
    policy.PublishVersion();
  }
  // Old snapshots are immutable.
  EXPECT_DOUBLE_EQ(policy.SuccessProb(0, 0.5), p0);
  EXPECT_NE(policy.SuccessProb(10, 0.5), p0);
}

TEST(PolicyTest, RestoreVersionRollsBack) {
  Policy policy{PolicyConfig{}};
  Rng rng(8);
  auto batch = MakeBatch(policy, rng, 32, 16, 0, 0);
  policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
  EXPECT_NE(policy.parameters(), std::vector<double>(12, 0.0));
  policy.RestoreVersion(0);
  EXPECT_EQ(policy.parameters(), std::vector<double>(12, 0.0));
}

TEST(PolicyTest, ScoreTrajectoryFillsAllFields) {
  Policy policy{PolicyConfig{}};
  Rng rng(9);
  TrajectoryRecord rec;
  rec.difficulty = 0.3;
  rec.weight_versions = {0};
  policy.ScoreTrajectory(rec, rng);
  EXPECT_TRUE(rec.reward == 0.0 || rec.reward == 1.0);
  EXPECT_GT(rec.behavior_prob, 0.0);
  EXPECT_LT(rec.behavior_prob, 1.0);
  EXPECT_EQ(rec.success, rec.reward == 1.0);
}

// ---------------------------------------------------------------------------
// Bit identity of the node-free scoring and GRPO grouping. These are the
// std::set and std::map implementations the rewrites replaced, kept as
// references. No benchmark workload produces mixed-version records, so this
// is the only guard on that branch of the scoring code.

double ReferenceTrueSuccessProb(const Policy& policy, const TrajectoryRecord& record) {
  std::set<int> distinct(record.weight_versions.begin(), record.weight_versions.end());
  double p_true = 0.0;
  for (int v : distinct) {
    p_true += policy.SuccessProb(v, record.difficulty);
  }
  p_true /= static_cast<double>(distinct.size());
  return p_true;
}

struct ReferenceUpdate {
  UpdateStats stats;
  std::vector<double> theta;
};

// The old UpdateMinibatch, evaluated against `policy`'s live parameters
// without mutating them; returns the stats and the parameters it would set.
ReferenceUpdate ReferenceUpdateMinibatch(const Policy& policy,
                                         const std::vector<TrajectoryRecord>& minibatch,
                                         RlAlgorithm algorithm) {
  const PolicyConfig& config = policy.config();
  ReferenceUpdate out{UpdateStats{}, policy.parameters()};
  UpdateStats& stats = out.stats;
  std::map<int64_t, std::vector<const TrajectoryRecord*>> groups;
  for (const TrajectoryRecord& rec : minibatch) {
    groups[rec.prompt_id].push_back(&rec);
  }
  std::map<int64_t, std::pair<double, double>> group_stats;  // mean, std
  for (const auto& [pid, members] : groups) {
    double mean = 0.0;
    for (const auto* rec : members) {
      mean += rec->reward;
    }
    mean /= static_cast<double>(members.size());
    double var = 0.0;
    for (const auto* rec : members) {
      var += (rec->reward - mean) * (rec->reward - mean);
    }
    var /= static_cast<double>(members.size());
    group_stats[pid] = {mean, std::sqrt(var)};
  }
  std::vector<double> grad(config.num_features, 0.0);
  for (const TrajectoryRecord& rec : minibatch) {
    stats.mean_reward += rec.reward;
    auto [mean, stddev] = group_stats[rec.prompt_id];
    if (stddev < 1e-9) {
      continue;
    }
    double advantage = (rec.reward - mean) / (stddev + 1e-6);
    bool y = rec.success;
    double p_new = policy.CurrentSuccessProb(rec.difficulty);
    double pi_new = y ? p_new : 1.0 - p_new;
    double behavior = std::clamp(rec.behavior_prob, 1e-6, 1.0 - 1e-6);
    double pi_behavior = y ? behavior : 1.0 - behavior;
    double weight = 1.0;
    double ratio;
    if (algorithm == RlAlgorithm::kDecoupledPpo) {
      double prox = policy.SuccessProb(rec.finish_actor_version, rec.difficulty);
      prox = std::clamp(prox, 1e-6, 1.0 - 1e-6);
      double pi_prox = y ? prox : 1.0 - prox;
      weight = std::min(pi_prox / pi_behavior, config.behavior_ratio_cap);
      ratio = pi_new / pi_prox;
    } else {
      ratio = pi_new / pi_behavior;
    }
    stats.mean_abs_log_ratio += std::fabs(std::log(std::max(ratio, 1e-9)));
    bool clipped = (advantage > 0.0 && ratio > 1.0 + config.clip_high) ||
                   (advantage < 0.0 && ratio < 1.0 - config.clip_low);
    if (clipped) {
      stats.clip_fraction += 1.0;
      continue;
    }
    std::vector<double> phi = policy.Features(rec.difficulty);
    double scale = weight * advantage * ratio * (y ? 1.0 - p_new : -p_new);
    for (int j = 0; j < config.num_features; ++j) {
      grad[j] += scale * phi[j];
    }
  }
  double n = static_cast<double>(minibatch.size());
  stats.mean_reward /= n;
  stats.clip_fraction /= n;
  stats.mean_abs_log_ratio /= n;
  stats.num_samples = static_cast<int>(minibatch.size());
  double norm = 0.0;
  for (int j = 0; j < config.num_features; ++j) {
    grad[j] /= n;
    norm += grad[j] * grad[j];
  }
  stats.grad_norm = std::sqrt(norm);
  for (int j = 0; j < config.num_features; ++j) {
    out.theta[j] += config.learning_rate * grad[j];
  }
  return out;
}

// Bit patterns, so that equality is bit identity (-0.0 differs from 0.0).
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// A policy with several distinct published versions, so mixtures of
// versions and importance ratios are non-trivial.
Policy TrainedPolicy(Rng& rng) {
  Policy policy{PolicyConfig{}};
  for (int i = 0; i < 8; ++i) {
    auto batch = MakeBatch(policy, rng, 8, 16, policy.latest_version(), policy.latest_version());
    policy.UpdateMinibatch(batch, RlAlgorithm::kGrpo);
    policy.PublishVersion();
  }
  return policy;
}

TEST(PolicyBitIdentityTest, ScoringMatchesSetReference) {
  Rng rng(41);
  Policy policy = TrainedPolicy(rng);
  std::vector<std::vector<int>> version_lists = {
      {0}, {8}, {5, 4, 5}, {2, 2, 7, 1}, {4, 4, 4}, {0, 1, 2, 3, 4, 5, 6, 7, 8},
      {8, 7, 6, 5, 4, 3, 2, 1, 0}, {3, 8}, {6, 3, 6, 3}};
  for (int i = 0; i < 40; ++i) {
    std::vector<int> random_list;
    int len = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < len; ++k) {
      random_list.push_back(static_cast<int>(rng.UniformInt(0, policy.latest_version())));
    }
    version_lists.push_back(random_list);
  }
  for (const std::vector<int>& versions : version_lists) {
    for (double difficulty : {0.0, 0.13, 0.5, 0.77, 1.0}) {
      TrajectoryRecord rec;
      rec.difficulty = difficulty;
      for (int v : versions) {
        rec.weight_versions.push_back(v);
      }
      EXPECT_EQ(Bits({policy.TrueSuccessProb(rec)}), Bits({ReferenceTrueSuccessProb(policy, rec)}))
          << "versions[0]=" << versions[0] << " size " << versions.size();
      // Scoring draws one Bernoulli from p_true: the same outcome as the
      // reference from the same stream position.
      Rng a(static_cast<uint64_t>(versions.size() * 1000 + versions[0]));
      Rng b = a;
      TrajectoryRecord scored = rec;
      policy.ScoreTrajectory(scored, a);
      bool success = b.Bernoulli(ReferenceTrueSuccessProb(policy, rec));
      EXPECT_EQ(scored.success, success);
      EXPECT_EQ(scored.reward, success ? 1.0 : 0.0);
      EXPECT_EQ(Bits({scored.behavior_prob}),
                Bits({policy.SuccessProb(rec.generation_version(), difficulty)}));
      EXPECT_EQ(a.draws(), b.draws());
    }
  }
}

TEST(PolicyBitIdentityTest, UpdateMinibatchMatchesMapReference) {
  for (RlAlgorithm algorithm : {RlAlgorithm::kGrpo, RlAlgorithm::kDecoupledPpo}) {
    Rng rng(algorithm == RlAlgorithm::kGrpo ? 51 : 52);
    Policy policy = TrainedPolicy(rng);
    for (int round = 0; round < 6; ++round) {
      int v = policy.latest_version();
      std::vector<TrajectoryRecord> minibatch =
          MakeBatch(policy, rng, /*prompts=*/12, /*group=*/8, std::max(0, v - 3), v,
                    /*mixed=*/true);
      // Zero-variance groups: every member of two prompts succeeds, every
      // member of another fails. Two more prompts carry graded rewards,
      // whose sums round differently when a group's members are visited in
      // any order but minibatch order.
      for (TrajectoryRecord& rec : minibatch) {
        int64_t slot = rec.prompt_id % 12;
        if (slot == 0 || slot == 5 || slot == 7) {
          rec.success = slot != 7;
          rec.reward = rec.success ? 1.0 : 0.0;
        } else if (slot == 2 || slot == 9) {
          rec.reward = rng.Uniform();
        }
      }
      // Interleave the groups and scatter prompt ids (negative and large
      // ones included), so groups are neither contiguous nor id-ordered.
      rng.Shuffle(minibatch);
      for (TrajectoryRecord& rec : minibatch) {
        if (rec.prompt_id % 3 == 0) {
          rec.prompt_id = -rec.prompt_id - 1;
        } else if (rec.prompt_id % 3 == 1) {
          rec.prompt_id += int64_t{1} << 40;
        }
      }
      ReferenceUpdate want = ReferenceUpdateMinibatch(policy, minibatch, algorithm);
      UpdateStats got = policy.UpdateMinibatch(minibatch, algorithm);
      const UpdateStats& ref = want.stats;
      EXPECT_EQ(Bits({got.mean_reward, got.clip_fraction, got.mean_abs_log_ratio, got.grad_norm}),
                Bits({ref.mean_reward, ref.clip_fraction, ref.mean_abs_log_ratio, ref.grad_norm}))
          << "round " << round;
      EXPECT_EQ(got.num_samples, ref.num_samples);
      EXPECT_GT(got.grad_norm, 0.0);
      EXPECT_EQ(Bits(policy.parameters()), Bits(want.theta)) << "round " << round;
      policy.PublishVersion();
    }
  }
}

// Property sweep: learning must be robust across seeds.
class PolicyConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PolicyConvergenceTest, ImprovesFromScratch) {
  double final_reward = TrainLoop(25, 0, RlAlgorithm::kGrpo, false, GetParam());
  EXPECT_GT(final_reward, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyConvergenceTest, ::testing::Range<uint64_t>(10, 18));

}  // namespace
}  // namespace laminar
