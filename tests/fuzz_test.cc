// The fuzz suite run in CI: a small seeded smoke sweep, replay of the
// committed repro corpus, and unit coverage of the oracle / shrinker
// machinery itself. The pre-release sweep is `laminar_fuzz --seeds 256`.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/verify/fuzzer.h"
#include "src/verify/oracles.h"
#include "src/verify/scenario.h"
#include "src/verify/shrink.h"

namespace laminar {
namespace {

TEST(FuzzTest, SmokeSweepFindsNoFailures) {
  FuzzOptions opts;
  opts.num_seeds = 8;
  opts.shrink_failures = false;
  FuzzReport report = RunFuzz(opts);
  EXPECT_EQ(report.seeds_run, 8);
  EXPECT_GT(report.oracle_checks, 0);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FuzzTest, CommittedCorpusReplaysClean) {
  std::vector<std::string> files = ListCorpus(LAMINAR_FUZZ_CORPUS_DIR);
  ASSERT_GE(files.size(), 4u);
  for (const std::string& path : files) {
    Scenario scn;
    std::string error;
    ASSERT_TRUE(LoadScenarioFile(path, &scn, &error)) << path << ": " << error;
    OracleReport report = EvaluateScenario(scn, EvalOptions{});
    EXPECT_TRUE(report.ok()) << path << ": " << report.Summary();
  }
}

TEST(FuzzTest, ScenarioTextRoundTrips) {
  for (uint64_t seed = 0; seed <= 20; ++seed) {
    Scenario scn = GenerateScenario(seed);
    std::string text = ScenarioToText(scn);
    Scenario parsed;
    std::string error;
    ASSERT_TRUE(ScenarioFromText(text, &parsed, &error)) << "seed " << seed << ": " << error;
    EXPECT_EQ(ScenarioToText(parsed), text) << "seed " << seed;
  }
  // Every committed corpus file parses, and the text its scenario emits
  // parses back to the same bytes.
  for (const std::string& path : ListCorpus(LAMINAR_FUZZ_CORPUS_DIR)) {
    Scenario scn;
    std::string error;
    ASSERT_TRUE(LoadScenarioFile(path, &scn, &error)) << path << ": " << error;
    std::string text = ScenarioToText(scn);
    Scenario parsed;
    ASSERT_TRUE(ScenarioFromText(text, &parsed, &error)) << path << ": " << error;
    EXPECT_EQ(ScenarioToText(parsed), text) << path;
  }
}

TEST(FuzzTest, ScenarioParserRejectsGarbage) {
  Scenario scn;
  std::string error;
  // Structurally malformed: a non-comment line with no '='.
  EXPECT_FALSE(ScenarioFromText("not a scenario", &scn, &error));
  // A known numeric key with a non-numeric value is still an error.
  Scenario seeded = GenerateScenario(3);
  std::string bad = ScenarioToText(seeded) + "warmup=banana\n";
  EXPECT_FALSE(ScenarioFromText(bad, &scn, &error));
  // Missing required topology keys still fail, unknown key or not.
  EXPECT_FALSE(ScenarioFromText(
      "# laminar fuzz scenario v1\nno_such_key=1\n", &scn, &error));
  // Values a component would CHECK on are parse errors, not aborts. A later
  // line overrides an earlier one, so each text edits one corpus value.
  std::ifstream in(std::string(LAMINAR_FUZZ_CORPUS_DIR) +
                   "/replay_anchored_restore.scenario");
  ASSERT_TRUE(in);
  std::ostringstream corpus;
  corpus << in.rdbuf();
  ASSERT_TRUE(ScenarioFromText(corpus.str(), &scn, &error)) << error;
  // The corpus runs two TP-1 replicas; serving's own defaults are valid.
  ASSERT_TRUE(ScenarioFromText(corpus.str() + "serving=1\n", &scn, &error)) << error;
  ASSERT_TRUE(ScenarioFromText(corpus.str() + "chaos_horizon=-1\n", &scn, &error)) << error;
  // A negative rate still means "off", and 20000 faults over the corpus's
  // 3600 s window are within the expected-fault bound.
  ASSERT_TRUE(ScenarioFromText(corpus.str() + "rate_machine_stall=-5\n", &scn, &error))
      << error;
  ASSERT_TRUE(ScenarioFromText(corpus.str() + "rate_machine_stall=20000\n", &scn, &error))
      << error;
  // Non-finite chaos rates abort the exponential draw or never advance the
  // arrival clock; a finite rate past the expected-fault bound (here over a
  // whole-run window) would fill memory with faults.
  for (const char* key :
       {"rate_machine_fail", "rate_relay_fail", "rate_master_fail", "rate_trainer_fail",
        "rate_machine_stall", "rate_link_flap", "rate_replica_slow", "rate_message_drop",
        "crash_restart_rate"}) {
    for (const char* value : {"nan", "inf", "-inf", "1e12"}) {
      std::string edit = std::string(key) + "=" + value + "\n";
      EXPECT_FALSE(ScenarioFromText(corpus.str() + edit, &scn, &error)) << edit;
    }
    std::string whole_run = "chaos_horizon=0\n" + std::string(key) + "=20000\n";
    EXPECT_FALSE(ScenarioFromText(corpus.str() + whole_run, &scn, &error)) << whole_run;
  }
  for (const char* edit :
       {"max_concurrency=0\n", "repack_period=0\n", "repack_period=nan\n",
        "chaos=1\nchaos_start=-20\n", "chaos_horizon=nan\n", "scale=32b\n",
        "serving=1\nserving_dedicated=2\n", "serving=1\nserving_rate=-1\n",
        "serving=1\nserving_rate=nan\n", "serving=1\nserving_amplitude=1\n",
        "serving=1\nserving_period=0\n", "serving=1\nserving_period=nan\n",
        "chaos_horizon=inf\n", "chaos_horizon=-inf\n", "serving=1\nserving_rate=inf\n"}) {
    EXPECT_FALSE(ScenarioFromText(corpus.str() + edit, &scn, &error)) << edit;
  }
  // Integer keys take an integral value inside the field's range, with
  // warmup >= 0 and measure >= 1; seeds take decimal digits only. Each
  // refusal names its key.
  for (const char* edit :
       {"measure=1e20\n", "measure=-3\n", "measure=0\n", "measure=1.5\n", "warmup=-1\n",
        "warmup=nan\n", "staleness_cap=3e9\n", "num_minibatches=4.5\n", "plan_cases=2.5\n",
        "serving_dedicated=1e10\n", "backlog_cap=1e19\n", "backlog_cap=nan\n",
        "seed=abc\n", "seed=-1\n", "seed=12x\n", "seed=99999999999999999999\n",
        "chaos_seed=1.5\n", "config_seed=0x10\n", "config_seed= 7\n"}) {
    ASSERT_FALSE(ScenarioFromText(corpus.str() + edit, &scn, &error)) << edit;
    std::string key(edit, std::string(edit).find('='));
    EXPECT_NE(error.find("'" + key + "'"), std::string::npos) << error;
  }
  // A whole number in any spelling is still an integer.
  ASSERT_TRUE(ScenarioFromText(corpus.str() + "measure=2.0\nwarmup=0\n", &scn, &error)) << error;
  EXPECT_EQ(scn.config.measure_iterations, 2);
  // Serving arrivals are bounded like chaos faults: 1e9/s over the run cap
  // would allocate until memory runs out.
  EXPECT_FALSE(ScenarioFromText(corpus.str() + "serving=1\nserving_rate=1e9\n", &scn, &error));
  ASSERT_TRUE(ScenarioFromText(corpus.str() + "serving=1\nserving_rate=3\nserving_amplitude=0.8\n",
                               &scn, &error))
      << error;
}

TEST(FuzzTest, ScenarioParserSkipsUnknownKeysForwardCompatibly) {
  // A corpus file written by a newer binary carries keys this one has never
  // heard of — numeric or not. They warn and are skipped; everything the
  // parser does understand round-trips untouched.
  Scenario seeded = GenerateScenario(5);
  std::string text = ScenarioToText(seeded);
  std::string futuristic =
      text + "keys_from_the_future=1\nfuture_mode=adaptive-quorum\n";
  Scenario parsed;
  std::string error;
  ASSERT_TRUE(ScenarioFromText(futuristic, &parsed, &error)) << error;
  EXPECT_EQ(ScenarioToText(parsed), text);
}

TEST(FuzzTest, SnapshotAndCrashRestartKeysRoundTrip) {
  // Both keys are emitted only when armed, so files that never used them are
  // byte-identical to their pre-snapshot-era form...
  Scenario plain = GenerateScenario(2);
  plain.config.chaos.crash_restart_per_hour = 0.0;
  plain.config.snapshot_at_seconds = 0.0;
  std::string text = ScenarioToText(plain);
  EXPECT_EQ(text.find("crash_restart_rate="), std::string::npos);
  EXPECT_EQ(text.find("snapshot_at="), std::string::npos);
  // ...and when armed, both survive a text round-trip exactly.
  Scenario armed = plain;
  armed.config.chaos.crash_restart_per_hour = 12.5;
  armed.config.snapshot_at_seconds = 77.25;
  std::string armed_text = ScenarioToText(armed);
  EXPECT_NE(armed_text.find("crash_restart_rate="), std::string::npos);
  EXPECT_NE(armed_text.find("snapshot_at="), std::string::npos);
  Scenario parsed;
  std::string error;
  ASSERT_TRUE(ScenarioFromText(armed_text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.config.chaos.crash_restart_per_hour, 12.5);
  EXPECT_EQ(parsed.config.snapshot_at_seconds, 77.25);
  EXPECT_EQ(ScenarioToText(parsed), armed_text);
}

TEST(FuzzTest, PostApplyCheckFlagsChainedMoves) {
  std::vector<ReplicaSnapshot> snaps(3);
  for (int i = 0; i < 3; ++i) {
    snaps[i].replica_id = i;
    snaps[i].kv_used_frac = 0.1;
    snaps[i].num_reqs = 1;
  }
  RepackParams params;
  params.c_max_frac = 0.9;
  params.batch_bound = 100;
  RepackPlan chained;
  chained.moves = {{0, 1}, {1, 2}};
  auto bad = CheckRepackPlanPostApply(snaps, params, chained);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("destination"), std::string::npos) << *bad;

  // A fan-in to one destination is legal as long as the bounds hold.
  RepackPlan fan_in;
  fan_in.moves = {{0, 2}, {1, 2}};
  EXPECT_FALSE(CheckRepackPlanPostApply(snaps, params, fan_in).has_value());

  // ...and flagged when the accumulated KV load exceeds C_max.
  params.c_max_frac = 0.25;
  auto over = CheckRepackPlanPostApply(snaps, params, fan_in);
  ASSERT_TRUE(over.has_value());
  EXPECT_NE(over->find("C_max"), std::string::npos) << *over;
}

TEST(FuzzTest, CompareLedgersDetectsTampering) {
  RunLedger a;
  a.pushes = {{0, 0, 0, 500, 1, 0}, {1, 0, 1, 700, 2, 0}};
  RunLedger b = a;
  EXPECT_FALSE(CompareLedgers(a, b, "twin").has_value());
  b.pushes[1].total_tokens = 999;
  auto bad = CompareLedgers(a, b, "twin");
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("diverged"), std::string::npos) << *bad;

  RunLedger disjoint;
  disjoint.pushes = {{7, 3, 0, 500, 1, 0}};
  EXPECT_TRUE(CompareLedgers(a, disjoint, "twin").has_value());
}

TEST(FuzzTest, ShrinkerMinimizesWhilePreservingFailure) {
  // Seed 30 carries chaos, differential twins and a large batch. A synthetic
  // failure that only needs `global_batch >= 64` lets the shrinker strip
  // everything else.
  Scenario failing = GenerateScenario(30);
  ASSERT_TRUE(failing.config.chaos_enabled);
  ASSERT_GE(failing.config.global_batch, 64);
  auto still_fails = [](const Scenario& s) { return s.config.global_batch >= 64; };
  ShrinkResult shrunk = ShrinkScenario(failing, still_fails);
  EXPECT_TRUE(still_fails(shrunk.scenario));
  EXPECT_GT(shrunk.accepted_steps, 0);
  EXPECT_FALSE(shrunk.scenario.config.chaos_enabled);
  EXPECT_FALSE(shrunk.scenario.diff_sync);
  EXPECT_FALSE(shrunk.scenario.diff_repack);
  EXPECT_LT(shrunk.scenario.config.global_batch, failing.config.global_batch);
  // The shrunk scenario still round-trips through the corpus format.
  Scenario parsed;
  std::string error;
  ASSERT_TRUE(ScenarioFromText(ScenarioToText(shrunk.scenario), &parsed, &error)) << error;
}

}  // namespace
}  // namespace laminar
