// Serving suite (DESIGN.md §14): the online serving tier on the training
// fleet. Property tests pin the seeded diurnal traffic generator (byte
// determinism, arrival counts against the analytic rate integral, and the
// metamorphic rate-doubling law); full-system tests pin byte-identity of
// serving-armed runs across sweep threads, admission
// conservation in the report, byte-invisibility of a disabled tier, and the
// chaos interaction: a gray fail-slow replica under serving load violates
// the SLO *before* the slowness score quarantines it, and attainment
// recovers once the sick replica is drained.
#include "src/workload/serving_traffic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/laminar_system.h"
#include "src/core/run.h"
#include "src/exp/sweep.h"
#include "src/trace/query.h"
#include "src/verify/oracles.h"

namespace laminar {
namespace {

ServingTrafficConfig SmallTraffic() {
  ServingTrafficConfig sc;
  sc.enabled = true;
  sc.base_rate_per_sec = 2.0;
  sc.diurnal_amplitude = 0.6;
  sc.diurnal_period_seconds = 300.0;
  sc.slo_base_seconds = 60.0;
  sc.slo_per_token_seconds = 0.05;
  return sc;
}

// ---------------------------------------------------------------------------
// Traffic generator properties.

TEST(ServingTrafficDeathTest, RefusesInfiniteRate) {
  // An infinite rate makes every thinning ratio inf/inf = NaN, so Next()
  // would reject candidates forever; the constructor refuses it instead.
  ServingTrafficConfig sc = SmallTraffic();
  sc.base_rate_per_sec = std::numeric_limits<double>::infinity();
  EXPECT_DEATH({ ServingTrafficGenerator gen(sc, Rng(1)); }, "isfinite");
}

TEST(ServingTrafficTest, PerSeedStreamIsByteDeterministic) {
  ServingTrafficConfig sc = SmallTraffic();
  ServingTrafficGenerator a(sc, Rng(7).Fork("serving"));
  ServingTrafficGenerator b(sc, Rng(7).Fork("serving"));
  ServingTrafficGenerator other(sc, Rng(8).Fork("serving"));
  bool any_difference = false;
  for (int i = 0; i < 500; ++i) {
    ServingRequest ra = a.Next();
    ServingRequest rb = b.Next();
    ASSERT_EQ(ra.seq, i);
    ASSERT_EQ(ra.seq, rb.seq);
    // Bit-exact, not approximately equal: the whole determinism story rests
    // on the generator being a pure function of (config, seed).
    ASSERT_EQ(ra.arrival_seconds, rb.arrival_seconds) << "seq " << i;
    ASSERT_EQ(ra.prompt_tokens, rb.prompt_tokens) << "seq " << i;
    ASSERT_EQ(ra.decode_tokens, rb.decode_tokens) << "seq " << i;
    ASSERT_EQ(ra.deadline_seconds, rb.deadline_seconds) << "seq " << i;
    ServingRequest ro = other.Next();
    if (ro.arrival_seconds != ra.arrival_seconds) {
      any_difference = true;
    }
    // The deadline law holds for every request.
    EXPECT_DOUBLE_EQ(ra.deadline_seconds,
                     ra.arrival_seconds + sc.slo_base_seconds +
                         static_cast<double>(ra.decode_tokens) *
                             sc.slo_per_token_seconds);
    EXPECT_GE(ra.prompt_tokens, sc.prompt_min_tokens);
    EXPECT_LE(ra.prompt_tokens, sc.prompt_max_tokens);
    EXPECT_GE(ra.decode_tokens, sc.decode_min_tokens);
    EXPECT_LE(ra.decode_tokens, sc.decode_max_tokens);
  }
  EXPECT_TRUE(any_difference) << "different seeds produced identical streams";
}

TEST(ServingTrafficTest, ArrivalsAreTimeOrderedAndStartAfterWarmup) {
  ServingTrafficConfig sc = SmallTraffic();
  sc.start_seconds = 120.0;
  ServingTrafficGenerator gen(sc, Rng(11).Fork("serving"));
  double prev = sc.start_seconds;
  for (int i = 0; i < 300; ++i) {
    ServingRequest r = gen.Next();
    EXPECT_GE(r.arrival_seconds, prev) << "seq " << i;
    prev = r.arrival_seconds;
  }
}

TEST(ServingTrafficTest, ArrivalCountMatchesRateIntegral) {
  // Empirical arrival counts over a long window agree with the analytic
  // integral of the diurnal rate to within 4 sigma of the Poisson count.
  ServingTrafficConfig sc = SmallTraffic();
  const double kHorizon = 4000.0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    ServingTrafficGenerator gen(sc, Rng(seed).Fork("serving"));
    int64_t count = 0;
    while (gen.Next().arrival_seconds <= kHorizon) {
      ++count;
    }
    double expected = gen.ExpectedArrivals(0.0, kHorizon);
    ASSERT_GT(expected, 1000.0);
    double sigma = std::sqrt(expected);
    EXPECT_NEAR(static_cast<double>(count), expected, 4.0 * sigma)
        << "seed " << seed;
  }
}

TEST(ServingTrafficTest, RateIntegralMatchesQuadrature) {
  // ExpectedArrivals is the closed-form integral of RateAt; pin it against
  // brute-force quadrature over an awkward, phase-shifted window.
  ServingTrafficConfig sc = SmallTraffic();
  sc.phase_radians = 1.3;
  ServingTrafficGenerator gen(sc, Rng(5).Fork("serving"));
  const double t0 = 37.5, t1 = 1234.25;
  const int kSteps = 200000;
  double dt = (t1 - t0) / kSteps, sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    sum += gen.RateAt(t0 + (static_cast<double>(i) + 0.5) * dt) * dt;
  }
  EXPECT_NEAR(gen.ExpectedArrivals(t0, t1), sum, 1e-6 * sum);
  EXPECT_LE(gen.RateAt(t0), gen.PeakRate());
}

TEST(ServingTrafficTest, DoublingPeakRateDoublesArrivals) {
  // Metamorphic law: scaling the base rate by 2 exactly doubles the expected
  // arrival count, and empirical counts track the doubling.
  ServingTrafficConfig sc = SmallTraffic();
  ServingTrafficConfig sc2 = sc;
  sc2.base_rate_per_sec *= 2.0;
  const double kHorizon = 3000.0;
  ServingTrafficGenerator g1(sc, Rng(21).Fork("serving"));
  ServingTrafficGenerator g2(sc2, Rng(22).Fork("serving"));
  EXPECT_DOUBLE_EQ(g2.ExpectedArrivals(0.0, kHorizon),
                   2.0 * g1.ExpectedArrivals(0.0, kHorizon));
  EXPECT_DOUBLE_EQ(g2.PeakRate(), 2.0 * g1.PeakRate());
  int64_t n1 = 0, n2 = 0;
  while (g1.Next().arrival_seconds <= kHorizon) {
    ++n1;
  }
  while (g2.Next().arrival_seconds <= kHorizon) {
    ++n2;
  }
  // Var(n2 - 2*n1) = 2*lambda*T + 4*lambda*T = 6*lambda*T for independent
  // Poisson draws; allow 5 sigma.
  double lambda_t = g1.ExpectedArrivals(0.0, kHorizon);
  double sigma = std::sqrt(6.0 * lambda_t);
  EXPECT_NEAR(static_cast<double>(n2), 2.0 * static_cast<double>(n1),
              5.0 * sigma);
}

// ---------------------------------------------------------------------------
// Full-system serving runs.

RlSystemConfig ServingConfig() {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.group_size = 8;
  cfg.num_minibatches = 4;
  cfg.max_concurrency = 128;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.seed = 77;
  cfg.invariants_enabled = true;
  cfg.serving = SmallTraffic();
  return cfg;
}

TEST(ServingSystemTest, ReportConservesRequestsAndBooksDeadlines) {
  SystemReport rep = RunExperiment(ServingConfig());
  EXPECT_TRUE(rep.serving_enabled);
  EXPECT_GT(rep.serving_requests, 0);
  EXPECT_GT(rep.serving_admitted, 0);
  EXPECT_GT(rep.serving_completed, 0);
  // Every arrival is rejected, terminal, or still in flight at run end.
  EXPECT_EQ(rep.serving_requests,
            rep.serving_rejected + rep.serving_completed + rep.serving_timed_out +
                rep.serving_failed + rep.serving_inflight_at_end);
  EXPECT_EQ(rep.serving_deadline_hits + rep.serving_deadline_misses,
            rep.serving_completed);
  EXPECT_LE(rep.serving_completed, rep.serving_admitted);
  EXPECT_GE(rep.serving_slo_attainment, 0.0);
  EXPECT_LE(rep.serving_slo_attainment, 1.0);
  EXPECT_LE(rep.serving_latency_p50_seconds, rep.serving_latency_p99_seconds);
  // The invariant sweep audited the serving ledger live, and held.
  EXPECT_GT(rep.invariant_checks, 0);
  EXPECT_EQ(rep.invariant_violations, 0);
  // The training side still made progress underneath the serving load.
  EXPECT_EQ(rep.iterations_completed, 3);
}

TEST(ServingSystemTest, ServingRunIsByteIdenticalAcrossSweepThreads) {
  std::vector<RlSystemConfig> grid;
  for (uint64_t seed : {77u, 78u, 79u}) {
    RlSystemConfig cfg = ServingConfig();
    cfg.seed = seed;
    grid.push_back(cfg);
  }
  SweepOptions one;
  one.num_threads = 1;
  SweepOptions three;
  three.num_threads = 3;
  std::vector<SystemReport> a = RunExperiments(grid, one);
  std::vector<SystemReport> b = RunExperiments(grid, three);
  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GT(a[i].serving_requests, 0) << "seed " << grid[i].seed;
    EXPECT_EQ(RunFingerprint(a[i]), RunFingerprint(b[i]))
        << "seed " << grid[i].seed;
  }
}

TEST(ServingSystemTest, DisabledTierIsByteInvisible) {
  // A disabled serving tier must leave the run byte-identical to a config
  // that never heard of serving — even when every other serving knob is set.
  RlSystemConfig base = ServingConfig();
  base.serving = ServingTrafficConfig{};
  base.trace.enabled = true;
  RlSystemConfig tweaked = base;
  tweaked.serving = SmallTraffic();
  tweaked.serving.enabled = false;
  SystemReport a = RunExperiment(base);
  SystemReport b = RunExperiment(tweaked);
  EXPECT_FALSE(a.serving_enabled);
  EXPECT_EQ(a.serving_requests, 0);
  EXPECT_EQ(RunFingerprint(a), RunFingerprint(b));
}

TEST(ServingSystemTest, StaticPartitionPinsServingToDedicatedReplicas) {
  RlSystemConfig cfg = ServingConfig();
  cfg.serving.dedicated_replicas = 1;
  cfg.trace.enabled = true;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_GT(rep.serving_admitted, 0);
  // Dedicated mode never needs to evict rollout decode: serving lands only
  // on replicas the rollout engine cannot touch.
  EXPECT_EQ(rep.serving_preemptions, 0);
  ASSERT_NE(rep.trace, nullptr);
  TraceQuery query(*rep.trace);
  std::vector<TraceEvent> admits =
      query.Instants(TraceSelector().Name("manager/serving_admit"));
  ASSERT_FALSE(admits.empty());
  for (const TraceEvent& e : admits) {
    EXPECT_EQ(e.entity, 0) << "serving admitted onto a rollout replica";
  }
  EXPECT_EQ(rep.invariant_violations, 0);
}

TEST(ServingSystemTest, ColocatedModePreemptsRolloutDecodeUnderPressure) {
  // Colocated serving with heavy traffic on a KV-saturated fleet must
  // exercise the serving-preempts-decode path: rollout work parked via the
  // recovery path and later redirected, with zero invariant violations.
  RlSystemConfig cfg = ServingConfig();
  cfg.max_concurrency = 1024;  // saturate per-replica KV with rollout decode
  cfg.serving.base_rate_per_sec = 6.0;
  // Long-context requests: bigger than the rollout admission headroom, so
  // placing one forces an eviction instead of waiting for natural drain.
  cfg.serving.prompt_median_tokens = 16384.0;
  cfg.serving.prompt_max_tokens = 65536;
  cfg.serving.decode_median_tokens = 2048.0;
  cfg.serving.decode_max_tokens = 8192;
  cfg.serving.slo_base_seconds = 600.0;
  cfg.trace.enabled = true;
  SystemReport rep = RunExperiment(cfg);
  EXPECT_GT(rep.serving_admitted, 0);
  EXPECT_GT(rep.serving_preemptions, 0);
  ASSERT_NE(rep.trace, nullptr);
  TraceQuery query(*rep.trace);
  EXPECT_FALSE(query.Instants(TraceSelector().Name("manager/serving_preempt"))
                   .empty());
  EXPECT_EQ(rep.invariant_violations, 0);
  EXPECT_EQ(rep.iterations_completed, 3);
}

// ---------------------------------------------------------------------------
// Chaos interaction: gray failure under serving load.

TEST(ServingChaosTest, FailSlowReplicaViolatesSloBeforeQuarantineThenRecovers) {
  // A replica silently drops to 10% of its speed while serving user
  // traffic. The SLO dashboard is the first casualty: the requests that end
  // up missing their deadlines were admitted *before* the slowness score
  // landed the quarantine — gray failures do serving damage ahead of
  // detection. Once the sick replica is out of rotation and healed, new
  // arrivals go back to hitting their deadlines.
  RlSystemConfig cfg = ServingConfig();
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 4;
  cfg.serving.base_rate_per_sec = 6.0;
  cfg.serving.slo_base_seconds = 15.0;
  cfg.trace.enabled = true;
  const double kFaultAt = 60.0;
  const double kDuration = 100.0;
  auto driver = MakeDriver(cfg);
  auto* sys = static_cast<LaminarSystem*>(driver.get());
  sys->ScheduleFault({kFaultAt, FaultKind::kReplicaSlow, 2, kDuration, 0.10});
  SystemReport rep = driver->Run();

  ASSERT_NE(rep.trace, nullptr);
  TraceQuery query(*rep.trace);
  auto named = [](const char* name) { return TraceSelector().Name(name); };

  std::vector<TraceEvent> quarantines = query.Instants(named("manager/quarantine"));
  ASSERT_FALSE(quarantines.empty()) << "slowness score never fired";
  double quarantine_at = quarantines.front().time;
  EXPECT_GT(quarantine_at, kFaultAt);

  // The gray window did SLO damage before detection could stop it: every
  // serving_miss span begins at the request's arrival, and the earliest
  // miss arrived before the quarantine landed (spans are begin-sorted).
  std::vector<TraceEvent> misses = query.Spans(named("manager/serving_miss"));
  ASSERT_FALSE(misses.empty()) << "fail-slow replica caused no SLO misses";
  EXPECT_LT(misses.front().time, quarantine_at)
      << "first missed request arrived only after the quarantine";

  // Attainment recovers once the fault heals and the quarantine lifts:
  // among requests arriving after the episode, hits dominate again.
  std::vector<TraceEvent> hits = query.Spans(named("manager/serving_hit"));
  double settle = kFaultAt + kDuration + 20.0;
  int64_t late_hits = 0, late_misses = 0;
  for (const TraceEvent& e : hits) {
    if (e.time >= settle) {
      ++late_hits;
    }
  }
  for (const TraceEvent& e : misses) {
    if (e.time >= settle) {
      ++late_misses;
    }
  }
  ASSERT_GT(late_hits + late_misses, 0) << "no completions after recovery";
  double late_attainment =
      static_cast<double>(late_hits) / static_cast<double>(late_hits + late_misses);
  EXPECT_GE(late_attainment, 0.9)
      << late_hits << " hits vs " << late_misses << " misses after recovery";

  EXPECT_GE(rep.slow_events, 1);
  EXPECT_EQ(rep.invariant_violations, 0);
}

// The same scripted drill is bit-reproducible run to run — serving, chaos
// detection, and recovery all ride the deterministic event engine.
TEST(ServingChaosTest, ScriptedGrayFailureDrillIsDeterministic) {
  auto run_once = [] {
    RlSystemConfig cfg = ServingConfig();
    cfg.serving.base_rate_per_sec = 4.0;
    cfg.serving.slo_base_seconds = 30.0;
    auto driver = MakeDriver(cfg);
    auto* sys = static_cast<LaminarSystem*>(driver.get());
    sys->ScheduleFault({60.0, FaultKind::kReplicaSlow, 2, 100.0, 0.10});
    SystemReport rep = driver->Run();
    EXPECT_EQ(rep.invariant_violations, 0);
    return RunFingerprint(rep);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace laminar
