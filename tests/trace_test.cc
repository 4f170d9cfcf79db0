// Unit tests for the structured tracing subsystem (src/trace): buffer and
// ring-eviction semantics, sink emission + macro no-op guarantees, binary and
// Chrome-JSON export round-trips, the TraceQuery operators and interval
// algebra, the metrics registry, and byte-level trace determinism across
// sweep thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/run.h"
#include "src/exp/sweep.h"
#include "src/sim/simulator.h"
#include "src/trace/metrics.h"
#include "src/trace/query.h"
#include "src/trace/trace.h"
#include "src/trace/trace_io.h"
#include "tests/scripted_events.h"

namespace laminar {
namespace {

TraceEvent MakeSpan(double begin, double dur, uint32_t name = 0, int32_t entity = -1) {
  TraceEvent e;
  e.time = begin;
  e.duration = dur;
  e.name = name;
  e.entity = entity;
  e.kind = TraceEventKind::kSpan;
  return e;
}

// --- TraceBuffer -------------------------------------------------------------

TEST(TraceBufferTest, InternsNamesInFirstUseOrder) {
  TraceBuffer buffer;
  uint32_t a = buffer.InternName("alpha");
  uint32_t b = buffer.InternName("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  // Repeat interning returns the existing id.
  EXPECT_EQ(buffer.InternName("alpha"), a);
  EXPECT_EQ(buffer.names().size(), 2u);
  EXPECT_EQ(buffer.name(a), "alpha");
  uint32_t found = 99;
  EXPECT_TRUE(buffer.FindName("beta", &found));
  EXPECT_EQ(found, b);
  EXPECT_FALSE(buffer.FindName("never-emitted", &found));
}

TEST(TraceBufferTest, FullCaptureKeepsEverything) {
  TraceBuffer buffer;
  for (int i = 0; i < 100; ++i) {
    TraceEvent e;
    e.time = i;
    e.arg = i;
    buffer.Add(e);
  }
  EXPECT_EQ(buffer.size(), 100u);
  EXPECT_EQ(buffer.total_emitted(), 100u);
  EXPECT_EQ(buffer.dropped(), 0u);
  std::vector<TraceEvent> events = buffer.InOrder();
  ASSERT_EQ(events.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(events[i].arg, i);
  }
}

TEST(TraceBufferTest, RingModeEvictsOldestAndCountsDrops) {
  TraceBuffer ring(4);
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.arg = i;
    ring.Add(e);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.ring_capacity(), 4u);
  // The survivors are the newest four, still in emission order.
  std::vector<TraceEvent> events = ring.InOrder();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].arg, 6 + i);
  }
}

TEST(TraceBufferTest, RingModeExactlyFullDropsNothing) {
  TraceBuffer ring(5);
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.arg = i;
    ring.Add(e);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceEvent> events = ring.InOrder();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].arg, i);
  }
}

// --- TraceSink + macros ------------------------------------------------------

TEST(TraceSinkTest, StampsEventsWithSimulatorTime) {
  Simulator sim;
  ScriptedEvents script(&sim);
  TraceConfig config;
  config.enabled = true;
  TraceSink sink(&sim, config);
  sim.set_trace(&sink);

  script.At(SimTime(2.0), [&] {
    LAMINAR_TRACE_INSTANT(&sim, TraceComponent::kTrainer, "t/pub", -1, 7);
  });
  script.At(SimTime(5.0), [&] {
    LAMINAR_TRACE_SPAN(&sim, TraceComponent::kReplica, "r/busy", 3, SimTime(4.0), 0, 1.5);
  });
  script.At(SimTime(6.0), [&] {
    LAMINAR_TRACE_COUNTER(&sim, TraceComponent::kData, "d/depth", -1, 42.0);
  });
  sim.RunUntilIdle();

  std::vector<TraceEvent> events = sink.buffer().InOrder();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kInstant);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_EQ(events[0].arg, 7);
  EXPECT_EQ(sink.buffer().name(events[0].name), "t/pub");

  EXPECT_EQ(events[1].kind, TraceEventKind::kSpan);
  EXPECT_DOUBLE_EQ(events[1].time, 4.0);        // caller-supplied begin
  EXPECT_DOUBLE_EQ(events[1].duration, 1.0);    // closed at Now() = 5
  EXPECT_DOUBLE_EQ(events[1].end(), 5.0);
  EXPECT_EQ(events[1].entity, 3);
  EXPECT_DOUBLE_EQ(events[1].value, 1.5);

  EXPECT_EQ(events[2].kind, TraceEventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[2].value, 42.0);
}

TEST(TraceSinkTest, RetroactiveSpanTakesExplicitEnd) {
  Simulator sim;
  ScriptedEvents script(&sim);
  TraceConfig config;
  config.enabled = true;
  TraceSink sink(&sim, config);
  sim.set_trace(&sink);
  // Emitted at t=10 but describing [1, 3): the pattern the trainer uses for
  // per-iteration phase spans reconstructed after the fact.
  script.At(SimTime(10.0), [&] {
    LAMINAR_TRACE_SPAN_AT(&sim, TraceComponent::kTrainer, "t/train", -1, SimTime(1.0),
                          SimTime(3.0), 5);
  });
  sim.RunUntilIdle();
  std::vector<TraceEvent> events = sink.buffer().InOrder();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_DOUBLE_EQ(events[0].duration, 2.0);
  EXPECT_EQ(events[0].arg, 5);
}

TEST(TraceMacroTest, DisabledTracingSkipsArgumentEvaluation) {
  Simulator sim;
  ASSERT_EQ(sim.trace(), nullptr);
  // The macros must compile to a null test only: argument expressions carry
  // side effects here and none may fire. This is the semantic half of the
  // "zero overhead when disabled" guarantee (the perf half is the
  // bench_sim_core delta guard in the README verify recipe).
  int evaluations = 0;
  auto touch = [&](int32_t v) {
    ++evaluations;
    return v;
  };
  LAMINAR_TRACE_INSTANT(&sim, TraceComponent::kTrainer, "t/pub", touch(1));
  LAMINAR_TRACE_SPAN(&sim, TraceComponent::kReplica, "r/busy", touch(2), SimTime(0.0));
  LAMINAR_TRACE_SPAN_AT(&sim, TraceComponent::kReplica, "r/busy", touch(3), SimTime(0.0),
                        SimTime(1.0));
  LAMINAR_TRACE_COUNTER(&sim, TraceComponent::kData, "d/depth", touch(4), 1.0);
  EXPECT_EQ(evaluations, 0);
}

// --- Export round-trips ------------------------------------------------------

TraceBuffer BuildSampleBuffer(size_t ring_capacity = 0) {
  Simulator sim;
  ScriptedEvents script(&sim);
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = ring_capacity;
  TraceSink sink(&sim, config);
  sim.set_trace(&sink);
  for (int i = 0; i < 20; ++i) {
    script.At(SimTime(0.5 * i), [&sim, i] {
      switch (i % 3) {
        case 0:
          LAMINAR_TRACE_INSTANT(&sim, TraceComponent::kTrainer, "trainer/publish", -1, i);
          break;
        case 1:
          LAMINAR_TRACE_SPAN(&sim, TraceComponent::kReplica, "replica/decode_busy", i % 4,
                             sim.Now() - 0.25, i, 0.125 * i);
          break;
        default:
          LAMINAR_TRACE_COUNTER(&sim, TraceComponent::kData, "data/buffer_depth", -1,
                                3.0 * i);
      }
    });
  }
  sim.RunUntilIdle();
  // Copy out: TraceBuffer is a value type.
  return *sink.shared_buffer();
}

TEST(TraceIoTest, BinaryRoundTripIsExact) {
  TraceBuffer original = BuildSampleBuffer();
  std::string bytes = TraceToBinary(original);
  TraceBuffer restored;
  ASSERT_TRUE(TraceFromBinary(bytes, &restored));
  EXPECT_EQ(restored.names(), original.names());
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.dropped(), original.dropped());
  std::vector<TraceEvent> a = original.InOrder();
  std::vector<TraceEvent> b = restored.InOrder();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].arg, b[i].arg);
    EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].entity, b[i].entity);
    EXPECT_EQ(a[i].component, b[i].component);
    EXPECT_EQ(a[i].kind, b[i].kind);
  }
  // Serialize-parse-serialize is byte-stable.
  EXPECT_EQ(TraceToBinary(restored), bytes);
}

TEST(TraceIoTest, BinaryRoundTripPreservesRingDropCount) {
  TraceBuffer ring = BuildSampleBuffer(/*ring_capacity=*/8);
  ASSERT_GT(ring.dropped(), 0u);
  std::string bytes = TraceToBinary(ring);
  TraceBuffer restored;
  ASSERT_TRUE(TraceFromBinary(bytes, &restored));
  EXPECT_EQ(restored.dropped(), ring.dropped());
  EXPECT_EQ(restored.total_emitted(), ring.total_emitted());
}

TEST(TraceIoTest, RejectsMalformedBinary) {
  TraceBuffer out;
  EXPECT_FALSE(TraceFromBinary("", &out));
  EXPECT_FALSE(TraceFromBinary("NOTATRACE", &out));
  std::string good = TraceToBinary(BuildSampleBuffer());
  // Any truncation must be detected, not silently accepted.
  for (size_t cut : {good.size() - 1, good.size() / 2, size_t{9}}) {
    EXPECT_FALSE(TraceFromBinary(good.substr(0, cut), &out)) << "cut=" << cut;
  }
  // Corrupt the magic.
  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(TraceFromBinary(bad_magic, &out));
}

TEST(TraceIoTest, ChromeJsonHasOneRecordPerEventPlusMetadata) {
  TraceBuffer buffer = BuildSampleBuffer();
  std::string json = TraceToChromeJson(buffer);
  auto count = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
      ++n;
    }
    return n;
  };
  std::vector<TraceEvent> events = buffer.InOrder();
  size_t spans = 0, instants = 0, counters = 0;
  for (const TraceEvent& e : events) {
    spans += e.kind == TraceEventKind::kSpan;
    instants += e.kind == TraceEventKind::kInstant;
    counters += e.kind == TraceEventKind::kCounter;
  }
  EXPECT_EQ(count("\"ph\":\"X\""), spans);
  EXPECT_EQ(count("\"ph\":\"i\""), instants);
  EXPECT_EQ(count("\"ph\":\"C\""), counters);
  EXPECT_EQ(count("\"ph\":\"M\""), static_cast<size_t>(kNumTraceComponents));
  // Every interned name appears, quoted, and the document is brace-balanced
  // (no quoting subtleties: event names contain no braces or quotes).
  for (const std::string& name : buffer.names()) {
    EXPECT_GE(count("\"name\":\"" + name + "\""), 1u) << name;
  }
  EXPECT_EQ(count("{"), count("}"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after the root
}

TEST(TraceIoTest, ChromeJsonEscapesNames) {
  TraceBuffer buffer;
  TraceEvent e;
  e.name = buffer.InternName("weird\"name\\with");
  buffer.Add(e);
  std::string json = TraceToChromeJson(buffer);
  EXPECT_NE(json.find("weird\\\"name\\\\with"), std::string::npos);
}

// --- TraceQuery --------------------------------------------------------------

class TraceQueryTest : public ::testing::Test {
 protected:
  TraceQueryTest() {
    TraceConfig config;
    config.enabled = true;
    sink_ = std::make_unique<TraceSink>(&sim_, config);
    sim_.set_trace(sink_.get());
    // A small scripted timeline:
    //   t=1 instant  trainer/publish arg=1
    //   t=2 counter  data/depth = 4
    //   t=5 span     replica/busy entity 0 over [3, 5)
    //   t=6 counter  data/depth = 10
    //   t=7 span     replica/busy entity 1 over [6, 7)
    //   t=8 instant  trainer/publish arg=2
    //   t=9 span     trainer/train over [2, 9)   (retroactive: emitted last,
    //                                             earliest begin)
    script_.At(SimTime(1.0), [this] {
      LAMINAR_TRACE_INSTANT(&sim_, TraceComponent::kTrainer, "trainer/publish", -1, 1);
    });
    script_.At(SimTime(2.0), [this] {
      LAMINAR_TRACE_COUNTER(&sim_, TraceComponent::kData, "data/depth", -1, 4.0);
    });
    script_.At(SimTime(5.0), [this] {
      LAMINAR_TRACE_SPAN(&sim_, TraceComponent::kReplica, "replica/busy", 0, SimTime(3.0));
    });
    script_.At(SimTime(6.0), [this] {
      LAMINAR_TRACE_COUNTER(&sim_, TraceComponent::kData, "data/depth", -1, 10.0);
    });
    script_.At(SimTime(7.0), [this] {
      LAMINAR_TRACE_SPAN(&sim_, TraceComponent::kReplica, "replica/busy", 1, SimTime(6.0));
    });
    script_.At(SimTime(8.0), [this] {
      LAMINAR_TRACE_INSTANT(&sim_, TraceComponent::kTrainer, "trainer/publish", -1, 2);
    });
    script_.At(SimTime(9.0), [this] {
      LAMINAR_TRACE_SPAN_AT(&sim_, TraceComponent::kTrainer, "trainer/train", -1,
                            SimTime(2.0), SimTime(9.0));
    });
    sim_.RunUntilIdle();
    query_ = std::make_unique<TraceQuery>(sink_->buffer());
  }

  Simulator sim_;
  ScriptedEvents script_{&sim_};
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<TraceQuery> query_;
};

TEST_F(TraceQueryTest, SelectsByComponentNameEntityAndWindow) {
  EXPECT_EQ(query_->Events(TraceSelector()).size(), 7u);
  EXPECT_EQ(query_->Events(TraceSelector().Component(TraceComponent::kTrainer)).size(), 3u);
  EXPECT_EQ(query_->Events(TraceSelector().Name("trainer/publish")).size(), 2u);
  EXPECT_EQ(query_->Events(TraceSelector().Name("no/such/event")).size(), 0u);
  EXPECT_EQ(query_->Events(TraceSelector().Entity(1)).size(), 1u);
  // Window selects instants in [after, before)...
  EXPECT_EQ(query_->Instants(TraceSelector().Window(1.0, 8.0)).size(), 1u);
  // ...and spans that *intersect* it: [2,9) and [6,7) intersect (5.5, 6.5);
  // [3,5) ended before the window opens and is excluded.
  EXPECT_EQ(query_->Spans(TraceSelector().Window(5.5, 6.5)).size(), 2u);
  EXPECT_EQ(query_->Spans(TraceSelector().Window(4.9, 6.5)).size(), 3u);
  EXPECT_EQ(query_->Spans(TraceSelector().Window(0.0, 1.0)).size(), 0u);
}

TEST_F(TraceQueryTest, SpansSortByBeginNotEmissionOrder) {
  std::vector<TraceEvent> spans = query_->Spans(TraceSelector());
  ASSERT_EQ(spans.size(), 3u);
  // trainer/train was emitted last but begins first: a retroactively emitted
  // span is indistinguishable from a live one at query time.
  EXPECT_DOUBLE_EQ(spans[0].time, 2.0);
  EXPECT_DOUBLE_EQ(spans[1].time, 3.0);
  EXPECT_DOUBLE_EQ(spans[2].time, 6.0);
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.time < b.time;
                             }));
}

TEST_F(TraceQueryTest, CounterIntegralUsesStepSemantics) {
  TraceSelector depth = TraceSelector().Name("data/depth");
  // 0 before the first sample at t=2; 4 on [2,6); 10 from t=6.
  EXPECT_DOUBLE_EQ(query_->CounterIntegral(depth, 0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(query_->CounterIntegral(depth, 0.0, 10.0), 4.0 * 4 + 10.0 * 4);
  EXPECT_DOUBLE_EQ(query_->CounterIntegral(depth, 3.0, 7.0), 4.0 * 3 + 10.0 * 1);
  EXPECT_DOUBLE_EQ(query_->CounterMean(depth, 2.0, 6.0), 4.0);
  EXPECT_DOUBLE_EQ(query_->CounterMean(depth, 0.0, 10.0), (16.0 + 40.0) / 10.0);
}

TEST_F(TraceQueryTest, HappensBeforeFollowsEmissionOrder) {
  TraceSelector pub = TraceSelector().Name("trainer/publish");
  TraceSelector busy = TraceSelector().Name("replica/busy");
  TraceSelector train = TraceSelector().Name("trainer/train");
  TraceSelector missing = TraceSelector().Name("no/such/event");
  EXPECT_TRUE(query_->HappensBefore(pub, busy));
  EXPECT_FALSE(query_->HappensBefore(busy, pub));
  // trainer/train *begins* at t=2 but was emitted at t=9 — emission order,
  // not begin order, is what counts for causality.
  EXPECT_TRUE(query_->HappensBefore(busy, train));
  // An unmatched selector never satisfies happens-before in either role.
  EXPECT_FALSE(query_->HappensBefore(missing, pub));
  EXPECT_FALSE(query_->HappensBefore(pub, missing));
}

TEST_F(TraceQueryTest, EndTimeIsLargestEventEnd) {
  EXPECT_DOUBLE_EQ(query_->EndTime(), 9.0);
  TraceBuffer empty;
  EXPECT_DOUBLE_EQ(TraceQuery(empty).EndTime(), 0.0);
}

// --- Interval algebra --------------------------------------------------------

TEST(IntervalAlgebraTest, MergeUnionAndTotal) {
  std::vector<TraceEvent> spans = {MakeSpan(0.0, 2.0), MakeSpan(1.0, 2.0),
                                   MakeSpan(5.0, 1.0)};
  EXPECT_DOUBLE_EQ(TotalSeconds(spans), 5.0);  // double-counts the overlap
  std::vector<std::pair<double, double>> merged = MergeSpans(spans);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].first, 0.0);
  EXPECT_DOUBLE_EQ(merged[0].second, 3.0);
  EXPECT_DOUBLE_EQ(merged[1].first, 5.0);
  EXPECT_DOUBLE_EQ(merged[1].second, 6.0);
  EXPECT_DOUBLE_EQ(UnionSeconds(spans), 4.0);
  EXPECT_DOUBLE_EQ(UnionSeconds({}), 0.0);
}

TEST(IntervalAlgebraTest, OverlapSeconds) {
  std::vector<TraceEvent> a = {MakeSpan(0.0, 4.0), MakeSpan(10.0, 2.0)};
  std::vector<TraceEvent> b = {MakeSpan(3.0, 8.0)};
  // intersection: [3,4) and [10,11) -> 2 seconds.
  EXPECT_DOUBLE_EQ(OverlapSeconds(a, b), 2.0);
  EXPECT_DOUBLE_EQ(OverlapSeconds(b, a), 2.0);
  EXPECT_DOUBLE_EQ(OverlapSeconds(a, {}), 0.0);
}

TEST(IntervalAlgebraTest, MaxUncoveredGap) {
  std::vector<TraceEvent> spans = {MakeSpan(2.0, 2.0), MakeSpan(7.0, 1.0)};
  // Over [0, 10]: gaps are [0,2] (2s), [4,7] (3s), [8,10] (2s).
  EXPECT_DOUBLE_EQ(MaxUncoveredGap(spans, 0.0, 10.0), 3.0);
  // Fully covered window has no gap.
  EXPECT_DOUBLE_EQ(MaxUncoveredGap(spans, 2.0, 4.0), 0.0);
  // No spans at all: the whole window is one gap.
  EXPECT_DOUBLE_EQ(MaxUncoveredGap({}, 0.0, 10.0), 10.0);
}

TEST(IntervalAlgebraTest, OverlapsAndContains) {
  TraceEvent outer = MakeSpan(0.0, 10.0);
  TraceEvent inner = MakeSpan(2.0, 3.0);
  TraceEvent disjoint = MakeSpan(11.0, 1.0);
  EXPECT_TRUE(Overlaps(outer, inner));
  EXPECT_TRUE(Overlaps(inner, outer));
  EXPECT_FALSE(Overlaps(outer, disjoint));
  EXPECT_TRUE(Contains(outer, inner));
  EXPECT_FALSE(Contains(inner, outer));
  EXPECT_FALSE(Contains(outer, disjoint));
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, CreateOnFirstUseReturnsStablePointers) {
  MetricsRegistry registry;
  MetricCounter* c = registry.Counter("manager/repack_events");
  EXPECT_EQ(registry.Counter("manager/repack_events"), c);
  c->Add();
  c->Add(3);
  EXPECT_EQ(registry.CounterValue("manager/repack_events"), 4);
  EXPECT_EQ(registry.CounterValue("missing"), 0);

  // Growth must not invalidate previously returned instruments.
  for (int i = 0; i < 200; ++i) {
    registry.Counter("filler/" + std::to_string(i))->Add(i);
  }
  c->Add();
  EXPECT_EQ(registry.CounterValue("manager/repack_events"), 5);

  registry.Gauge("g")->Set(2.5);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("g"), 2.5);
  registry.Samples("s")->Add(1.0);
  ASSERT_NE(registry.FindSamples("s"), nullptr);
  EXPECT_EQ(registry.FindSamples("s")->count(), 1u);
  EXPECT_EQ(registry.FindSamples("nope"), nullptr);
}

TEST(MetricsRegistryTest, EntriesKeepRegistrationOrder) {
  MetricsRegistry registry;
  registry.Counter("b");
  registry.Gauge("a");
  registry.Streaming("c");
  ASSERT_EQ(registry.entries().size(), 3u);
  EXPECT_EQ(registry.entries()[0].name, "b");
  EXPECT_EQ(registry.entries()[1].name, "a");
  EXPECT_EQ(registry.entries()[2].name, "c");
  std::string dump = registry.DumpText();
  EXPECT_LT(dump.find("b"), dump.find("a"));
}

TEST(MetricsRegistryTest, LabeledSpelling) {
  EXPECT_EQ(MetricsRegistry::Labeled("relay/pulls", "relay", "3"),
            "relay/pulls{relay=3}");
}

TEST(MetricsRegistryTest, StreamingStatMatchesClosedForm) {
  StreamingStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138089935299395, 1e-12);  // sample stddev, n-1
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

// --- End-to-end determinism --------------------------------------------------

RlSystemConfig TracedConfig(SystemKind system, uint64_t seed = 1234) {
  RlSystemConfig cfg;
  cfg.system = system;
  cfg.scale = ModelScale::k7B;
  cfg.total_gpus = 16;
  cfg.global_batch = 512;
  cfg.max_concurrency = 256;
  cfg.warmup_iterations = 1;
  cfg.measure_iterations = 2;
  cfg.seed = seed;
  cfg.trace.enabled = true;
  return cfg;
}

TEST(TraceDeterminismTest, ReportCarriesTraceOnlyWhenEnabled) {
  RlSystemConfig cfg = TracedConfig(SystemKind::kLaminar);
  SystemReport on = RunExperiment(cfg);
  ASSERT_NE(on.trace, nullptr);
  EXPECT_GT(on.trace->size(), 100u);
  cfg.trace.enabled = false;
  EXPECT_EQ(RunExperiment(cfg).trace, nullptr);
}

TEST(TraceDeterminismTest, SameSeedSameBytes) {
  RlSystemConfig cfg = TracedConfig(SystemKind::kLaminar);
  SystemReport a = RunExperiment(cfg);
  SystemReport b = RunExperiment(cfg);
  ASSERT_NE(a.trace, nullptr);
  ASSERT_NE(b.trace, nullptr);
  EXPECT_EQ(TraceToBinary(*a.trace), TraceToBinary(*b.trace));
  // A different seed must not produce the same trace (the check has teeth).
  cfg.seed = 99;
  EXPECT_NE(TraceToBinary(*RunExperiment(cfg).trace), TraceToBinary(*a.trace));
}

TEST(TraceDeterminismTest, IdenticalBytesAcrossSweepThreadCounts) {
  // The acceptance bar from DESIGN.md §9: for a fixed seed, trace files are
  // byte-identical no matter how the sweep fans experiments across threads.
  std::vector<RlSystemConfig> grid = {
      TracedConfig(SystemKind::kLaminar),
      TracedConfig(SystemKind::kVerlSync),
      TracedConfig(SystemKind::kOneStep, /*seed=*/77),
  };
  SweepOptions serial;
  serial.num_threads = 1;
  SweepOptions wide;
  wide.num_threads = 4;
  std::vector<SystemReport> a = RunExperiments(grid, serial);
  std::vector<SystemReport> b = RunExperiments(grid, wide);
  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    ASSERT_NE(a[i].trace, nullptr);
    ASSERT_NE(b[i].trace, nullptr);
    EXPECT_EQ(TraceToBinary(*a[i].trace), TraceToBinary(*b[i].trace)) << "config " << i;
    // And the sweep path matches the serial entry point exactly.
    SystemReport direct = RunExperiment(grid[i]);
    EXPECT_EQ(TraceToBinary(*direct.trace), TraceToBinary(*a[i].trace)) << "config " << i;
  }
}

TEST(TraceDeterminismTest, RingCaptureIsDeterministicToo) {
  RlSystemConfig cfg = TracedConfig(SystemKind::kLaminar);
  cfg.trace.ring_capacity = 512;
  SystemReport a = RunExperiment(cfg);
  SystemReport b = RunExperiment(cfg);
  ASSERT_NE(a.trace, nullptr);
  EXPECT_EQ(a.trace->ring_capacity(), 512u);
  EXPECT_GT(a.trace->dropped(), 0u);
  EXPECT_EQ(TraceToBinary(*a.trace), TraceToBinary(*b.trace));
}

}  // namespace
}  // namespace laminar
