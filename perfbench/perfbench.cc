// Repository benchmark: host wall-clock cost of simulating full Laminar
// driver runs, end to end and layer by layer (see perfbench/README.md).
//
//   perfbench --workload math_7B_128gpu --seed 1 --seconds 10 --trace 0
//
// Every experiment is one operation: a complete serial (shards=1) driver run
// whose `seed` and `chaos_seed` derive from --seed and the experiment index.
// Experiments repeat until --seconds of host time have passed (at least one
// always runs), each pinned to the next allowed CPU in turn. The last line
// of stdout is one JSON object; with --trace 0 it carries the end-to-end
// metrics, with --trace 1 the per-layer metrics. Human-readable detail goes
// to stderr.
//
// The traced run works entirely from outside src/: BenchDriver subclasses
// LaminarSystem and, after Setup(), swaps every client registered in the
// simulator's continuation registry for a TimedClient proxy. Proxies keep a
// frame stack and record self time, so a continuation that synchronously
// runs another (a relay pull completion running the manager's
// kContPullComplete) is not counted twice.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/laminar_system.h"
#include "src/verify/oracles.h"

namespace laminar {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  const char* name;
  TaskKind task;
  // Chaos mix with invariants armed, a mid-run LMSNAP1 barrier snapshot and a
  // direct boot from it that finishes the run a second time.
  bool chaos_restore;
  // The layer the traced run must rank first by self time ("" = no check).
  const char* expected_top_layer;
};

constexpr Workload kWorkloads[] = {
    {"math_7B_128gpu", TaskKind::kMathReasoning, false, "rollout.replica.advance"},
    {"tool_7B_128gpu", TaskKind::kToolCalling, false, ""},
    {"chaos_restore_16gpu", TaskKind::kMathReasoning, true, ""},
};

// Barrier time of the chaos_restore snapshot. Every seed's run lasts well
// past it (the shortest of 385 seeds simulated 231 s), and it falls after
// chaos starts at 30 s so faults are in flight when the blob is cut.
constexpr double kChaosBarrierSeconds = 120.0;

// ThroughputConfig(kLaminar, k7B, 128) of the repository's harnesses.
RlSystemConfig ThroughputConfig(TaskKind task) {
  RlSystemConfig cfg;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = ModelScale::k7B;
  cfg.task = task;
  cfg.total_gpus = 128;
  cfg.global_batch = 8192;
  cfg.group_size = 16;
  cfg.num_minibatches = 16;
  cfg.max_concurrency = 1024;
  cfg.warmup_iterations = 2;
  cfg.measure_iterations = 3;
  return cfg;
}

// bench_full_system's ChaosConfig: fail-stop, transient and gray faults.
RlSystemConfig ChaosConfig() {
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
  return cfg;
}

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Experiment `index` of a run with workload seed `seed`.
RlSystemConfig ExperimentConfig(const Workload& w, uint64_t seed, int index) {
  RlSystemConfig cfg = w.chaos_restore ? ChaosConfig() : ThroughputConfig(w.task);
  uint64_t state = seed * 0x100000001B3ull + static_cast<uint64_t>(index);
  cfg.seed = SplitMix64(state) & 0x7FFFFFFF;
  cfg.chaos_seed = SplitMix64(state) & 0x7FFFFFFF;
  if (w.chaos_restore) {
    cfg.snapshot_at_seconds = kChaosBarrierSeconds;
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Layer profiler

// Host self time per (continuation family, kind), plus two pseudo-layers for
// the snapshot work the driver does between or inside events.
class LayerProfiler {
 public:
  static constexpr int kKindSlots = 64;
  static constexpr int kCheckpointSlot = kContFamilyCount * kKindSlots;
  static constexpr int kBarrierSlot = kCheckpointSlot + 1;
  static constexpr int kSlots = kBarrierSlot + 1;

  static int ContinuationSlot(int family, uint16_t kind) {
    return family * kKindSlots + kind % kKindSlots;
  }

  LayerProfiler() { Reset(); }

  void Enter(int slot, uint16_t kind) {
    if (stack_.empty() && slot < kCheckpointSlot) {
      ++top_level_;
    }
    // Two kinds of one family folding onto one slot would merge layers.
    uint32_t tag = kind + 1u;
    if (kinds_[slot] != tag) {
      collision_ |= kinds_[slot] != 0;
      kinds_[slot] = tag;
    }
    stack_.push_back({slot, Clock::duration::zero(), Clock::now()});
  }

  void Exit() {
    Clock::time_point now = Clock::now();
    Frame f = stack_.back();
    stack_.pop_back();
    Clock::duration total = now - f.start;
    self_[f.slot] += total - f.children;
    ++calls_[f.slot];
    if (!stack_.empty()) {
      stack_.back().children += total;
    }
  }

  void Reset() {
    self_.assign(kSlots, Clock::duration::zero());
    calls_.assign(kSlots, 0);
    kinds_.assign(kSlots, 0);
    top_level_ = 0;
    collision_ = false;
  }

  bool idle() const { return stack_.empty(); }
  Clock::duration self(int slot) const { return self_[slot]; }
  uint64_t calls(int slot) const { return calls_[slot]; }
  uint16_t kind(int slot) const { return static_cast<uint16_t>(kinds_[slot] - 1); }
  uint64_t top_level() const { return top_level_; }
  bool collision() const { return collision_; }

 private:
  struct Frame {
    int slot;
    Clock::duration children;
    Clock::time_point start;
  };
  std::vector<Frame> stack_;
  std::vector<Clock::duration> self_;
  std::vector<uint64_t> calls_;
  std::vector<uint32_t> kinds_;
  uint64_t top_level_ = 0;  // continuation dispatches not nested in another
  bool collision_ = false;
};

// Brackets driver-side work (checkpoints, barrier snapshots) as a frame.
class ProfileScope {
 public:
  ProfileScope(LayerProfiler* prof, int slot) : prof_(prof) {
    if (prof_ != nullptr) {
      prof_->Enter(slot, 0);
    }
  }
  ~ProfileScope() {
    if (prof_ != nullptr) {
      prof_->Exit();
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  LayerProfiler* prof_;
};

// Stands in for a registered continuation client and times its bodies.
class TimedClient : public ContinuationClient {
 public:
  TimedClient(ContinuationClient* inner, int family, LayerProfiler* prof)
      : inner_(inner), family_(family), prof_(prof) {}

  void RunContinuation(uint16_t kind, const ContinuationPayload& p) override {
    prof_->Enter(LayerProfiler::ContinuationSlot(family_, kind), kind);
    inner_->RunContinuation(kind, p);
    prof_->Exit();
  }
  void RestoreContinuation(uint16_t kind, const ContinuationPayload& p,
                           SimTime at) override {
    inner_->RestoreContinuation(kind, p, at);
  }

 private:
  ContinuationClient* inner_;
  int family_;
  LayerProfiler* prof_;
};

// Layer name of a profiler slot: the src/ module and continuation kind.
std::string LayerName(int slot, uint16_t kind) {
  if (slot == LayerProfiler::kCheckpointSlot) {
    return "snapshot.checkpoint";
  }
  if (slot == LayerProfiler::kBarrierSlot) {
    return "snapshot.barrier";
  }
  switch (slot / LayerProfiler::kKindSlots) {
    case kContFamilySystem:
      return "core.system";
    case kContFamilyDriver:
      return "core.driver";
    case kContFamilyRelayTier:
      return "relay";
    case kContFamilyHeartbeat:
      return "fault.heartbeat";
    case kContFamilyInjector:
      return "fault.injector";
    case kContFamilyTrainer:
      switch (kind) {
        case Trainer::kContTrainDone:
          return "trainer.train_done";
        case Trainer::kContMinibatchDone:
          return "trainer.minibatch_done";
        case Trainer::kContPublishDone:
          return "trainer.publish_done";
        case Trainer::kContRecover:
        case Trainer::kContCrashRecover:
          return "trainer.recover";
      }
      return "trainer.kind" + std::to_string(kind);
    case kContFamilyManager:
      switch (kind) {
        case RolloutManager::kContPullComplete:
          return "rollout.manager.pull_complete";
        case RolloutManager::kContRedirectRetry:
          return "rollout.manager.redirect_retry";
        case RolloutManager::kContMachineReplaced:
          return "rollout.manager.machine_replaced";
        case RolloutManager::kContStallThaw:
          return "rollout.manager.stall_thaw";
        case RolloutManager::kContTick:
          return "rollout.manager.tick";
        case RolloutManager::kContServingTick:
          return "rollout.manager.serving_tick";
      }
      return "rollout.manager.kind" + std::to_string(kind);
    case kContFamilyReplica:
      switch (kind) {
        case RolloutReplica::kContAdvance:
          return "rollout.replica.advance";
        case RolloutReplica::kContEnvRejoin:
          return "rollout.replica.env_rejoin";
      }
      return "rollout.replica.kind" + std::to_string(kind);
  }
  return "family" + std::to_string(slot / LayerProfiler::kKindSlots);
}

// ---------------------------------------------------------------------------
// Instrumented driver

class BenchDriver : public LaminarSystem {
 public:
  BenchDriver(RlSystemConfig cfg, LayerProfiler* prof)
      : LaminarSystem(std::move(cfg)), prof_(prof) {}

  // When set-up ended: Begin() returned, or for a direct boot the last
  // snapshot walk before the first resumed event (adopt + re-mint, then the
  // boot-barrier re-snapshot).
  Clock::time_point setup_end() const { return setup_end_; }
  uint64_t boot_events() const { return boot_events_; }
  double boot_sim_seconds() const { return boot_sim_seconds_; }
  double checkpoint_seconds() const { return Seconds(checkpoint_); }
  const PartialResponsePool& pool() const { return partial_pool_; }

 protected:
  void Setup() override {
    LaminarSystem::Setup();
    if (prof_ != nullptr) {
      WrapClients();
    }
  }

  void Begin() override {
    LaminarSystem::Begin();
    MarkSetupEnd();
  }

  void OnIteration(const IterationStats& stats) override {
    Clock::time_point start = Clock::now();
    {
      ProfileScope scope(prof_, LayerProfiler::kCheckpointSlot);
      LaminarSystem::OnIteration(stats);
    }
    checkpoint_ += Clock::now() - start;
  }

  void SnapshotComponents(SnapshotTx& tx) override {
    bool booting = restoring() && (!setup_done_ || sim_.executed_events() == boot_events_);
    if (booting) {
      LaminarSystem::SnapshotComponents(tx);
      MarkSetupEnd();
      return;
    }
    ProfileScope scope(prof_, LayerProfiler::kBarrierSlot);
    LaminarSystem::SnapshotComponents(tx);
  }

 private:
  void MarkSetupEnd() {
    setup_end_ = Clock::now();
    boot_events_ = sim_.executed_events();
    boot_sim_seconds_ = sim_.Now().seconds();
    setup_done_ = true;
    if (prof_ != nullptr) {
      LAMINAR_CHECK(prof_->idle());
      prof_->Reset();
    }
  }

  // Every component registers in its constructor, all of which Setup() has
  // run; probing the whole id space keeps this independent of fleet shape.
  void WrapClients() {
    ContinuationRegistry& registry = sim_.continuations();
    for (int family = 0; family < kContFamilyCount; ++family) {
      for (int instance = 0; instance <= 0xFFFF; ++instance) {
        int32_t comp =
            ContinuationComponentId(static_cast<ContinuationFamily>(family), instance);
        ContinuationClient* inner = registry.Find(comp);
        if (inner == nullptr) {
          continue;
        }
        proxies_.push_back(std::make_unique<TimedClient>(inner, family, prof_));
        registry.Unregister(comp);
        registry.Register(comp, proxies_.back().get());
      }
    }
  }

  LayerProfiler* prof_;
  std::vector<std::unique_ptr<TimedClient>> proxies_;
  Clock::time_point setup_end_;
  uint64_t boot_events_ = 0;
  double boot_sim_seconds_ = 0.0;
  bool setup_done_ = false;
  Clock::duration checkpoint_ = Clock::duration::zero();
};

// ---------------------------------------------------------------------------
// Runs

struct LayerStat {
  double self_s = 0.0;
  uint64_t calls = 0;
};

// Host-time totals over one or more driver runs.
struct Totals {
  double setup_s = 0.0;     // construction -> first simulated event
  double sim_host_s = 0.0;  // first simulated event -> Run() returned
  double sim_seconds = 0.0;
  uint64_t events = 0;
  double checkpoint_s = 0.0;
  // Traced runs only.
  std::map<std::string, LayerStat> layers;
  std::vector<uint64_t> slot_calls;  // per (family, kind) profiler slot
  double self_s = 0.0;               // all layers' self time
  uint64_t top_level = 0;            // continuation dispatches not nested in another
  bool collision = false;

  void Add(const Totals& o) {
    setup_s += o.setup_s;
    sim_host_s += o.sim_host_s;
    sim_seconds += o.sim_seconds;
    events += o.events;
    checkpoint_s += o.checkpoint_s;
    for (const auto& [name, l] : o.layers) {
      layers[name].self_s += l.self_s;
      layers[name].calls += l.calls;
    }
    slot_calls.resize(std::max(slot_calls.size(), o.slot_calls.size()));
    for (size_t i = 0; i < o.slot_calls.size(); ++i) {
      slot_calls[i] += o.slot_calls[i];
    }
    self_s += o.self_s;
    top_level += o.top_level;
    collision |= o.collision;
  }
};

// One driver run, from construction to Run() returning.
struct Leg {
  SystemReport report;
  Totals totals;
  int64_t pool_updates = 0;
  int64_t pool_stale = 0;
};

Leg RunLeg(const RlSystemConfig& cfg, bool traced) {
  Leg leg;
  std::unique_ptr<LayerProfiler> prof;
  if (traced) {
    prof = std::make_unique<LayerProfiler>();
  }
  Clock::time_point start = Clock::now();
  auto driver = std::make_unique<BenchDriver>(cfg, prof.get());
  leg.report = driver->Run();
  Clock::time_point end = Clock::now();
  Totals& t = leg.totals;
  t.setup_s = Seconds(driver->setup_end() - start);
  t.sim_host_s = Seconds(end - driver->setup_end());
  t.sim_seconds = leg.report.simulated_seconds - driver->boot_sim_seconds();
  t.events = leg.report.simulated_events - driver->boot_events();
  t.checkpoint_s = driver->checkpoint_seconds();
  leg.pool_updates = driver->pool().updates();
  leg.pool_stale = driver->pool().stale_updates();
  if (traced) {
    t.slot_calls.resize(LayerProfiler::kSlots);
    for (int slot = 0; slot < LayerProfiler::kSlots; ++slot) {
      t.slot_calls[slot] = prof->calls(slot);
      if (prof->calls(slot) == 0) {
        continue;
      }
      LayerStat& l = t.layers[LayerName(slot, prof->kind(slot))];
      double self_s = Seconds(prof->self(slot));
      l.self_s += self_s;
      l.calls += prof->calls(slot);
      t.self_s += self_s;
    }
    t.top_level = prof->top_level();
    t.collision = prof->collision();
  }
  return leg;
}

// One operation: a full run, or for chaos_restore a full run with a barrier
// snapshot followed by a direct boot from that blob.
struct Outcome {
  std::vector<std::string> failures;
  uint64_t fingerprint = 0;
  Totals totals;  // summed over the operation's runs
  double restore_s = 0.0;
  uint64_t blob_bytes = 0;
  bool boot_drift = false;  // boot re-snapshot differs from the barrier blob
  Leg full;                 // the uninterrupted run (witness counters)
};

void AuditLeg(const RlSystemConfig& cfg, const Leg& leg, const char* what,
              std::vector<std::string>& failures) {
  int target = cfg.warmup_iterations + cfg.measure_iterations;
  if (leg.report.iterations_completed < target) {
    failures.push_back(std::string(what) + ": completed " +
                       std::to_string(leg.report.iterations_completed) + " of " +
                       std::to_string(target) + " iterations");
  }
  if (leg.report.invariant_violations != 0) {
    failures.push_back(std::string(what) + ": " +
                       std::to_string(leg.report.invariant_violations) +
                       " invariant violations");
  }
}

Outcome RunOperation(const Workload& w, const RlSystemConfig& cfg, bool traced) {
  Outcome out;
  out.full = RunLeg(cfg, traced);
  const SystemReport& full = out.full.report;
  AuditLeg(cfg, out.full, "run", out.failures);
  out.fingerprint = FingerprintHash(full);
  out.totals.Add(out.full.totals);
  if (w.chaos_restore) {
    if (full.snapshot == nullptr) {
      out.failures.push_back("barrier snapshot missed");
      return out;
    }
    out.blob_bytes = full.snapshot->size();
    RlSystemConfig boot_cfg = cfg;
    boot_cfg.snapshot_at_seconds = 0.0;
    boot_cfg.restore_from = full.snapshot;
    boot_cfg.restore_mode = RestoreMode::kDirect;
    Leg boot = RunLeg(boot_cfg, traced);
    AuditLeg(boot_cfg, boot, "direct boot", out.failures);
    // Reported, not gated: the resumed run is what the gate checks, and a
    // few seeds leave relay_tier/relays state unseated after adoption
    // while the resumed run still matches (perfbench/README.md).
    out.boot_drift =
        boot.report.snapshot == nullptr || *boot.report.snapshot != *full.snapshot;
    if (RunFingerprint(boot.report) != RunFingerprint(full)) {
      out.failures.push_back("direct boot fingerprint differs from the full run");
    }
    out.restore_s = boot.report.restore_wall_seconds;
    out.totals.Add(boot.totals);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Median, and the worst-side percentile that still has ten samples beyond it.
void PrintDistribution(const char* name, std::vector<double> v, bool lower_is_better) {
  std::sort(v.begin(), v.end());
  if (!lower_is_better) {
    std::reverse(v.begin(), v.end());
  }
  std::fprintf(stderr, "%s: median %.6g over %zu samples", name, Median(v), v.size());
  if (v.size() > 10) {
    size_t k = v.size() - 11;  // v[k] has exactly ten worse samples beyond it
    std::fprintf(stderr, ", p%.0f %.6g", 100.0 * static_cast<double>(k + 1) /
                                             static_cast<double>(v.size()), v[k]);
  }
  std::fprintf(stderr, "\n");
}

uint64_t Fnv1aMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[384];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value, unit);
    body_ += buf;
    std::fprintf(stderr, "  %-40s %.6g %s\n", name.c_str(), value, unit);
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

// The CPUs this process may run on. Operations rotate over them: on a shared
// host each core's contention from other tenants differs and shifts over
// minutes, so a run pinned wherever the scheduler first put it would
// measure that core rather than the host.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: on failure, stay put
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) {
          opt.workload = &w;
        }
      }
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value);
        return false;
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opt.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      opt.trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && opt.workload != nullptr && opt.seconds > 0.0;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload {math_7B_128gpu|tool_7B_128gpu|"
                 "chaos_restore_16gpu} --seed N --seconds S --trace {0|1}\n",
                 argv[0]);
    return 2;
  }
  const Workload& w = *opt.workload;
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d\n", w.name,
               static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);

  int attempted = 0;
  int failed = 0;
  bool self_check_ok = true;
  uint64_t combined = 0xCBF29CE484222325ull;
  uint64_t first_fingerprint = 0;
  int boot_drifts = 0;
  // Untraced runs: one sample per operation, and totals.
  std::vector<double> eps, sim_rate, setup, run_sim_seconds;
  Totals untraced;
  // Traced runs: totals, and the first operation, whose counts are
  // deterministic in --seed.
  Totals traced;
  double restore_s = 0.0;
  Outcome first;
  std::vector<int> cpus = AllowedCpus();

  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (int index = 0; index == 0 || Clock::now() < deadline; ++index) {
    if (!cpus.empty()) {
      PinToCpu(cpus[static_cast<size_t>(index) % cpus.size()]);
    }
    RlSystemConfig cfg = ExperimentConfig(w, opt.seed, index);
    ++attempted;
    Outcome base = RunOperation(w, cfg, /*traced=*/false);
    std::vector<std::string> failures = base.failures;
    if (index == 0) {
      first_fingerprint = base.fingerprint;
    }
    combined = Fnv1aMix(combined, base.fingerprint);
    const Totals& t = base.totals;
    eps.push_back(Ratio(static_cast<double>(t.events), t.sim_host_s));
    sim_rate.push_back(Ratio(t.sim_seconds, t.sim_host_s));
    setup.push_back(t.setup_s);
    run_sim_seconds.push_back(base.full.report.simulated_seconds);
    untraced.Add(t);
    if (base.boot_drift) {
      ++boot_drifts;
      std::fprintf(stderr,
                   "operation %d (seed %llu, chaos_seed %llu): boot re-snapshot differs "
                   "from the barrier blob\n",
                   index, static_cast<unsigned long long>(cfg.seed),
                   static_cast<unsigned long long>(cfg.chaos_seed));
    }

    if (opt.trace) {
      Outcome op = RunOperation(w, cfg, /*traced=*/true);
      failures.insert(failures.end(), op.failures.begin(), op.failures.end());
      if (op.fingerprint != base.fingerprint) {
        failures.push_back("traced run fingerprint differs from the untraced run");
      }
      if (op.totals.collision) {
        failures.push_back("two continuation kinds shared one profiler slot");
      }
      if (index == 0) {
        // The per-(family, kind) counts are simulated, so a second traced
        // run must reproduce them exactly.
        Outcome again = RunOperation(w, cfg, /*traced=*/true);
        if (again.totals.slot_calls != op.totals.slot_calls) {
          std::fprintf(stderr, "self-check FAILED: per-(family, kind) event counts "
                               "differ between two traced runs\n");
          self_check_ok = false;
        }
      }
      traced.Add(op.totals);
      restore_s += op.restore_s;
      if (index == 0) {
        first = std::move(op);
      }
    }
    if (!failures.empty()) {
      ++failed;
      for (const std::string& f : failures) {
        std::fprintf(stderr, "operation %d (seed %llu) FAILED: %s\n", index,
                     static_cast<unsigned long long>(cfg.seed), f.c_str());
      }
    }
  }

  std::fprintf(stderr, "operations: %d attempted, %d failed\n", attempted, failed);
  if (w.chaos_restore) {
    std::fprintf(stderr, "boot re-snapshot drift: %d of %d operations\n", boot_drifts,
                 attempted);
  }
  std::fprintf(stderr, "simulated seconds per run: min %.1f median %.1f max %.1f\n",
               *std::min_element(run_sim_seconds.begin(), run_sim_seconds.end()),
               Median(run_sim_seconds),
               *std::max_element(run_sim_seconds.begin(), run_sim_seconds.end()));
  std::fprintf(stderr, "fingerprint: first=%016llx combined(%d)=%016llx\n",
               static_cast<unsigned long long>(first_fingerprint), attempted,
               static_cast<unsigned long long>(combined));

  JsonMetrics m;
  if (!opt.trace) {
    PrintDistribution("events_per_sec per operation", eps, false);
    PrintDistribution("setup_s per operation", setup, true);
    m.Add("events_per_sec", Median(eps), "1/s");
    m.Add("sim_s_per_host_s", Median(sim_rate), "s/s");
    m.Add("setup_s", Median(setup), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    double n = static_cast<double>(attempted);
    auto self_s = [&](const std::string& layer) { return traced.layers[layer].self_s / n; };
    // Calls, in the first operation, of the layers whose names start with `prefix`.
    auto first_calls = [&](const std::string& prefix) {
      double calls = 0.0;
      for (const auto& [name, l] : first.totals.layers) {
        if (name.rfind(prefix, 0) == 0) {
          calls += static_cast<double>(l.calls);
        }
      }
      return calls;
    };
    const LayerStat& advance = traced.layers["rollout.replica.advance"];
    double uncovered = traced.sim_host_s - traced.self_s;

    // Self-check: ranking by self time, and coverage of the sim phase.
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [name, l] : traced.layers) {
      ranked.push_back({l.self_s, name});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    std::fprintf(stderr, "layer self time over %d traced operation(s):\n", attempted);
    for (const auto& [s, name] : ranked) {
      std::fprintf(stderr, "  %-36s %6.2f%%  %llu calls\n", name.c_str(),
                   100.0 * Ratio(s, traced.sim_host_s),
                   static_cast<unsigned long long>(traced.layers[name].calls));
    }
    std::fprintf(stderr, "  %-36s %6.2f%%  (dispatch and report assembly)\n",
                 "uncovered remainder", 100.0 * Ratio(uncovered, traced.sim_host_s));
    if (uncovered < 0.0) {
      std::fprintf(stderr, "self-check FAILED: self times exceed the sim phase\n");
      self_check_ok = false;
    }
    if (*w.expected_top_layer != '\0' &&
        (ranked.empty() || ranked.front().second != w.expected_top_layer)) {
      std::fprintf(stderr, "self-check FAILED: %s does not rank first\n",
                   w.expected_top_layer);
      self_check_ok = false;
    }

    const SystemReport& report = first.full.report;
    m.Add("rollout.replica.advance.self_s", self_s("rollout.replica.advance"), "s");
    m.Add("rollout.replica.advance.events", first_calls("rollout.replica.advance"), "count");
    m.Add("rollout.replica.advance.ns_per_event",
          1e9 * Ratio(advance.self_s, static_cast<double>(advance.calls)), "ns");
    m.Add("rollout.replica.env_rejoin.self_s", self_s("rollout.replica.env_rejoin"), "s");
    m.Add("rollout.replica.env_rejoin.events", first_calls("rollout.replica.env_rejoin"),
          "count");
    m.Add("sim.dispatch_ns_per_event",
          1e9 * Ratio(uncovered, static_cast<double>(traced.events)), "ns");
    m.Add("sim.events", static_cast<double>(first.totals.events), "count");
    m.Add("sim.closure_events",
          static_cast<double>(first.totals.events) - static_cast<double>(first.totals.top_level),
          "count");
    for (const char* kind : {"pull_complete", "tick", "redirect_retry", "machine_replaced"}) {
      m.Add(std::string("rollout.manager.") + kind + ".self_s",
            self_s(std::string("rollout.manager.") + kind), "s");
    }
    m.Add("rollout.manager.events", first_calls("rollout.manager."), "count");
    for (const char* layer : {"fault.heartbeat", "fault.injector", "core.system",
                              "core.driver", "trainer.publish_done", "trainer.train_done",
                              "trainer.recover", "relay"}) {
      m.Add(std::string(layer) + ".self_s", self_s(layer), "s");
    }
    m.Add("snapshot.checkpoint_s", traced.checkpoint_s / n, "s");
    m.Add("snapshot.restore_s", restore_s / n, "s");
    m.Add("snapshot.blob_bytes", static_cast<double>(first.blob_bytes), "bytes");
    m.Add("data.pool.updates", static_cast<double>(first.full.pool_updates), "count");
    m.Add("data.pool.stale_frac",
          Ratio(static_cast<double>(first.full.pool_stale),
                static_cast<double>(first.full.pool_updates)),
          "fraction");
    m.Add("fault.faults_injected", static_cast<double>(report.faults_injected), "count");
    m.Add("fault.trajectories_dropped", static_cast<double>(report.trajectories_dropped),
          "count");
    m.Add("fault.invariant_checks", static_cast<double>(report.invariant_checks), "count");
    m.Add("repack.events", static_cast<double>(report.repack_events), "count");
    m.Add("repack.trajectories_migrated",
          static_cast<double>(report.repack_trajectories_migrated), "count");
    m.Add("rollout.avg_decode_batch", report.avg_decode_batch, "seqs");
    m.Add("rollout.decode_tokens", static_cast<double>(report.total_decode_tokens), "count");
    m.Add("rollout.preemptions", static_cast<double>(report.total_preemptions), "count");
    double traced_eps = Ratio(static_cast<double>(traced.events), traced.sim_host_s);
    double untraced_eps = Ratio(static_cast<double>(untraced.events), untraced.sim_host_s);
    m.Add("trace.overhead_frac", 1.0 - Ratio(traced_eps, untraced_eps), "fraction");
    m.Add("trace.uncovered_frac", Ratio(uncovered, traced.sim_host_s), "fraction");
  }

  bool correct = failed == 0 && self_check_ok;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, m.body().c_str());
  return 0;
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) { return laminar::Main(argc, argv); }
