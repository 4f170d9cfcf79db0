#include "src/verify/scenario.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace laminar {
namespace {

// Upper bound on one chaos class's expected fault count over the chaos
// window: far above any drill's need, far below a schedule that exhausts
// memory.
constexpr double kMaxExpectedFaults = 1.0e6;

// Upper bound on the serving tier's expected peak arrivals over the run
// cap: GenerateScenario draws at most ~1.1e6 (3/s at amplitude 0.8 over
// 200,000 s), and a rate far past this allocates until memory runs out.
constexpr double kMaxExpectedServingArrivals = 1.0e7;

// The one conversion every integer scenario key parses through: `num` must
// be integral and inside [lo, hi], by default the range of the field's type,
// because casting anything else is undefined behaviour.
template <typename T>
bool IntegerKey(const std::string& key, const std::string& value, double num, T* field,
                std::string* error, T lo = std::numeric_limits<T>::min(),
                T hi = std::numeric_limits<T>::max()) {
  // `hi + 1.0` is exact for int and rounds to 2^63 for int64_t, so the
  // upper test is exact for both; NaN fails every comparison.
  if (!(num >= static_cast<double>(lo) && num < static_cast<double>(hi) + 1.0) ||
      num != std::trunc(num)) {
    *error = "key '" + key + "' takes an integer in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "], got '" + value + "'";
    return false;
  }
  *field = static_cast<T>(num);
  return true;
}

// Seeds are full 64-bit values, so they parse as decimal digits, not
// through strtod.
bool SeedKey(const std::string& key, const std::string& value, uint64_t* field,
             std::string* error) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] < '0' || value[0] > '9' || *end != '\0' || errno == ERANGE) {
    *error = "key '" + key + "' takes a decimal integer, got '" + value + "'";
    return false;
  }
  *field = v;
  return true;
}

// Arms one chaos class: Bernoulli gate, then a log-uniform rate so the
// schedule mixes quiet and violent classes.
double DrawRate(Rng& r) {
  if (!r.Bernoulli(0.5)) {
    return 0.0;
  }
  return std::exp(r.Uniform(std::log(2.0), std::log(60.0)));
}

const char* ScaleKey(ModelScale scale) {
  switch (scale) {
    case ModelScale::k7B:
      return "7b";
    case ModelScale::k32B:
      return "32b";
    case ModelScale::k72B:
      return "72b";
  }
  return "7b";
}

const char* TaskKey(TaskKind task) {
  return task == TaskKind::kToolCalling ? "tool" : "math";
}

const char* SamplerKey(SamplerKind sampler) {
  switch (sampler) {
    case SamplerKind::kFifo:
      return "fifo";
    case SamplerKind::kFreshness:
      return "freshness";
    case SamplerKind::kStalenessCapped:
      return "staleness_capped";
  }
  return "fifo";
}

// Every key the parser dispatches on. Anything outside this list warns and
// is skipped (forward compatibility with corpus files written by newer
// binaries). A key added to the dispatch chain but forgotten here would be
// silently skipped — which the byte-exact round-trip test catches, since the
// re-emitted default would no longer match the input.
bool KnownScenarioKey(const std::string& key) {
  static const char* const kKeys[] = {
      "seed",           "scale",
      "task",           "sampler",
      "train_gpus",     "rollout_gpus",
      "global_batch",   "group_size",
      "num_minibatches", "max_concurrency",
      "backlog_cap",    "staleness_cap",
      "repack",         "repack_period",
      "static_threshold", "static_threshold_requests",
      "partial_rollout", "length_drift",
      "chaos",          "chaos_seed",
      "chaos_start",    "chaos_horizon",
      "rate_machine_fail", "rate_relay_fail",
      "rate_master_fail", "rate_trainer_fail",
      "rate_machine_stall", "rate_link_flap",
      "rate_replica_slow", "rate_message_drop",
      "crash_restart_rate", "snapshot_at",
      "warmup",         "measure",
      "config_seed",    "diff_sync",
      "diff_repack",    "plan_cases",
      "serving",        "serving_rate",
      "serving_amplitude", "serving_period",
      "serving_slo_base", "serving_slo_per_token",
      "serving_dedicated",
  };
  for (const char* k : kKeys) {
    if (key == k) {
      return true;
    }
  }
  return false;
}

}  // namespace

Scenario GenerateScenario(uint64_t seed) {
  Scenario scn;
  scn.seed = seed;
  Rng r = Rng(seed).Fork("scenario");

  RlSystemConfig& cfg = scn.config;
  cfg.system = SystemKind::kLaminar;
  cfg.scale = r.Bernoulli(0.85) ? ModelScale::k7B : ModelScale::k32B;
  cfg.task = r.Bernoulli(0.70) ? TaskKind::kMathReasoning : TaskKind::kToolCalling;

  // Topology. Rollout GPUs are a whole number of Laminar-TP replicas; the
  // total stays divisible by the sync baseline's TP (2 for 7B, 4 for 32B) so
  // the colocated twin tiles the same cluster.
  int tp = RolloutTensorParallel(SystemKind::kLaminar, cfg.scale);
  if (cfg.scale == ModelScale::k7B) {
    int replicas = 2 * static_cast<int>(r.UniformInt(1, 3));  // 2/4/6
    cfg.rollout_gpus = replicas * tp;
  } else {
    cfg.rollout_gpus = tp * static_cast<int>(r.UniformInt(2, 3));
  }
  cfg.train_gpus = r.Bernoulli(0.5) ? 4 : 8;
  cfg.total_gpus = cfg.train_gpus + cfg.rollout_gpus;

  // RL shape. Batches are small enough that a scenario simulates in well
  // under a second; every group count exceeds the replica count so static
  // sharding never hands a replica an empty chunk.
  cfg.group_size = 4 << r.UniformInt(0, 2);  // 4/8/16
  int num_groups = static_cast<int>(r.UniformInt(8, 40));
  cfg.global_batch = num_groups * cfg.group_size;
  cfg.num_minibatches = 4;
  cfg.max_concurrency = 64 << r.UniformInt(0, 2);  // 64/128/256
  cfg.per_replica_batch = 0;
  cfg.backlog_cap = r.Bernoulli(0.25) ? cfg.global_batch * 3 / 2 : 0;

  switch (r.UniformInt(0, 2)) {
    case 0:
      cfg.sampler = SamplerKind::kFifo;
      break;
    case 1:
      cfg.sampler = SamplerKind::kFreshness;
      break;
    default:
      cfg.sampler = SamplerKind::kStalenessCapped;
      break;
  }
  cfg.staleness_cap = static_cast<int>(r.UniformInt(1, 6));

  cfg.repack_enabled = r.Bernoulli(0.8);
  cfg.repack_period_seconds = r.Uniform(2.0, 8.0);
  cfg.repack_static_threshold = cfg.repack_enabled && r.Bernoulli(0.25);
  cfg.repack_static_threshold_requests = static_cast<int>(r.UniformInt(4, 12));
  cfg.laminar_partial_rollout = r.Bernoulli(0.15);
  cfg.length_drift = r.Bernoulli(0.2);

  cfg.chaos_enabled = r.Bernoulli(0.6);
  cfg.chaos_seed = seed;
  cfg.chaos.start_seconds = r.Uniform(20.0, 60.0);
  cfg.chaos.horizon_seconds = 3600.0;
  cfg.chaos.machine_fail_per_hour = DrawRate(r);
  cfg.chaos.relay_fail_per_hour = DrawRate(r);
  cfg.chaos.master_fail_per_hour = DrawRate(r);
  cfg.chaos.trainer_fail_per_hour = DrawRate(r);
  cfg.chaos.machine_stall_per_hour = DrawRate(r);
  cfg.chaos.link_flap_per_hour = DrawRate(r);
  cfg.chaos.replica_slow_per_hour = DrawRate(r);
  cfg.chaos.message_drop_per_hour = DrawRate(r);
  double total_rate = cfg.chaos.machine_fail_per_hour + cfg.chaos.relay_fail_per_hour +
                      cfg.chaos.master_fail_per_hour + cfg.chaos.trainer_fail_per_hour +
                      cfg.chaos.machine_stall_per_hour + cfg.chaos.link_flap_per_hour +
                      cfg.chaos.replica_slow_per_hour + cfg.chaos.message_drop_per_hour;
  if (cfg.chaos_enabled && total_rate == 0.0) {
    cfg.chaos.machine_stall_per_hour = 30.0;  // chaos armed means chaos happens
  }
  // Crash-restart chaos is drawn from its own forked stream, appended after
  // every pre-existing draw, so the scenarios older seeds generate are
  // byte-identical to what they produced before this class existed.
  Rng cr = Rng(seed).Fork("crash-restart");
  if (cfg.chaos_enabled && cr.Bernoulli(0.35)) {
    cfg.chaos.crash_restart_per_hour =
        std::exp(cr.Uniform(std::log(2.0), std::log(30.0)));
  }
  // The serving-tier axis likewise draws from its own forked stream, so
  // pre-existing seeds keep generating byte-identical scenarios.
  Rng sv = Rng(seed).Fork("serving");
  if (sv.Bernoulli(0.30)) {
    cfg.serving.enabled = true;
    cfg.serving.base_rate_per_sec = sv.Uniform(0.5, 3.0);
    cfg.serving.diurnal_amplitude = sv.Uniform(0.2, 0.8);
    cfg.serving.diurnal_period_seconds = sv.Uniform(120.0, 900.0);
    cfg.serving.slo_base_seconds = sv.Uniform(20.0, 90.0);
    cfg.serving.slo_per_token_seconds = sv.Uniform(0.02, 0.1);
    if (sv.Bernoulli(0.25)) {
      cfg.serving.dedicated_replicas = 1;  // static-partition admission path
    }
  }

  cfg.warmup_iterations = 1;
  cfg.measure_iterations = static_cast<int>(r.UniformInt(1, 2));
  cfg.seed = Rng(seed).Fork("config-seed").NextU64();

  // Every primary run is fully audited: invariants, the push ledger, and a
  // full trace capture (the determinism oracle hashes its binary form).
  cfg.invariants_enabled = true;
  cfg.ledger_enabled = true;
  cfg.trace.enabled = true;
  cfg.trace.ring_capacity = 0;

  scn.diff_sync = r.Bernoulli(0.8);
  scn.diff_repack = cfg.repack_enabled && r.Bernoulli(0.8);
  scn.plan_cases = 32;
  return scn;
}

RlSystemConfig CleanConfig(const RlSystemConfig& primary) {
  RlSystemConfig cfg = primary;
  cfg.chaos_enabled = false;
  cfg.length_drift = false;
  // Twins run the tier off: serving perturbs scheduling but never the
  // trajectory specs the differential oracles compare, and the sync twin's
  // driver has no admission path at all.
  cfg.serving = ServingTrafficConfig{};
  cfg.trace.enabled = false;  // the determinism oracle runs on the primary
  cfg.ledger_enabled = true;
  cfg.invariants_enabled = true;
  return cfg;
}

RlSystemConfig SyncTwin(const RlSystemConfig& primary) {
  RlSystemConfig cfg = CleanConfig(primary);
  cfg.system = SystemKind::kVerlSync;
  // Colocated: every GPU alternates between training and rollout.
  cfg.train_gpus = cfg.total_gpus;
  cfg.rollout_gpus = cfg.total_gpus;
  cfg.laminar_partial_rollout = false;
  cfg.invariants_enabled = false;  // the checker is wired by the Laminar driver
  return cfg;
}

RlSystemConfig RepackOffTwin(const RlSystemConfig& primary) {
  RlSystemConfig cfg = CleanConfig(primary);
  cfg.repack_enabled = false;
  cfg.repack_static_threshold = false;
  return cfg;
}

std::string ScenarioToText(const Scenario& scn) {
  const RlSystemConfig& cfg = scn.config;
  std::ostringstream out;
  out << "# laminar fuzz scenario v1\n";
  out << "seed=" << scn.seed << "\n";
  out << "scale=" << ScaleKey(cfg.scale) << "\n";
  out << "task=" << TaskKey(cfg.task) << "\n";
  out << "train_gpus=" << cfg.train_gpus << "\n";
  out << "rollout_gpus=" << cfg.rollout_gpus << "\n";
  out << "global_batch=" << cfg.global_batch << "\n";
  out << "group_size=" << cfg.group_size << "\n";
  out << "num_minibatches=" << cfg.num_minibatches << "\n";
  out << "max_concurrency=" << cfg.max_concurrency << "\n";
  out << "backlog_cap=" << cfg.backlog_cap << "\n";
  out << "sampler=" << SamplerKey(cfg.sampler) << "\n";
  out << "staleness_cap=" << cfg.staleness_cap << "\n";
  out << "repack=" << (cfg.repack_enabled ? 1 : 0) << "\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", cfg.repack_period_seconds);
  out << "repack_period=" << buf << "\n";
  out << "static_threshold=" << (cfg.repack_static_threshold ? 1 : 0) << "\n";
  out << "static_threshold_requests=" << cfg.repack_static_threshold_requests << "\n";
  out << "partial_rollout=" << (cfg.laminar_partial_rollout ? 1 : 0) << "\n";
  out << "length_drift=" << (cfg.length_drift ? 1 : 0) << "\n";
  out << "chaos=" << (cfg.chaos_enabled ? 1 : 0) << "\n";
  out << "chaos_seed=" << cfg.chaos_seed << "\n";
  auto emit_double = [&out, &buf](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << key << "=" << buf << "\n";
  };
  emit_double("chaos_start", cfg.chaos.start_seconds);
  emit_double("chaos_horizon", cfg.chaos.horizon_seconds);
  emit_double("rate_machine_fail", cfg.chaos.machine_fail_per_hour);
  emit_double("rate_relay_fail", cfg.chaos.relay_fail_per_hour);
  emit_double("rate_master_fail", cfg.chaos.master_fail_per_hour);
  emit_double("rate_trainer_fail", cfg.chaos.trainer_fail_per_hour);
  emit_double("rate_machine_stall", cfg.chaos.machine_stall_per_hour);
  emit_double("rate_link_flap", cfg.chaos.link_flap_per_hour);
  emit_double("rate_replica_slow", cfg.chaos.replica_slow_per_hour);
  emit_double("rate_message_drop", cfg.chaos.message_drop_per_hour);
  if (cfg.chaos.crash_restart_per_hour != 0.0) {
    // Emitted only when armed, so pre-existing corpus files and their
    // byte-exact round-trips are untouched.
    emit_double("crash_restart_rate", cfg.chaos.crash_restart_per_hour);
  }
  out << "warmup=" << cfg.warmup_iterations << "\n";
  out << "measure=" << cfg.measure_iterations << "\n";
  if (cfg.snapshot_at_seconds != 0.0) {
    emit_double("snapshot_at", cfg.snapshot_at_seconds);
  }
  if (cfg.serving.enabled) {
    // Armed-only, like crash_restart_rate=: serving-off corpus files
    // round-trip byte-identically to what older binaries wrote.
    out << "serving=1\n";
    emit_double("serving_rate", cfg.serving.base_rate_per_sec);
    emit_double("serving_amplitude", cfg.serving.diurnal_amplitude);
    emit_double("serving_period", cfg.serving.diurnal_period_seconds);
    emit_double("serving_slo_base", cfg.serving.slo_base_seconds);
    emit_double("serving_slo_per_token", cfg.serving.slo_per_token_seconds);
    out << "serving_dedicated=" << cfg.serving.dedicated_replicas << "\n";
  }
  out << "config_seed=" << cfg.seed << "\n";
  out << "diff_sync=" << (scn.diff_sync ? 1 : 0) << "\n";
  out << "diff_repack=" << (scn.diff_repack ? 1 : 0) << "\n";
  out << "plan_cases=" << scn.plan_cases << "\n";
  return out.str();
}

bool ScenarioFromText(const std::string& text, Scenario* out, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  std::map<std::string, std::string> kv;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    size_t eq = line.find('=', first);
    if (eq == std::string::npos) {
      return fail("line " + std::to_string(line_no) + ": expected key=value");
    }
    size_t last = line.find_last_not_of(" \t\r");
    kv[line.substr(first, eq - first)] = line.substr(eq + 1, last - eq);
  }

  Scenario scn;
  RlSystemConfig& cfg = scn.config;
  cfg.system = SystemKind::kLaminar;
  cfg.num_minibatches = 4;
  cfg.per_replica_batch = 0;
  cfg.chaos.horizon_seconds = 3600.0;
  cfg.invariants_enabled = true;
  cfg.ledger_enabled = true;
  cfg.trace.enabled = true;

  for (const auto& [key, value] : kv) {
    if (!KnownScenarioKey(key)) {
      LAMINAR_LOG(kWarning) << "scenario: skipping unknown key '" << key << "="
                            << value << "'";
      continue;
    }
    char* end = nullptr;
    double num = std::strtod(value.c_str(), &end);
    bool numeric = end != nullptr && *end == '\0' && !value.empty();
    auto need_num = [&]() { return numeric; };
    std::string bad;
    bool ok = true;
    if (key == "seed") {
      ok = SeedKey(key, value, &scn.seed, &bad);
    } else if (key == "chaos_seed") {
      ok = SeedKey(key, value, &cfg.chaos_seed, &bad);
    } else if (key == "config_seed") {
      ok = SeedKey(key, value, &cfg.seed, &bad);
    } else if (key == "scale") {
      if (value == "7b") {
        cfg.scale = ModelScale::k7B;
      } else if (value == "32b") {
        cfg.scale = ModelScale::k32B;
      } else if (value == "72b") {
        cfg.scale = ModelScale::k72B;
      } else {
        return fail("bad scale '" + value + "'");
      }
    } else if (key == "task") {
      if (value == "math") {
        cfg.task = TaskKind::kMathReasoning;
      } else if (value == "tool") {
        cfg.task = TaskKind::kToolCalling;
      } else {
        return fail("bad task '" + value + "'");
      }
    } else if (key == "sampler") {
      if (value == "fifo") {
        cfg.sampler = SamplerKind::kFifo;
      } else if (value == "freshness") {
        cfg.sampler = SamplerKind::kFreshness;
      } else if (value == "staleness_capped") {
        cfg.sampler = SamplerKind::kStalenessCapped;
      } else {
        return fail("bad sampler '" + value + "'");
      }
    } else if (!need_num()) {
      return fail("key '" + key + "': non-numeric value '" + value + "'");
    } else if (key == "train_gpus") {
      ok = IntegerKey(key, value, num, &cfg.train_gpus, &bad);
    } else if (key == "rollout_gpus") {
      ok = IntegerKey(key, value, num, &cfg.rollout_gpus, &bad);
    } else if (key == "global_batch") {
      ok = IntegerKey(key, value, num, &cfg.global_batch, &bad);
    } else if (key == "group_size") {
      ok = IntegerKey(key, value, num, &cfg.group_size, &bad);
    } else if (key == "num_minibatches") {
      ok = IntegerKey(key, value, num, &cfg.num_minibatches, &bad);
    } else if (key == "max_concurrency") {
      ok = IntegerKey(key, value, num, &cfg.max_concurrency, &bad);
    } else if (key == "backlog_cap") {
      ok = IntegerKey(key, value, num, &cfg.backlog_cap, &bad);
    } else if (key == "staleness_cap") {
      ok = IntegerKey(key, value, num, &cfg.staleness_cap, &bad);
    } else if (key == "repack") {
      cfg.repack_enabled = num != 0.0;
    } else if (key == "repack_period") {
      cfg.repack_period_seconds = num;
    } else if (key == "static_threshold") {
      cfg.repack_static_threshold = num != 0.0;
    } else if (key == "static_threshold_requests") {
      ok = IntegerKey(key, value, num, &cfg.repack_static_threshold_requests, &bad);
    } else if (key == "partial_rollout") {
      cfg.laminar_partial_rollout = num != 0.0;
    } else if (key == "length_drift") {
      cfg.length_drift = num != 0.0;
    } else if (key == "chaos") {
      cfg.chaos_enabled = num != 0.0;
    } else if (key == "chaos_start") {
      cfg.chaos.start_seconds = num;
    } else if (key == "chaos_horizon") {
      cfg.chaos.horizon_seconds = num;
    } else if (key == "rate_machine_fail") {
      cfg.chaos.machine_fail_per_hour = num;
    } else if (key == "rate_relay_fail") {
      cfg.chaos.relay_fail_per_hour = num;
    } else if (key == "rate_master_fail") {
      cfg.chaos.master_fail_per_hour = num;
    } else if (key == "rate_trainer_fail") {
      cfg.chaos.trainer_fail_per_hour = num;
    } else if (key == "rate_machine_stall") {
      cfg.chaos.machine_stall_per_hour = num;
    } else if (key == "rate_link_flap") {
      cfg.chaos.link_flap_per_hour = num;
    } else if (key == "rate_replica_slow") {
      cfg.chaos.replica_slow_per_hour = num;
    } else if (key == "rate_message_drop") {
      cfg.chaos.message_drop_per_hour = num;
    } else if (key == "crash_restart_rate") {
      cfg.chaos.crash_restart_per_hour = num;
    } else if (key == "snapshot_at") {
      cfg.snapshot_at_seconds = num;
    } else if (key == "serving") {
      cfg.serving.enabled = num != 0.0;
    } else if (key == "serving_rate") {
      cfg.serving.base_rate_per_sec = num;
    } else if (key == "serving_amplitude") {
      cfg.serving.diurnal_amplitude = num;
    } else if (key == "serving_period") {
      cfg.serving.diurnal_period_seconds = num;
    } else if (key == "serving_slo_base") {
      cfg.serving.slo_base_seconds = num;
    } else if (key == "serving_slo_per_token") {
      cfg.serving.slo_per_token_seconds = num;
    } else if (key == "serving_dedicated") {
      ok = IntegerKey(key, value, num, &cfg.serving.dedicated_replicas, &bad);
    } else if (key == "warmup") {
      ok = IntegerKey(key, value, num, &cfg.warmup_iterations, &bad, 0);
    } else if (key == "measure") {
      ok = IntegerKey(key, value, num, &cfg.measure_iterations, &bad, 1);
    } else if (key == "diff_sync") {
      scn.diff_sync = num != 0.0;
    } else if (key == "diff_repack") {
      scn.diff_repack = num != 0.0;
    } else if (key == "plan_cases") {
      ok = IntegerKey(key, value, num, &scn.plan_cases, &bad);
    } else {
      // Unreachable unless KnownScenarioKey and this chain drift apart.
      return fail("key '" + key + "' is known but unhandled");
    }
    if (!ok) {
      return fail(bad);
    }
  }
  if (cfg.train_gpus <= 0 || cfg.rollout_gpus <= 0) {
    return fail("scenario needs explicit train_gpus and rollout_gpus");
  }
  if (cfg.global_batch <= 0 || cfg.group_size <= 0 ||
      cfg.global_batch % cfg.group_size != 0) {
    return fail("global_batch must be a positive multiple of group_size");
  }
  if (cfg.num_minibatches <= 0 ||
      cfg.global_batch % cfg.num_minibatches != 0) {
    // The trainer CHECKs this at construction; reject here so a bad scenario
    // file fails with a parse error instead of aborting the process.
    return fail("global_batch must be a positive multiple of num_minibatches");
  }
  // Values the components CHECK at construction or first use; rejecting them
  // here keeps a bad scenario file a parse error. `!(x > 0)` catches NaN.
  if (!(cfg.max_concurrency > 0)) {
    return fail("max_concurrency must be positive");
  }
  if (!(cfg.repack_period_seconds > 0.0)) {
    return fail("repack_period must be positive");
  }
  if (cfg.chaos_enabled && !(cfg.chaos.start_seconds >= 0.0)) {
    return fail("chaos_start must be non-negative when chaos is armed");
  }
  if (cfg.chaos_enabled) {
    // A horizon <= 0 means "the whole run"; only NaN and infinity are
    // malformed.
    const double horizon = cfg.chaos.horizon_seconds;
    if (!std::isfinite(horizon)) {
      return fail("chaos_horizon must be a finite number when chaos is armed");
    }
    // A rate <= 0 turns its class off. A non-finite rate aborts the
    // exponential draw or never advances the arrival clock, and a finite
    // one can still ask FaultProcess::Generate for more faults than memory
    // holds, so the expected count over the chaos window is bounded too.
    const double window = horizon > 0.0 ? horizon : cfg.max_sim_seconds;
    const std::pair<const char*, double> rates[] = {
        {"rate_machine_fail", cfg.chaos.machine_fail_per_hour},
        {"rate_relay_fail", cfg.chaos.relay_fail_per_hour},
        {"rate_master_fail", cfg.chaos.master_fail_per_hour},
        {"rate_trainer_fail", cfg.chaos.trainer_fail_per_hour},
        {"rate_machine_stall", cfg.chaos.machine_stall_per_hour},
        {"rate_link_flap", cfg.chaos.link_flap_per_hour},
        {"rate_replica_slow", cfg.chaos.replica_slow_per_hour},
        {"rate_message_drop", cfg.chaos.message_drop_per_hour},
        {"crash_restart_rate", cfg.chaos.crash_restart_per_hour},
    };
    for (const auto& [key, per_hour] : rates) {
      if (!std::isfinite(per_hour)) {
        return fail(std::string(key) + " must be a finite number when chaos is armed");
      }
      if (per_hour / 3600.0 * window > kMaxExpectedFaults) {
        return fail(std::string(key) + " expects more than 1e6 faults in the chaos window");
      }
    }
  }
  int replicas = cfg.rollout_gpus / RolloutTensorParallel(SystemKind::kLaminar, cfg.scale);
  if (replicas <= 0) {
    return fail("rollout_gpus cannot hold one rollout replica at this scale");
  }
  if (cfg.serving.enabled) {
    if (!(cfg.serving.dedicated_replicas < replicas)) {
      return fail("serving_dedicated must leave at least one rollout replica");
    }
    if (!(cfg.serving.base_rate_per_sec > 0.0) ||
        !std::isfinite(cfg.serving.base_rate_per_sec)) {
      return fail("serving_rate must be positive and finite");
    }
    if (!(cfg.serving.diurnal_amplitude >= 0.0 && cfg.serving.diurnal_amplitude < 1.0)) {
      return fail("serving_amplitude must be in [0, 1)");
    }
    if (!(cfg.serving.diurnal_period_seconds > 0.0)) {
      return fail("serving_period must be positive");
    }
    if (cfg.serving.base_rate_per_sec * (1.0 + cfg.serving.diurnal_amplitude) *
            cfg.max_sim_seconds >
        kMaxExpectedServingArrivals) {
      return fail("serving_rate expects more than 1e7 peak arrivals over the run");
    }
  }
  cfg.total_gpus = cfg.train_gpus + cfg.rollout_gpus;
  *out = scn;
  return true;
}

std::string ScenarioSummary(const Scenario& scn) {
  const RlSystemConfig& cfg = scn.config;
  std::ostringstream out;
  out << "seed=" << scn.seed << " " << ScaleKey(cfg.scale) << "/" << TaskKey(cfg.task)
      << " " << cfg.train_gpus << "+" << cfg.rollout_gpus << "gpu batch=" << cfg.global_batch
      << "x" << cfg.group_size << " sampler=" << SamplerKey(cfg.sampler);
  if (cfg.repack_enabled) {
    out << (cfg.repack_static_threshold ? " repack=static" : " repack=bestfit");
  }
  if (cfg.laminar_partial_rollout) {
    out << " partial";
  }
  if (cfg.length_drift) {
    out << " drift";
  }
  if (cfg.chaos_enabled) {
    out << " chaos";
  }
  if (cfg.serving.enabled) {
    out << " serving";
  }
  if (scn.diff_sync) {
    out << " +sync-diff";
  }
  if (scn.diff_repack) {
    out << " +repack-diff";
  }
  return out.str();
}

}  // namespace laminar
