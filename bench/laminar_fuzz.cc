// Scenario-fuzz driver: generate seeded scenarios, run every differential
// oracle on each, shrink and record failures (DESIGN.md §10).
//
//   laminar_fuzz --seeds 256                      # the pre-release smoke run
//   laminar_fuzz --seeds 64 --corpus-dir corpus   # record shrunk repros
//   laminar_fuzz --replay tests/corpus/*.scenario # replay committed repros
//   laminar_fuzz --dump 18                        # print seed 18 as a .scenario
//   laminar_fuzz --fingerprints tests/corpus      # regenerate fingerprints.golden
//
// Warm-start snapshots (DESIGN.md §13):
//   laminar_fuzz --snapshot-at 30 --snapshot-out w.lmsnap --replay F.scenario
//       runs F with a snapshot barrier at t=30 s and writes the captured
//       state (plus the scenario text) as a warm-start file
//   laminar_fuzz --restore-from w.lmsnap
//       direct-boots the embedded scenario from the barrier (adopt the blob,
//       O(1) of the prefix), verifies the adopted state field-by-field
//       against it, then runs to completion
//   --snapshot-at with --replay alone pins the diff-snapshot oracle's
//       barrier to t instead of the seeded mid-point
//
// Exit status is the number of failing seeds/files (capped at 125).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exp/sweep.h"
#include "src/snapshot/snapshot.h"
#include "src/verify/fuzzer.h"

namespace laminar {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--base-seed S] [--corpus-dir DIR] [--no-shrink]\n"
               "       [--threads-a N] [--threads-b N] [--max-failures N]\n"
               "       [--no-snapshot-diff] [--snapshot-at T] [--snapshot-out FILE]\n"
               "       [--restore-from FILE] [--replay FILE...] [--dump SEED]\n"
               "       [--fingerprints DIR]\n"
               "--snapshot-at T with --replay pins the snapshot oracle's barrier to\n"
               "T seconds; add --snapshot-out to also write a warm-start file, which\n"
               "--restore-from direct-boots and verifies byte-for-byte.\n",
               argv0);
  return 2;
}

// Prints one line per (corpus scenario, batch config) in the golden format
// consumed by tests/perf_regression_test.cc:
//   <scenario-basename> <config-label> <fnv1a-hex>
int PrintCorpusFingerprints(const std::string& dir) {
  std::vector<std::string> files = ListCorpus(dir);
  if (files.empty()) {
    std::fprintf(stderr, "no .scenario files under %s\n", dir.c_str());
    return 2;
  }
  for (const std::string& path : files) {
    Scenario scn;
    std::string error;
    if (!LoadScenarioFile(path, &scn, &error)) {
      std::fprintf(stderr, "%s: LOAD ERROR: %s\n", path.c_str(), error.c_str());
      return 2;
    }
    size_t slash = path.find_last_of('/');
    std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
    for (const ConfigFingerprint& fp : ScenarioFingerprints(scn)) {
      std::printf("%s %s %016llx\n", base.c_str(), fp.label.c_str(),
                  static_cast<unsigned long long>(fp.hash));
    }
  }
  return 0;
}

int ReplayFiles(const std::vector<std::string>& files, const EvalOptions& eval,
                double snapshot_at) {
  int failing = 0;
  for (const std::string& path : files) {
    Scenario scn;
    std::string error;
    if (!LoadScenarioFile(path, &scn, &error)) {
      std::printf("%s: LOAD ERROR: %s\n", path.c_str(), error.c_str());
      ++failing;
      continue;
    }
    if (snapshot_at > 0.0) {
      scn.config.snapshot_at_seconds = snapshot_at;
    }
    OracleReport report = EvaluateScenario(scn, eval);
    std::printf("%s: %s\n", path.c_str(), report.ok() ? "ok" : "FAIL");
    if (!report.ok()) {
      // One line per failure naming the offending file and the oracle that
      // caught it, so a multi-file replay greps straight to its scenario.
      for (const OracleFailure& f : report.failures) {
        std::printf("%s: oracle '%s': %s\n", path.c_str(), f.oracle.c_str(),
                    f.detail.c_str());
      }
      ++failing;
    }
  }
  return failing;
}

// --snapshot-at T --snapshot-out OUT --replay FILE: run FILE's primary config
// with a snapshot barrier at T and persist the captured state plus the
// scenario text as a warm-start file.
int WriteWarmStart(const std::string& scenario_path, double t,
                   const std::string& out_path) {
  Scenario scn;
  std::string error;
  if (!LoadScenarioFile(scenario_path, &scn, &error)) {
    std::fprintf(stderr, "%s: LOAD ERROR: %s\n", scenario_path.c_str(), error.c_str());
    return 2;
  }
  RlSystemConfig cfg = scn.config;
  cfg.snapshot_at_seconds = t;
  SweepOptions solo;
  solo.num_threads = 1;
  SystemReport rep = std::move(RunExperiments({cfg}, solo)[0]);
  if (rep.snapshot == nullptr || rep.snapshot->empty()) {
    std::fprintf(stderr, "%s: no snapshot captured at t=%.6g s (run spans %.6g s)\n",
                 scenario_path.c_str(), t, rep.simulated_seconds);
    return 1;
  }
  SnapshotFile file;
  file.scenario_text = ScenarioToText(scn);
  file.snapshot_at = rep.snapshot_taken_at_seconds;
  file.blob = *rep.snapshot;
  std::string encoded = EncodeSnapshotFile(file);
  std::ofstream out(out_path, std::ios::binary);
  out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("%s: %zu-byte warm-start (state at t=%.6g s) -> %s\n",
              scenario_path.c_str(), encoded.size(), file.snapshot_at,
              out_path.c_str());
  return 0;
}

// --restore-from FILE: decode a warm-start file and direct-boot its embedded
// scenario from the recorded barrier — adopt every component, re-mint the
// event heap, continue — in wall-clock independent of the barrier time
// (DESIGN.md §13). The adopted state must verify field-by-field against the
// stored blob and its barrier re-snapshot must be byte-identical to it.
int RestoreFrom(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream data;
  data << in.rdbuf();
  SnapshotFile file;
  std::string error;
  if (!DecodeSnapshotFile(data.str(), &file, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  Scenario scn;
  if (!ScenarioFromText(file.scenario_text, &scn, &error)) {
    std::fprintf(stderr, "%s: embedded scenario: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  RlSystemConfig cfg = scn.config;
  cfg.restore_from = std::make_shared<const std::string>(file.blob);
  cfg.snapshot_verify = cfg.restore_from;
  SweepOptions solo;
  solo.num_threads = 1;
  SystemReport rep = std::move(RunExperiments({cfg}, solo)[0]);
  bool bytes_equal = rep.snapshot != nullptr && *rep.snapshot == file.blob;
  std::printf(
      "%s: direct-boot restore [%s] to t=%.6g s in %.3f s wall: %zu field "
      "mismatch(es), blob %s\n",
      path.c_str(), ScenarioSummary(scn).c_str(), file.snapshot_at,
      rep.restore_wall_seconds, rep.snapshot_mismatches.size(),
      bytes_equal ? "byte-identical" : "DIFFERS");
  for (const std::string& m : rep.snapshot_mismatches) {
    std::printf("%s:   %s\n", path.c_str(), m.c_str());
  }
  std::printf("run completed: %.6g simulated seconds\n", rep.simulated_seconds);
  return bytes_equal && rep.snapshot_mismatches.empty() && rep.restored ? 0 : 1;
}

int Main(int argc, char** argv) {
  FuzzOptions opts;
  std::vector<std::string> replay;
  bool replaying = false;
  double snapshot_at = 0.0;
  std::string snapshot_out;
  std::string restore_from;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (replaying) {
      replay.push_back(arg);
    } else if (arg == "--seeds") {
      if (!ParseCountFlag("--seeds", next("--seeds"), &opts.num_seeds)) {
        return 2;
      }
    } else if (arg == "--base-seed") {
      opts.base_seed = std::strtoull(next("--base-seed"), nullptr, 10);
    } else if (arg == "--corpus-dir") {
      opts.corpus_dir = next("--corpus-dir");
    } else if (arg == "--no-shrink") {
      opts.shrink_failures = false;
    } else if (arg == "--threads-a") {
      opts.eval.sweep_threads_a = static_cast<unsigned>(std::atoi(next("--threads-a")));
    } else if (arg == "--threads-b") {
      opts.eval.sweep_threads_b = static_cast<unsigned>(std::atoi(next("--threads-b")));
    } else if (arg == "--max-failures") {
      opts.max_failures = std::atoi(next("--max-failures"));
    } else if (arg == "--no-snapshot-diff") {
      opts.eval.diff_snapshot = false;
    } else if (arg == "--snapshot-at") {
      snapshot_at = std::atof(next("--snapshot-at"));
    } else if (arg == "--snapshot-out") {
      snapshot_out = next("--snapshot-out");
    } else if (arg == "--restore-from") {
      restore_from = next("--restore-from");
    } else if (arg == "--replay") {
      replaying = true;
    } else if (arg == "--fingerprints") {
      return PrintCorpusFingerprints(next("--fingerprints"));
    } else if (arg == "--dump") {
      uint64_t seed = std::strtoull(next("--dump"), nullptr, 10);
      Scenario scn = GenerateScenario(seed);
      std::printf("# %s\n%s", ScenarioSummary(scn).c_str(), ScenarioToText(scn).c_str());
      return 0;
    } else {
      return Usage(argv[0]);
    }
  }

  if (!restore_from.empty()) {
    return RestoreFrom(restore_from);
  }
  if (!snapshot_out.empty()) {
    if (replay.size() != 1 || snapshot_at <= 0.0) {
      std::fprintf(stderr,
                   "--snapshot-out needs --snapshot-at T and exactly one "
                   "--replay FILE\n");
      return 2;
    }
    return WriteWarmStart(replay[0], snapshot_at, snapshot_out);
  }
  if (replaying) {
    int failing = ReplayFiles(replay, opts.eval, snapshot_at);
    std::printf("replayed %zu file(s), %d failing\n", replay.size(), failing);
    return failing > 125 ? 125 : failing;
  }

  // Seeds are screened in batched windows so independent simulations share
  // the sweep thread pool; results print strictly in seed order, and a
  // failing seed is handed to RunFuzz for the usual shrink/corpus handling,
  // so the output bytes match the old one-seed-at-a-time loop exactly.
  int failing = 0;
  int window = std::max(1, opts.seeds_per_batch);
  bool stopped = false;
  for (int start = 0; start < opts.num_seeds && !stopped; start += window) {
    int n = std::min(window, opts.num_seeds - start);
    std::vector<Scenario> scenarios;
    scenarios.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      scenarios.push_back(
          GenerateScenario(opts.base_seed + static_cast<uint64_t>(start + i)));
    }
    std::vector<OracleReport> oracles = EvaluateScenarios(scenarios, opts.eval);
    for (int i = 0; i < n; ++i) {
      uint64_t seed = opts.base_seed + static_cast<uint64_t>(start + i);
      const Scenario& scn = scenarios[static_cast<size_t>(i)];
      if (oracles[static_cast<size_t>(i)].ok()) {
        std::printf("seed %llu: ok  [%s]\n", static_cast<unsigned long long>(seed),
                    ScenarioSummary(scn).c_str());
        continue;
      }
      FuzzOptions one = opts;
      one.num_seeds = 1;
      one.base_seed = seed;
      one.max_failures = 1;
      FuzzReport report = RunFuzz(one);
      std::printf("seed %llu: FAIL  [%s]\n", static_cast<unsigned long long>(seed),
                  ScenarioSummary(scn).c_str());
      std::printf("%s\n", report.Summary().c_str());
      ++failing;
      if (failing >= opts.max_failures) {
        stopped = true;
        break;
      }
    }
  }
  std::printf("fuzzed %d seed(s) from base %llu: %d failing\n", opts.num_seeds,
              static_cast<unsigned long long>(opts.base_seed), failing);
  return failing > 125 ? 125 : failing;
}

}  // namespace
}  // namespace laminar

int main(int argc, char** argv) { return laminar::Main(argc, argv); }
