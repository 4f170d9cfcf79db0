#include "src/verify/fuzzer.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/exp/sweep.h"
#include "src/verify/shrink.h"

namespace laminar {
namespace {

// Indices into the per-scenario config batch. The clean reference run is the
// anchor both differential twins compare against; it only exists when at
// least one twin is armed.
struct BatchLayout {
  int primary = -1;
  int clean = -1;
  int sync_twin = -1;
  int repack_off = -1;
};

std::vector<RlSystemConfig> BuildBatch(const Scenario& scn, BatchLayout& layout) {
  std::vector<RlSystemConfig> batch;
  layout.primary = static_cast<int>(batch.size());
  batch.push_back(scn.config);
  if (scn.diff_sync || scn.diff_repack) {
    layout.clean = static_cast<int>(batch.size());
    batch.push_back(CleanConfig(scn.config));
  }
  if (scn.diff_sync) {
    layout.sync_twin = static_cast<int>(batch.size());
    batch.push_back(SyncTwin(scn.config));
  }
  if (scn.diff_repack) {
    layout.repack_off = static_cast<int>(batch.size());
    batch.push_back(RepackOffTwin(scn.config));
  }
  return batch;
}

// Judge phase of EvaluateScenario: oracles over already-computed run
// reports. Almost pure — the snapshot differential is the one oracle that
// runs simulations here, because its barrier time T is derived from the
// primary's simulated span, which only exists after the sweep. Everything
// else judges the batched reports, so many scenarios' sweeps can still share
// one RunExperiments() call and be judged independently.
OracleReport JudgeScenario(const Scenario& scn, const EvalOptions& opts,
                           const std::vector<RlSystemConfig>& batch,
                           const BatchLayout& layout,
                           const std::vector<SystemReport>& reports,
                           const std::vector<SystemReport>& replay) {
  OracleReport out;

  // Oracle: replay determinism across sweep thread counts.
  for (size_t i = 0; i < batch.size(); ++i) {
    ++out.checks_run;
    if (RunFingerprint(reports[i]) != RunFingerprint(replay[i])) {
      out.failures.push_back(
          {"determinism", batch[i].Label() + " (batch index " + std::to_string(i) +
                              "): fingerprints differ across " +
                              std::to_string(opts.sweep_threads_a) + " vs " +
                              std::to_string(opts.sweep_threads_b) + " sweep threads"});
    }
  }

  // Oracle: per-run audit.
  AuditRun(batch[layout.primary], reports[layout.primary], "primary", out);
  if (layout.clean >= 0) {
    AuditRun(batch[layout.clean], reports[layout.clean], "clean", out);
  }
  if (layout.sync_twin >= 0) {
    AuditRun(batch[layout.sync_twin], reports[layout.sync_twin], "sync-twin", out);
  }
  if (layout.repack_off >= 0) {
    AuditRun(batch[layout.repack_off], reports[layout.repack_off], "repack-off", out);
  }

  // Oracle: differential ledger equivalence.
  auto ledger_of = [&reports](int index) -> const RunLedger* {
    return index >= 0 ? reports[static_cast<size_t>(index)].ledger.get() : nullptr;
  };
  const RunLedger* clean = ledger_of(layout.clean);
  if (const RunLedger* sync = ledger_of(layout.sync_twin); sync != nullptr) {
    ++out.checks_run;
    if (clean == nullptr) {
      out.failures.push_back({"sync-diff", "clean reference run recorded no ledger"});
    } else if (auto bad = CompareLedgers(*clean, *sync, "async vs sync")) {
      out.failures.push_back({"sync-diff", *bad});
    }
  }
  if (const RunLedger* off = ledger_of(layout.repack_off); off != nullptr) {
    ++out.checks_run;
    if (clean == nullptr) {
      out.failures.push_back({"repack-diff", "clean reference run recorded no ledger"});
    } else if (auto bad = CompareLedgers(*clean, *off, "repack-on vs repack-off")) {
      out.failures.push_back({"repack-diff", *bad});
    }
  }

  // Oracle: a mid-run snapshot is byte-stable and invisible. Run A replays
  // the primary with a snapshot barrier at T; run B reruns the same config,
  // re-reaches the same barrier, and verifies its own state field-by-field
  // against A's blob (SnapshotTx kVerify). The blobs must be byte-identical,
  // the verify pass must report zero mismatches, and both reruns must
  // reproduce the primary's fingerprint exactly.
  if (opts.diff_snapshot) {
    const SystemReport& primary = reports[layout.primary];
    double span = primary.simulated_seconds;
    double t = scn.config.snapshot_at_seconds > 0.0
                   ? scn.config.snapshot_at_seconds
                   : Rng(scn.seed).Fork("snapshot").Uniform(0.25, 0.75) * span;
    if (scn.config.snapshot_at_seconds > 0.0 && t >= span) {
      // A pinned barrier that misses the run would silently skip every
      // snapshot/restore check below — a corpus regression would "pass"
      // while testing nothing. Fail loudly instead.
      out.failures.push_back(
          {"snapshot-diff", "scenario pins snapshot_at=" + std::to_string(t) +
                                "s beyond the simulated span (" +
                                std::to_string(span) + "s)"});
    }
    if (t > 0.0 && t < span) {
      ++out.checks_run;
      SweepOptions solo;
      solo.num_threads = 1;
      RlSystemConfig run_a = scn.config;
      run_a.snapshot_at_seconds = t;
      SystemReport rep_a = std::move(RunExperiments({run_a}, solo)[0]);
      if (rep_a.snapshot == nullptr || rep_a.snapshot->empty()) {
        out.failures.push_back(
            {"snapshot-diff",
             "no snapshot captured at t=" + std::to_string(t) + "s (span " +
                 std::to_string(span) + "s)"});
      } else {
        RlSystemConfig run_b = run_a;
        run_b.snapshot_verify = rep_a.snapshot;
        SystemReport rep_b = std::move(RunExperiments({run_b}, solo)[0]);
        if (rep_b.snapshot == nullptr || *rep_b.snapshot != *rep_a.snapshot) {
          out.failures.push_back(
              {"snapshot-diff", "LMSNAP1 blobs differ between two reruns at t=" +
                                    std::to_string(t) + "s"});
        }
        if (!rep_b.snapshot_mismatches.empty()) {
          out.failures.push_back(
              {"snapshot-diff",
               "verify pass reported " +
                   std::to_string(rep_b.snapshot_mismatches.size()) +
                   " field mismatches; first: " + rep_b.snapshot_mismatches[0]});
        }
        std::string base = RunFingerprint(primary);
        if (RunFingerprint(rep_a) != base) {
          out.failures.push_back(
              {"snapshot-diff",
               "taking a snapshot perturbed the run: fingerprint differs from "
               "the primary's"});
        }
        if (RunFingerprint(rep_b) != base) {
          out.failures.push_back(
              {"snapshot-diff",
               "verifying snapshot rerun's fingerprint differs from the "
               "primary's"});
        }

        // Restore oracle (always on): boot a third run from A's blob and
        // demand it be indistinguishable from never having stopped — the
        // barrier re-snapshot byte-equals the blob it booted from and the
        // finished run reproduces the primary's fingerprint. The scenario's
        // restore_mode axis picks the recovery leg: direct boot (default,
        // adopt + re-mint in O(1) of the prefix) or the legacy
        // replay-anchored path, so the two recovery modes are differential
        // oracles for each other.
        ++out.checks_run;
        const char* mode = scn.config.restore_mode == RestoreMode::kReplay
                               ? "replay-anchored"
                               : "direct-boot";
        RlSystemConfig run_c = scn.config;
        run_c.restore_from = rep_a.snapshot;
        SystemReport rep_c = std::move(RunExperiments({run_c}, solo)[0]);
        if (!rep_c.restored) {
          out.failures.push_back(
              {"restore-diff", std::string(mode) + " rerun did not restore"});
        }
        if (rep_c.snapshot == nullptr || *rep_c.snapshot != *rep_a.snapshot) {
          out.failures.push_back(
              {"restore-diff", std::string(mode) +
                                   " barrier re-snapshot is not byte-identical "
                                   "to the blob it recovered from"});
        }
        if (!rep_c.snapshot_mismatches.empty()) {
          out.failures.push_back(
              {"restore-diff",
               std::string(mode) + " verify reported " +
                   std::to_string(rep_c.snapshot_mismatches.size()) +
                   " field mismatches; first: " + rep_c.snapshot_mismatches[0]});
        }
        if (RunFingerprint(rep_c) != base) {
          out.failures.push_back(
              {"restore-diff", std::string(mode) +
                                   " rerun's fingerprint differs from the "
                                   "primary's — recovery was not invisible"});
        }
      }
    }
  }

  // Oracle: random Algorithm-1 plans stay within bounds after application.
  CheckRandomRepackPlans(scn.seed, scn.plan_cases, out);
  return out;
}

}  // namespace

OracleReport EvaluateScenario(const Scenario& scn, const EvalOptions& opts) {
  return EvaluateScenarios({scn}, opts)[0];
}

std::vector<OracleReport> EvaluateScenarios(const std::vector<Scenario>& scenarios,
                                            const EvalOptions& opts) {
  // Build phase: concatenate every scenario's config batch into one flat
  // sweep so the thread pool sees all the work at once.
  std::vector<BatchLayout> layouts(scenarios.size());
  std::vector<std::vector<RlSystemConfig>> batches;
  batches.reserve(scenarios.size());
  std::vector<size_t> offsets;
  offsets.reserve(scenarios.size());
  std::vector<RlSystemConfig> flat;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    batches.push_back(BuildBatch(scenarios[i], layouts[i]));
    offsets.push_back(flat.size());
    flat.insert(flat.end(), batches[i].begin(), batches[i].end());
  }

  SweepOptions sweep_a;
  sweep_a.num_threads = opts.sweep_threads_a;
  std::vector<SystemReport> reports = RunExperiments(flat, sweep_a);
  SweepOptions sweep_b;
  sweep_b.num_threads = opts.sweep_threads_b;
  std::vector<SystemReport> replay = RunExperiments(flat, sweep_b);

  // Judge phase, per scenario over its slice of the flat report vector.
  std::vector<OracleReport> out;
  out.reserve(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    auto begin_a = reports.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
    auto begin_b = replay.begin() + static_cast<std::ptrdiff_t>(offsets[i]);
    std::ptrdiff_t len = static_cast<std::ptrdiff_t>(batches[i].size());
    std::vector<SystemReport> slice_a(std::make_move_iterator(begin_a),
                                      std::make_move_iterator(begin_a + len));
    std::vector<SystemReport> slice_b(std::make_move_iterator(begin_b),
                                      std::make_move_iterator(begin_b + len));
    out.push_back(
        JudgeScenario(scenarios[i], opts, batches[i], layouts[i], slice_a, slice_b));
  }
  return out;
}

std::vector<ConfigFingerprint> ScenarioFingerprints(const Scenario& scn,
                                                    unsigned sweep_threads) {
  BatchLayout layout;
  std::vector<RlSystemConfig> batch = BuildBatch(scn, layout);
  SweepOptions sweep;
  sweep.num_threads = sweep_threads;
  std::vector<SystemReport> reports = RunExperiments(batch, sweep);
  std::vector<ConfigFingerprint> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    out.push_back({batch[i].Label(), FingerprintHash(reports[i])});
  }
  return out;
}

std::string FuzzReport::Summary() const {
  std::ostringstream out;
  out << seeds_run << " seeds, " << oracle_checks << " oracle checks, " << failures.size()
      << " failing";
  for (const SeedOutcome& f : failures) {
    out << "\n  seed " << f.seed << ": " << f.failure_summary;
  }
  return out.str();
}

FuzzReport RunFuzz(const FuzzOptions& opts) {
  FuzzReport report;
  int window = std::max(1, opts.seeds_per_batch);
  bool stopped = false;
  // Seeds are independent simulations, so a window of them is evaluated
  // through one batched sweep and judged strictly in seed order; the report
  // is identical for any window size (seeds evaluated past a mid-window
  // max_failures stop are simply discarded, as the serial loop never ran
  // them).
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
      const OracleReport& oracle = oracles[static_cast<size_t>(i)];
      ++report.seeds_run;
      report.oracle_checks += oracle.checks_run;
      if (oracle.ok()) {
        continue;
      }

      SeedOutcome outcome;
      outcome.seed = seed;
      outcome.failure_summary = oracle.Summary();
      outcome.repro = scn;
      if (opts.shrink_failures) {
        // Shrink with speculative candidate windows fanned through the same
        // batched sweep; commits follow submission order, so the result
        // matches the serial per-candidate shrinker.
        ShrinkResult shrunk = ShrinkScenario(
            scn, ShrinkBatchPredicate([&opts](const std::vector<Scenario>& candidates) {
              std::vector<OracleReport> reports =
                  EvaluateScenarios(candidates, opts.eval);
              std::vector<char> fails(reports.size(), 0);
              for (size_t j = 0; j < reports.size(); ++j) {
                fails[j] = reports[j].ok() ? 0 : 1;
              }
              return fails;
            }));
        outcome.repro = shrunk.scenario;
        outcome.failure_summary = EvaluateScenario(shrunk.scenario, opts.eval).Summary();
      }
      if (!opts.corpus_dir.empty()) {
        std::string path =
            opts.corpus_dir + "/fail_" + std::to_string(seed) + ".scenario";
        if (!WriteScenarioFile(outcome.repro, path, outcome.failure_summary)) {
          LAMINAR_LOG(kWarning) << "could not write repro to " << path;
        }
      }
      report.failures.push_back(std::move(outcome));
      if (static_cast<int>(report.failures.size()) >= opts.max_failures) {
        stopped = true;
        break;
      }
    }
  }
  return report;
}

bool WriteScenarioFile(const Scenario& scn, const std::string& path,
                       const std::string& header_comment) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  if (!header_comment.empty()) {
    std::istringstream lines(header_comment);
    std::string line;
    while (std::getline(lines, line)) {
      out << "# " << line << "\n";
    }
  }
  out << ScenarioToText(scn);
  return static_cast<bool>(out);
}

bool LoadScenarioFile(const std::string& path, Scenario* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ScenarioFromText(text.str(), out, error);
}

std::vector<std::string> ListCorpus(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scenario") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace laminar
