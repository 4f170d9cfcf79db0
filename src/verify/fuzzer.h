// Scenario fuzzer: generate → run → oracle-check → shrink → corpus.
#ifndef LAMINAR_SRC_VERIFY_FUZZER_H_
#define LAMINAR_SRC_VERIFY_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/verify/oracles.h"
#include "src/verify/scenario.h"

namespace laminar {

struct EvalOptions {
  // The determinism oracle runs the scenario's config batch under both
  // thread counts and requires byte-identical fingerprints.
  unsigned sweep_threads_a = 4;
  unsigned sweep_threads_b = 2;
  // Snapshot oracle: rerun the primary with a snapshot barrier at a seeded
  // mid-point T, then a second rerun that re-reaches the same barrier and
  // verifies field-by-field against the first blob. Both blobs must be
  // byte-identical, the verify pass must report zero mismatches, and neither
  // rerun's fingerprint may drift from the primary's (a snapshot is an
  // observation, never a perturbation).
  bool diff_snapshot = true;
};

// Runs every oracle on one scenario:
//   1. the primary config and its differential twins, swept with threads_a
//   2. the same batch swept with threads_b — fingerprints must match 1.
//   3. per-run audit (invariants, drained runs, ledger integrity)
//   4. sync/repack ledger equivalence against the clean reference run
//   5. snapshot differential: mid-run LMSNAP1 capture is byte-stable across
//      reruns, verifies field-by-field, is invisible in the run fingerprint,
//      and restores into an indistinguishable run (diff_snapshot)
//   6. `plan_cases` random Algorithm-1 post-apply checks
OracleReport EvaluateScenario(const Scenario& scenario, const EvalOptions& options = {});

// Batched form: evaluates many scenarios through two sweeps over the
// concatenated config batch, so independent seeds share the RunExperiments()
// thread pool instead of each paying its own mostly-idle sweep. Every run is
// single-threaded and bit-deterministic, so out[i] is byte-identical to
// EvaluateScenario(scenarios[i], options) — the batching changes wall-clock
// only, never a result.
std::vector<OracleReport> EvaluateScenarios(const std::vector<Scenario>& scenarios,
                                            const EvalOptions& options = {});

// One fingerprint per config in the scenario's batch (primary first, then
// any differential twins), in batch order. The hashes cover everything
// RunFingerprint() covers, so any behavioural drift in the data path shows
// up as a changed hash. Used to pin the committed corpus to pre-refactor
// behaviour (tests/corpus/fingerprints.golden).
struct ConfigFingerprint {
  std::string label;  // RlSystemConfig::Label() of the batch entry
  uint64_t hash = 0;  // FingerprintHash() of its report
};
std::vector<ConfigFingerprint> ScenarioFingerprints(const Scenario& scenario,
                                                    unsigned sweep_threads = 2);

struct FuzzOptions {
  int num_seeds = 32;
  uint64_t base_seed = 0;
  EvalOptions eval;
  bool shrink_failures = true;
  // When non-empty, each failing seed's (shrunk) scenario is written here as
  // fail_<seed>.scenario with the failure summary in the header comment.
  std::string corpus_dir;
  int max_failures = 4;  // stop fuzzing after this many failing seeds
  // Seeds evaluated per EvaluateScenarios() call. Outcomes are judged in
  // seed order and the FuzzReport is identical for any window size; larger
  // windows just keep the sweep pool busier.
  int seeds_per_batch = 8;
};

struct SeedOutcome {
  uint64_t seed = 0;
  std::string failure_summary;
  Scenario repro;  // shrunk when FuzzOptions::shrink_failures
};

struct FuzzReport {
  int seeds_run = 0;
  int64_t oracle_checks = 0;
  std::vector<SeedOutcome> failures;

  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

FuzzReport RunFuzz(const FuzzOptions& options);

// Corpus I/O -----------------------------------------------------------------
// Scenario files are ScenarioToText() output; loading rejects malformed files.
bool WriteScenarioFile(const Scenario& scenario, const std::string& path,
                       const std::string& header_comment = "");
bool LoadScenarioFile(const std::string& path, Scenario* out, std::string* error);
// Sorted *.scenario paths directly under `dir` (empty if none or unreadable).
std::vector<std::string> ListCorpus(const std::string& dir);

}  // namespace laminar

#endif  // LAMINAR_SRC_VERIFY_FUZZER_H_
