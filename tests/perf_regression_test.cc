// Corpus-wide byte-identity regression (labelled `perf` in CTest).
//
// Replays every committed .scenario repro through the full simulation batch
// and formats the per-config run fingerprints exactly the way
// `laminar_fuzz --fingerprints` does, then diffs against the checked-in
// golden. Any data-path "optimization" that changes even one output bit
// shows up here as a fingerprint mismatch before it ever reaches a benchmark
// comparison. Regenerate the golden (only for an intended behavior change)
// with:
//   build/bench/laminar_fuzz --fingerprints tests/corpus > tests/corpus/fingerprints.golden
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/verify/fuzzer.h"

namespace laminar {
namespace {

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::vector<std::string> ComputeFingerprintLines() {
  std::vector<std::string> lines;
  for (const std::string& path : ListCorpus(LAMINAR_FUZZ_CORPUS_DIR)) {
    Scenario scn;
    std::string error;
    EXPECT_TRUE(LoadScenarioFile(path, &scn, &error)) << path << ": " << error;
    for (const ConfigFingerprint& fp : ScenarioFingerprints(scn)) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s %s %016llx", Basename(path).c_str(),
                    fp.label.c_str(), static_cast<unsigned long long>(fp.hash));
      lines.push_back(line);
    }
  }
  return lines;
}

std::vector<std::string> LoadGoldenLines() {
  std::ifstream in(LAMINAR_FUZZ_GOLDEN_FILE);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << LAMINAR_FUZZ_GOLDEN_FILE;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(PerfRegressionTest, CorpusFingerprintsMatchGolden) {
  std::vector<std::string> got = ComputeFingerprintLines();
  std::vector<std::string> want = LoadGoldenLines();
  ASSERT_FALSE(want.empty());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.size(), want.size());
  size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], want[i]) << "fingerprint line " << i << " diverged";
  }
}

TEST(PerfRegressionTest, FingerprintsStableAcrossSweepThreadCounts) {
  // The batched sweep must not let thread count leak into results: spot-check
  // the first corpus scenario across 1 and 4 sweep threads.
  std::vector<std::string> files = ListCorpus(LAMINAR_FUZZ_CORPUS_DIR);
  ASSERT_FALSE(files.empty());
  Scenario scn;
  std::string error;
  ASSERT_TRUE(LoadScenarioFile(files[0], &scn, &error)) << error;
  std::vector<ConfigFingerprint> serial = ScenarioFingerprints(scn, 1);
  std::vector<ConfigFingerprint> pooled = ScenarioFingerprints(scn, 4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, pooled[i].label);
    EXPECT_EQ(serial[i].hash, pooled[i].hash);
  }
}

}  // namespace
}  // namespace laminar
