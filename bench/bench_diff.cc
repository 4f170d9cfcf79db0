// Compare two schema-1 BENCH_*.json snapshots (bench_full_system --json and
// friends): per-run events/sec deltas, determinism witnesses, and a
// regression gate.
//
//   bench_diff BEFORE.json AFTER.json                 # report only
//   bench_diff --threshold 10 BEFORE.json AFTER.json  # exit 1 past -10%
//
// Exit codes: 0 = no regression past the threshold, 1 = at least one run
// regressed past it (or an events-count mismatch with --threshold, which
// means the two snapshots did not measure the same deterministic workload),
// 2 = usage or parse error. A run that measured nothing (events/sec not a
// finite number > 0, or a negative event count) is a parse error, and so is
// a --threshold that is not a finite number >= 0. Runs present in only one
// file are reported and skipped by the gate.
//
// The parser handles exactly the flat schema-1 shape the bench harnesses
// emit ("runs" array of one-line objects with string/number fields) — it is
// not a general JSON reader, and it rejects anything without schema: 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchRun {
  std::string name;
  double events = 0.0;
  double events_per_sec = 0.0;
};

struct BenchFile {
  std::string label;
  std::vector<BenchRun> runs;
};

// Extracts the JSON string value following `"key":` in `obj`, or "" if the
// key is absent.
std::string StringField(const std::string& obj, const std::string& key) {
  std::string needle = "\"" + key + "\"";
  size_t at = obj.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  at = obj.find('"', obj.find(':', at + needle.size()));
  if (at == std::string::npos) {
    return "";
  }
  size_t end = obj.find('"', at + 1);
  if (end == std::string::npos) {
    return "";
  }
  return obj.substr(at + 1, end - at - 1);
}

// Extracts the numeric value following `"key":` in `obj`. Returns fallback
// if absent.
double NumberField(const std::string& obj, const std::string& key,
                   double fallback) {
  std::string needle = "\"" + key + "\"";
  size_t at = obj.find(needle);
  if (at == std::string::npos) {
    return fallback;
  }
  size_t colon = obj.find(':', at + needle.size());
  if (colon == std::string::npos) {
    return fallback;
  }
  return std::atof(obj.c_str() + colon + 1);
}

bool ParseBenchFile(const char* path, BenchFile* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = std::string("cannot open ") + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  if (static_cast<int>(NumberField(text, "schema", -1.0)) != 1) {
    *error = std::string(path) + ": not a schema-1 bench snapshot";
    return false;
  }
  out->label = StringField(text, "label");
  size_t runs_at = text.find("\"runs\"");
  if (runs_at == std::string::npos) {
    *error = std::string(path) + ": no \"runs\" array";
    return false;
  }
  // Each run is a one-line {...} object inside the runs array.
  size_t cursor = text.find('[', runs_at);
  size_t close = text.find(']', cursor);
  while (cursor != std::string::npos) {
    size_t open = text.find('{', cursor);
    if (open == std::string::npos || open > close) {
      break;
    }
    size_t end = text.find('}', open);
    if (end == std::string::npos) {
      *error = std::string(path) + ": unterminated run object";
      return false;
    }
    std::string obj = text.substr(open, end - open + 1);
    BenchRun run;
    run.name = StringField(obj, "name");
    run.events = NumberField(obj, "events", 0.0);
    run.events_per_sec = NumberField(obj, "events_per_sec", 0.0);
    if (run.name.empty()) {
      *error = std::string(path) + ": run object without a name";
      return false;
    }
    if (!(std::isfinite(run.events_per_sec) && run.events_per_sec > 0.0) ||
        !(run.events >= 0.0)) {
      char numbers[96];
      std::snprintf(numbers, sizeof(numbers), "events_per_sec %g, events %g",
                    run.events_per_sec, run.events);
      *error = std::string(path) + ": run " + run.name + " measured nothing (" + numbers + ")";
      return false;
    }
    out->runs.push_back(std::move(run));
    cursor = end + 1;
  }
  if (out->runs.empty()) {
    *error = std::string(path) + ": empty runs array";
    return false;
  }
  return true;
}

const BenchRun* FindRun(const BenchFile& f, const std::string& name) {
  for (const BenchRun& r : f.runs) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

// Parses a --threshold value: a finite number >= 0.
bool ParseThreshold(const char* text, double* out) {
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr, "bench_diff: --threshold takes a finite number >= 0, got '%s'\n",
                 text);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = -1.0;  // percent regression that fails the gate; <0 = off
  const char* before_path = nullptr;
  const char* after_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      if (!ParseThreshold(argv[++i], &threshold)) {
        return 2;
      }
    } else if (std::strncmp(argv[i], "--threshold=", 12) == 0) {
      if (!ParseThreshold(argv[i] + 12, &threshold)) {
        return 2;
      }
    } else if (before_path == nullptr) {
      before_path = argv[i];
    } else if (after_path == nullptr) {
      after_path = argv[i];
    } else {
      before_path = nullptr;
      break;
    }
  }
  if (before_path == nullptr || after_path == nullptr) {
    std::fprintf(stderr,
                 "usage: %s [--threshold PCT] BEFORE.json AFTER.json\n"
                 "  PCT: fail (exit 1) if any run's events/sec drops more "
                 "than PCT%% below BEFORE\n",
                 argv[0]);
    return 2;
  }

  BenchFile before, after;
  std::string error;
  if (!ParseBenchFile(before_path, &before, &error) ||
      !ParseBenchFile(after_path, &after, &error)) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return 2;
  }

  std::printf("bench_diff: %s (%s) -> %s (%s)\n", before_path,
              before.label.c_str(), after_path, after.label.c_str());
  std::printf("%-28s %12s %12s %9s  %s\n", "run", "before ev/s", "after ev/s",
              "delta", "events");

  bool regression = false;
  for (const BenchRun& b : before.runs) {
    const BenchRun* a = FindRun(after, b.name);
    if (a == nullptr) {
      std::printf("%-28s %12.0f %12s %9s  (missing in after)\n",
                  b.name.c_str(), b.events_per_sec, "-", "-");
      continue;
    }
    double delta_pct =
        b.events_per_sec > 0.0
            ? 100.0 * (a->events_per_sec - b.events_per_sec) / b.events_per_sec
            : 0.0;
    // The simulated workload is deterministic: a differing event count means
    // the two snapshots measured different work, so the wall-clock delta is
    // meaningless for that run.
    bool same_work = b.events == a->events;
    std::printf("%-28s %12.0f %12.0f %+8.1f%%  %s\n", b.name.c_str(),
                b.events_per_sec, a->events_per_sec, delta_pct,
                same_work ? "identical" : "MISMATCH");
    if (threshold >= 0.0 && (!same_work || delta_pct < -threshold)) {
      regression = true;
    }
  }
  for (const BenchRun& a : after.runs) {
    if (FindRun(before, a.name) == nullptr) {
      std::printf("%-28s %12s %12.0f %9s  (missing in before)\n",
                  a.name.c_str(), "-", a.events_per_sec, "-");
    }
  }

  if (regression) {
    std::printf("REGRESSION: at least one run past --threshold %.1f%%\n",
                threshold);
    return 1;
  }
  return 0;
}
