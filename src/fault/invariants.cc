#include "src/fault/invariants.h"

#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"
#include "src/snapshot/snapshot_codec.h"
#include "src/trace/trace.h"

namespace laminar {

namespace {
// Tolerance for the per-replica KV token conservation check. Token counts
// are integer-valued doubles, so anything below 1 means "exact".
constexpr double kKvEpsilonTokens = 0.5;
// Recorded violation strings are capped (the count keeps increasing).
constexpr size_t kMaxRecordedViolations = 64;
}  // namespace

InvariantChecker::InvariantChecker(Simulator* sim) : sim_(sim) {
  LAMINAR_CHECK(sim_ != nullptr);
}

void InvariantChecker::Report(const std::string& what) {
  std::ostringstream oss;
  oss << "t=" << sim_->Now().seconds() << "s: " << what;
  ++violation_count_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kInvariant, "invariant/violation", -1,
                        violation_count_);
  if (violations_.size() < kMaxRecordedViolations) {
    violations_.push_back(oss.str());
  }
  LAMINAR_LOG(kWarning) << "invariant violated at " << oss.str();
}

void InvariantChecker::ObserveBufferPush(const TrajectoryRecord& record) {
  size_t idx = record.id >= 0 ? static_cast<size_t>(record.id) : 0;
  if (record.id >= 0 && idx >= pushed_.size()) {
    pushed_.resize(idx + 1, 0);
  }
  if (record.id < 0 || pushed_[idx] != 0) {
    std::ostringstream oss;
    oss << "duplicate experience-buffer entry for trajectory " << record.id;
    Report(oss.str());
  } else {
    pushed_[idx] = 1;
    ++pushes_;
  }
  if (record.inherent_staleness() < 0) {
    std::ostringstream oss;
    oss << "negative inherent staleness " << record.inherent_staleness()
        << " for trajectory " << record.id;
    Report(oss.str());
  }
}

void InvariantChecker::CheckSweep() {
  ++checks_run_;
  LAMINAR_TRACE_INSTANT(sim_, TraceComponent::kInvariant, "invariant/check", -1,
                        checks_run_, static_cast<double>(violation_count_));
  if (issued_fn_ && inflight_fn_ && pool_ != nullptr) {
    int64_t issued = issued_fn_();
    int64_t inflight = inflight_fn_();
    int64_t terminal = pool_->completed() + pool_->dropped();
    if (issued != inflight + terminal) {
      std::ostringstream oss;
      oss << "prompt ledger broken: issued=" << issued << " != inflight=" << inflight
          << " + completed=" << pool_->completed() << " + dropped=" << pool_->dropped();
      Report(oss.str());
    }
  }
  for (const RolloutReplica* r : replicas_) {
    double accounted = r->kv_used_tokens();
    double resident = r->ResidentKvTokens();
    if (std::abs(accounted - resident) > kKvEpsilonTokens) {
      std::ostringstream oss;
      oss << "KV token leak on replica " << r->config().id << ": accounted="
          << accounted << " resident=" << resident;
      Report(oss.str());
    }
  }
  if (serving_fn_) {
    // Admitted-request conservation: every arrival is in exactly one of the
    // six states. (The KV check above doubles as the serving/rollout
    // no-double-count audit — resident serving tokens are charged to the
    // same per-replica accounting rollout work uses.)
    ServingCounts c = serving_fn_();
    int64_t accounted = c.rejected + c.queued + c.resident + c.completed +
                        c.timed_out + c.failed;
    if (c.requests != accounted) {
      std::ostringstream oss;
      oss << "serving request leak: requests=" << c.requests
          << " != rejected=" << c.rejected << " + queued=" << c.queued
          << " + resident=" << c.resident << " + completed=" << c.completed
          << " + timed_out=" << c.timed_out << " + failed=" << c.failed;
      Report(oss.str());
    }
    if (c.deadline_hits + c.deadline_misses != c.completed) {
      std::ostringstream oss;
      oss << "serving deadline bookkeeping broken: hits=" << c.deadline_hits
          << " + misses=" << c.deadline_misses << " != completed=" << c.completed;
      Report(oss.str());
    }
    if (c.queued < 0 || c.resident < 0) {
      std::ostringstream oss;
      oss << "negative serving queue depth: queued=" << c.queued
          << " resident=" << c.resident;
      Report(oss.str());
    }
  }
}

void InvariantChecker::CheckFinal() {
  CheckSweep();
  if (pool_ != nullptr) {
    // Every completion observed by the pool must have produced exactly one
    // buffer push (duplicates were suppressed before pushing).
    if (buffer_pushes() != pool_->completed()) {
      std::ostringstream oss;
      oss << "completion/push mismatch: " << pool_->completed()
          << " completions vs " << buffer_pushes() << " buffer pushes";
      Report(oss.str());
    }
  }
}

void InvariantChecker::Snapshot(SnapshotTx& tx) {
  tx.Begin("invariants");
  tx.I64As("pushes", &pushes_);
  tx.I64As("checks_run", &checks_run_);
  tx.I64As("violation_count", &violation_count_);
  tx.I64As("faults_injected", &faults_injected_);
  SnapshotPacked(
      tx, "state",
      [this](ByteSink& s) {
        s.U64(pushed_.size());
        for (uint8_t b : pushed_) {
          s.U8(b);
        }
        s.U64(violations_.size());
        for (const std::string& v : violations_) {
          s.Str(v);
        }
      },
      [this](ByteSource& s) {
        pushed_.resize(static_cast<size_t>(s.U64()));
        for (uint8_t& b : pushed_) {
          b = s.U8();
        }
        violations_.resize(static_cast<size_t>(s.U64()));
        for (std::string& v : violations_) {
          v = s.Str();
        }
      });
  tx.End();
}

bool ThroughputRecovered(const TimeSeries& series, SimTime fault_start,
                         SimTime recovered_by, double window_seconds, double ratio) {
  double baseline =
      series.MeanInWindow(fault_start - window_seconds, fault_start);
  if (baseline <= 0.0) {
    return true;
  }
  double after =
      series.MeanInWindow(recovered_by, recovered_by + window_seconds);
  return after >= ratio * baseline;
}

}  // namespace laminar
