#include "src/workload/serving_traffic.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/snapshot/snapshot.h"

namespace laminar {

namespace {
constexpr double kTwoPi = 6.283185307179586476925286766559;
}  // namespace

ServingTrafficGenerator::ServingTrafficGenerator(ServingTrafficConfig config, Rng rng)
    : config_(config), rng_(rng) {
  // An infinite rate makes the thinning ratio inf/inf = NaN, so Next()
  // would reject every candidate forever.
  LAMINAR_CHECK(config_.base_rate_per_sec > 0.0 && std::isfinite(config_.base_rate_per_sec));
  LAMINAR_CHECK(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0);
  LAMINAR_CHECK(config_.diurnal_period_seconds > 0.0);
  prompt_lengths_.median_tokens = config_.prompt_median_tokens;
  prompt_lengths_.sigma = config_.prompt_sigma;
  prompt_lengths_.min_tokens = config_.prompt_min_tokens;
  prompt_lengths_.max_tokens = config_.prompt_max_tokens;
  decode_lengths_.median_tokens = config_.decode_median_tokens;
  decode_lengths_.sigma = config_.decode_sigma;
  decode_lengths_.min_tokens = config_.decode_min_tokens;
  decode_lengths_.max_tokens = config_.decode_max_tokens;
  clock_seconds_ = config_.start_seconds;
}

double ServingTrafficGenerator::RateAt(double t) const {
  const double phase = kTwoPi * t / config_.diurnal_period_seconds + config_.phase_radians;
  return config_.base_rate_per_sec * (1.0 + config_.diurnal_amplitude * std::sin(phase));
}

double ServingTrafficGenerator::PeakRate() const {
  return config_.base_rate_per_sec * (1.0 + config_.diurnal_amplitude);
}

double ServingTrafficGenerator::ExpectedArrivals(double t0, double t1) const {
  // Integral of base * (1 + A*sin(2*pi*t/P + phi)) dt.
  const double w = kTwoPi / config_.diurnal_period_seconds;
  const double base = config_.base_rate_per_sec;
  const double amp = config_.diurnal_amplitude;
  const double linear = base * (t1 - t0);
  const double wave = -base * amp / w *
                      (std::cos(w * t1 + config_.phase_radians) -
                       std::cos(w * t0 + config_.phase_radians));
  return linear + wave;
}

ServingRequest ServingTrafficGenerator::Next() {
  // Lewis–Shedler thinning against the constant peak-rate envelope: step the
  // clock by Exp(peak) gaps and accept each candidate with probability
  // rate(t)/peak. Every candidate consumes exactly two draws, so the stream
  // position after n arrivals depends only on the seed and the rate curve.
  const double peak = PeakRate();
  for (;;) {
    clock_seconds_ += rng_.Exponential(peak);
    const double accept = RateAt(clock_seconds_) / peak;
    if (rng_.Uniform() < accept) {
      break;
    }
  }
  ServingRequest req;
  req.seq = next_seq_++;
  req.arrival_seconds = clock_seconds_;
  req.prompt_tokens = prompt_lengths_.Sample(rng_);
  req.decode_tokens = decode_lengths_.Sample(rng_);
  req.deadline_seconds = req.arrival_seconds + config_.slo_base_seconds +
                         static_cast<double>(req.decode_tokens) * config_.slo_per_token_seconds;
  return req;
}

void ServingTrafficGenerator::Snapshot(SnapshotTx& tx) {
  rng_.Snapshot(tx);
  tx.F64("clock_seconds", &clock_seconds_);
  tx.I64("next_seq", &next_seq_);
}

}  // namespace laminar
