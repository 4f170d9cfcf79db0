#include "src/exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "src/core/run.h"

namespace laminar {

std::vector<SystemReport> RunExperiments(const std::vector<RlSystemConfig>& configs,
                                         const SweepOptions& options) {
  std::vector<SystemReport> reports(configs.size());
  if (configs.empty()) {
    return reports;
  }

  size_t threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, configs.size());

  if (threads == 1) {
    for (size_t i = 0; i < configs.size(); ++i) {
      reports[i] = RunExperiment(configs[i]);
    }
    return reports;
  }

  // Work-stealing by atomic counter: each worker claims the next unstarted
  // config. Claim order varies across runs; result contents do not, because
  // every simulation is self-contained (own clock, own Rng streams).
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size() || failed.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        reports[i] = RunExperiment(configs[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
  return reports;
}

}  // namespace laminar
