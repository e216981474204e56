#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace fdgm::core {

std::size_t effective_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  jobs = std::min(effective_jobs(jobs), count);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (std::size_t t = 0; t < jobs; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace fdgm::core
