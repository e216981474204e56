#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace fdgm::core {

std::size_t effective_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t workers) {
  workers = std::max<std::size_t>(1, workers);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

namespace {

/// Shared fan-out body: `tasks` workers pull indices from one counter —
/// cheap and balanced even when replica runtimes differ widely.  Waits via
/// `wait` (pool-specific) and rethrows the first captured exception.
void pull_indices(ThreadPool& pool, std::size_t tasks, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  for (std::size_t w = 0; w < tasks; ++w) {
    pool.submit([&] {
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
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
  jobs = std::min(effective_jobs(jobs), count);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(jobs);
  pull_indices(pool, jobs, count, fn);
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  const std::size_t tasks = std::min(pool.workers(), count);
  if (tasks <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pull_indices(pool, tasks, count, fn);
}

}  // namespace fdgm::core
