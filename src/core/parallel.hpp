// Parallel experiment engine: a small thread pool plus index-space fan-out
// helpers used by the scenario runner to execute independent replica
// simulations concurrently.
//
// Replicas are embarrassingly parallel (each SimRun owns its scheduler,
// network and RNG streams; there is no shared mutable state), so the only
// requirement is that aggregation stays deterministic: `parallel_map`
// returns results indexed by replica, and callers reduce them in index
// order.  A run with jobs=1 and a run with jobs=N therefore produce
// bit-identical results.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fdgm::core {

/// Resolves a job-count request: 0 means "one per hardware thread",
/// anything else is taken literally.  Always returns >= 1.
[[nodiscard]] std::size_t effective_jobs(std::size_t jobs);

/// A fixed-size worker pool executing queued tasks FIFO.  Tasks must not
/// throw across the pool boundary; the fan-out helpers below capture
/// exceptions per index and rethrow the first one on the calling thread.
class ThreadPool {
 public:
  /// Spawns `workers` threads (>= 1; pass effective_jobs(...) for "auto").
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task.  Must not be called after shutdown began.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  std::size_t active_ = 0;
  bool shutdown_ = false;
};

/// Runs fn(i) for every i in [0, count) across up to `jobs` workers
/// (sequentially when jobs <= 1 or count <= 1 — no threads spawned).
/// Blocks until all indices completed; rethrows the first exception.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

/// Same fan-out on an existing pool: no per-call thread spawn/join.  The
/// call owns the pool for its duration (callers must not share one pool
/// across concurrent parallel_for calls); completion is tracked per call,
/// so sequential calls reuse the same workers — this is what the bench
/// driver does across all points of all scenarios.  Falls back to the
/// sequential path when count <= 1 or the pool has a single worker.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Maps [0, count) through `fn` and returns the results in index order,
/// regardless of the execution interleaving.  R must be default
/// constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t count, std::size_t jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(count);
  parallel_for(count, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// parallel_map on an existing pool (see parallel_for above): identical
/// results for any worker count, no pool construction per call.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(count);
  parallel_for(pool, count, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace fdgm::core
