// Index-space fan-out for the bench driver: `fdgm_bench --jobs N` runs a
// sweep's rows through parallel_for, and that is the only parallelism in
// the reproduction (runners loop over their replicas on the calling
// thread).
//
// Rows are embarrassingly parallel (each SimRun owns its scheduler,
// network and RNG streams; there is no shared mutable state), so the only
// requirement is that aggregation stays deterministic: `parallel_map`
// returns results indexed by row, and callers consume them in index order.
// A run with jobs=1 and a run with jobs=N therefore produce bit-identical
// results.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace fdgm::core {

/// Resolves a job-count request: 0 means "one per hardware thread",
/// anything else is taken literally.  Always returns >= 1.
[[nodiscard]] std::size_t effective_jobs(std::size_t jobs);

/// Runs fn(i) for every i in [0, count).  With min(effective_jobs(jobs),
/// count) <= 1 this is a plain loop on the calling thread; otherwise that
/// many threads pull indices from one shared counter (balanced even when
/// rows take very different times) and are joined before returning.  The
/// first exception any fn(i) threw is rethrown after every thread joined.
void parallel_for(std::size_t count, std::size_t jobs,
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

}  // namespace fdgm::core
