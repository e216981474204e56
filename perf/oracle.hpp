// Correctness oracle of the benchmark: checks one finished run against the
// uniform atomic broadcast specification (Chandra-Toueg, JACM'96) through
// public accessors only, and digests what the run delivered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abcast/abcast.hpp"
#include "core/experiment.hpp"

namespace fdgm::perf {

using Log = std::vector<abcast::AppMessagePtr>;

/// A-delivery log of process p, whichever stack the run uses.
[[nodiscard]] const Log& log_of(core::SimRun& run, net::ProcessId p);

struct Verdict {
  /// One line per violated property; empty when the run is correct.
  std::vector<std::string> violations;
  /// The union of every process's log.  Once total order holds every log
  /// is a prefix of the longest one, so the union is that log.
  const Log* delivered = nullptr;
  /// Broadcast messages that no process delivered.
  std::uint64_t undelivered = 0;
  /// FNV-1a over the union log (ids and latency bits) and every
  /// process's log length: equal digests mean equal delivery histories.
  std::uint64_t digest = 0;
};

/// Every process alive now holds as many messages as the longest log.
/// Once total order holds, that means every alive process holds the union.
[[nodiscard]] bool alive_logs_agree(core::SimRun& run);

/// Checks a drained run.  `ever_crashed[p]` tells whether process p
/// crashed at any point (validity only binds processes that never did).
///   total order  every process's log is a prefix of every longer one;
///   integrity    no id twice, and no id that was never broadcast;
///   agreement    every process alive at the end holds the whole union;
///   validity     per-origin sequence numbers are dense from 1, so a
///                never-crashed origin's delivered ids must have no gap.
[[nodiscard]] Verdict check_run(core::SimRun& run, const std::vector<bool>& ever_crashed);

}  // namespace fdgm::perf
