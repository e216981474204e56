#include "oracle.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"

namespace fdgm::perf {

namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
};

std::string pid(net::ProcessId p) { return "p" + std::to_string(p); }

}  // namespace

const Log& log_of(core::SimRun& run, net::ProcessId p) {
  abcast::AtomicBroadcastProcess& proc = run.proc(p);
  if (run.config().algorithm == core::Algorithm::kFd)
    return static_cast<abcast::FdAbcastProcess&>(proc).log();
  return static_cast<abcast::GmAbcastProcess&>(proc).log();
}

bool alive_logs_agree(core::SimRun& run) {
  std::size_t longest = 0;
  std::size_t shortest_alive = SIZE_MAX;
  for (int p = 0; p < run.config().n; ++p) {
    const std::size_t size = log_of(run, p).size();
    longest = std::max(longest, size);
    if (!run.system().node(p).crashed()) shortest_alive = std::min(shortest_alive, size);
  }
  return shortest_alive == longest;
}

Verdict check_run(core::SimRun& run, const std::vector<bool>& ever_crashed) {
  Verdict v;
  const int n = run.config().n;
  auto fail = [&v](std::string what) { v.violations.push_back(std::move(what)); };

  const Log* longest = &log_of(run, 0);
  for (int p = 1; p < n; ++p)
    if (log_of(run, p).size() > longest->size()) longest = &log_of(run, p);
  v.delivered = longest;

  for (int p = 0; p < n; ++p) {
    const Log& log = log_of(run, p);
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i]->id != (*longest)[i]->id) {
        fail("total order: " + pid(p) + " diverges from the longest log at position " +
             std::to_string(i));
        break;
      }
    }
    if (!run.system().node(p).crashed() && log.size() != longest->size())
      fail("agreement: " + pid(p) + " (alive) delivered " + std::to_string(log.size()) + " of " +
           std::to_string(longest->size()) + " messages");
  }

  std::unordered_set<abcast::MsgId, abcast::MsgIdHash> seen;
  seen.reserve(longest->size());
  std::vector<std::uint64_t> count(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> max_seq(static_cast<std::size_t>(n), 0);
  for (const abcast::AppMessagePtr m : *longest) {
    if (!seen.insert(m->id).second) {
      fail("integrity: " + pid(m->id.origin) + "#" + std::to_string(m->id.seq) +
           " delivered twice");
      continue;
    }
    if (m->id.origin < 0 || m->id.origin >= n || m->id.seq == 0) {
      fail("integrity: malformed id " + pid(m->id.origin) + "#" + std::to_string(m->id.seq));
      continue;
    }
    const auto o = static_cast<std::size_t>(m->id.origin);
    ++count[o];
    max_seq[o] = std::max(max_seq[o], m->id.seq);
  }
  // The recorder registers every workload broadcast; a delivery of an id
  // it never saw registers one more entry, so the two counts differ.
  core::LatencyRecorder& rec = run.recorder();
  const std::uint64_t generated = run.workload().generated();
  if (rec.total_broadcast() != generated)
    fail("integrity: " + std::to_string(rec.total_broadcast() - generated) +
         " delivered ids were never broadcast");
  if (rec.total_delivered() != longest->size())
    fail("integrity: " + std::to_string(rec.total_delivered()) +
         " messages were delivered somewhere, the logs hold " +
         std::to_string(longest->size()));

  for (int p = 0; p < n; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (!ever_crashed[i] && count[i] != max_seq[i])
      fail("validity: " + std::to_string(max_seq[i] - count[i]) + " messages of " + pid(p) +
           " (never crashed) below #" + std::to_string(max_seq[i]) + " were never delivered");
  }
  v.undelivered = generated > longest->size() ? generated - longest->size() : 0;

  Fnv1a d;
  for (int p = 0; p < n; ++p) d.add(log_of(run, p).size());
  for (const abcast::AppMessagePtr m : *longest) {
    d.add(static_cast<std::uint64_t>(m->id.origin));
    d.add(m->id.seq);
    d.add(std::bit_cast<std::uint64_t>(rec.latency_of(m->id)));
  }
  v.digest = d.h;
  return v;
}

}  // namespace fdgm::perf
