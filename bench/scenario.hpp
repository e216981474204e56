// Scenario registry for the unified bench driver.
//
// Every paper figure (and ablation) registers its sweep once — name, title,
// figure reference and a function producing one result table — and
// `fdgm_bench` selects scenarios by name, runs each sweep's rows across
// --jobs threads (fill_rows) and renders the table as text, CSV or JSON.  Adding a
// figure means adding one `scenario_*.cpp` file with a registrar; no new
// main, no new CMake target.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/parallel.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/export_sink.hpp"
#include "util/csv.hpp"

namespace fdgm::bench {

/// Parses a non-empty run of decimal digits that fits in 64 bits.  No
/// sign, whitespace or suffix: strtoull alone would wrap "-1" to 2^64-1
/// and skip leading blanks.
[[nodiscard]] inline bool parse_digits(const char* s, std::uint64_t& out) {
  if (*s == '\0') return false;
  for (const char* c = s; *c != '\0'; ++c)
    if (*c < '0' || *c > '9') return false;
  errno = 0;
  out = std::strtoull(s, nullptr, 10);
  return errno != ERANGE;
}

/// Everything a scenario needs to size and seed its sweep.
struct ScenarioContext {
  BenchBudget budget;
  /// Base seed; replica r of a point uses seed + r exactly as before.
  std::uint64_t seed = 1000;
  /// Threads fill_rows runs a sweep's rows on (--jobs; 0 = one per
  /// hardware thread, 1 = a plain loop).  Replicas inside a row always
  /// run one after another.
  std::size_t jobs = 1;
  /// Extra fault schedule from the CLI (--faults), applied to every
  /// simulation of the sweep on top of whatever the scenario injects.
  /// Events referencing processes outside a run's 0..n-1 are skipped.
  fault::FaultSchedule faults;
  /// Retransmission transport from the CLI (--transport), applied to
  /// every simulation of every sweep.  With loss off an armed transport
  /// is bit-identical to running without it (the CI diffs CSVs across
  /// the two); scenarios that *require* the transport (lossy_throughput)
  /// arm it themselves regardless of this flag.
  transport::Config transport;
  /// --profile: scenarios may append extra machine-independent
  /// diagnostic columns (e.g. retransmissions/sec) that are omitted from
  /// the default CSV layout.
  bool profile = false;
  /// Submission batching from the CLI (--batch), applied to every
  /// simulation of every sweep.  Scenarios with dedicated batched rows
  /// (saturation_knee, the "-b" modes) arm it themselves per row.
  abcast::BatchConfig batching;
  /// Observability from the CLI (--trace/--metrics arm it for every
  /// simulation of every sweep; scenarios that need the causal
  /// decomposition, like critical_path, arm it themselves).  Armed
  /// observability is passive — the default CSV columns are unchanged.
  obs::Config obs;
  /// Per-scenario parameters from the CLI (`--set key=value`, repeatable).
  /// The driver rejects keys that no selected scenario (and no driver
  /// knob) declares; values are validated by the typed getters below.
  std::map<std::string, std::string> params;

  /// `--set key=1` / `key=0` flag (absent: false).
  [[nodiscard]] bool param_flag(const std::string& key) const {
    auto it = params.find(key);
    if (it == params.end()) return false;
    if (it->second == "1" || it->second == "true") return true;
    if (it->second == "0" || it->second == "false") return false;
    throw std::invalid_argument("--set " + key + " expects 0|1, got '" + it->second + "'");
  }

  [[nodiscard]] std::uint64_t param_u64(const std::string& key, std::uint64_t def,
                                        std::uint64_t lo, std::uint64_t hi) const {
    auto it = params.find(key);
    if (it == params.end()) return def;
    std::uint64_t v = 0;
    if (!parse_digits(it->second.c_str(), v) || v < lo || v > hi)
      throw std::invalid_argument("--set " + key + " expects an integer in [" +
                                  std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                                  it->second + "'");
    return v;
  }

  /// Comma-separated list of digit runs (see parse_digits), each element
  /// range-checked.
  [[nodiscard]] std::vector<int> param_ints(const std::string& key, std::vector<int> def,
                                            int lo, int hi) const {
    auto it = params.find(key);
    if (it == params.end()) return def;
    std::vector<int> out;
    const std::string& s = it->second;
    std::size_t pos = 0;
    while (pos <= s.size()) {
      const std::size_t comma = std::min(s.find(',', pos), s.size());
      std::uint64_t v = 0;
      if (!parse_digits(s.substr(pos, comma - pos).c_str(), v) ||
          v > static_cast<std::uint64_t>(hi) || static_cast<int>(v) < lo)
        throw std::invalid_argument("--set " + key + " expects comma-separated integers in [" +
                                    std::to_string(lo) + ", " + std::to_string(hi) +
                                    "], got '" + s + "'");
      out.push_back(static_cast<int>(v));
      pos = comma + 1;
    }
    return out;
  }
};

/// One `--set` key a scenario accepts, with its --list help text.
struct ParamSpec {
  std::string key;
  std::string help;
};

struct Scenario {
  std::string name;    // CLI handle, e.g. "fig5"
  std::string title;   // one-line description
  std::string figure;  // paper reference, e.g. "Fig. 5"
  std::function<util::Table(const ScenarioContext&)> run;
  /// Accepted `--set` keys (beyond the driver-level quick/replicas/samples).
  std::vector<ParamSpec> params;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  void add(Scenario s);

  /// nullptr when no scenario has that name.
  [[nodiscard]] const Scenario* find(const std::string& name) const;

  /// All scenarios in registration order.
  [[nodiscard]] const std::vector<Scenario>& all() const { return scenarios_; }

 private:
  std::vector<Scenario> scenarios_;
};

/// Put one of these at namespace scope in each scenario file:
///   namespace { const ScenarioRegistrar reg{{ "fig4", ... }}; }
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario s);
};

/// Shared helper: SimConfig from a context — seed plus the CLI-level fault
/// schedule.  Every scenario builds its configs through this so that
/// `fdgm_bench <scenario> --faults "..."` affects any sweep.
inline core::SimConfig sim_config_ctx(core::Algorithm a, int n, const ScenarioContext& ctx,
                                      double lambda = 1.0) {
  core::SimConfig cfg = sim_config(a, n, lambda, ctx.seed);
  cfg.faults = ctx.faults;
  cfg.transport = ctx.transport;
  cfg.batching = ctx.batching;
  cfg.obs = ctx.obs;
  return cfg;
}

/// Appends "mean, ci95" cells for a steady or transient result
/// ("unstable, -" when the point saturated — mirroring the paper leaving
/// such settings off the graphs).
inline void add_point_cells(std::vector<std::string>& row, const core::PointResult& r) {
  if (!r.stable) {
    row.emplace_back("unstable");
    row.emplace_back("-");
    return;
  }
  row.push_back(util::Table::cell(r.latency.mean));
  row.push_back(util::Table::cell(r.latency.half_width));
}

/// add_point_cells for windowed results: "mean, ci95" cells per window,
/// "unstable, -" per window when the point failed to converge/drain.
inline void add_window_cells(std::vector<std::string>& row, const core::WindowedResult& r) {
  for (const util::MeanCi& w : r.windows) {
    if (!r.stable) {
      row.emplace_back("unstable");
      row.emplace_back("-");
    } else {
      row.push_back(util::Table::cell(w.mean));
      row.push_back(util::Table::cell(w.half_width));
    }
  }
}

/// One sweep point = one row job.  fill_rows runs the jobs on ctx.jobs
/// threads and appends the rows in declaration order, so the rendered
/// table is identical for every job count.
using RowJob = std::function<std::vector<std::string>()>;

inline void fill_rows(util::Table& table, const ScenarioContext& ctx,
                      const std::vector<RowJob>& row_jobs) {
  std::vector<std::vector<std::string>> rows(row_jobs.size());
  // Rows run one at a time while the export sink (ctx.obs.sink) is
  // unwritten, so any job count exports the replica one worker would.
  const auto exporting = [&] { return ctx.obs.sink != nullptr && !ctx.obs.sink->written(); };
  std::size_t next = 0;
  for (; next < rows.size() && exporting(); ++next) rows[next] = row_jobs[next]();
  core::parallel_for(rows.size() - next, ctx.jobs,
                     [&](std::size_t i) { rows[next + i] = row_jobs[next + i](); });
  for (auto& r : rows) table.add_row(std::move(r));
}

}  // namespace fdgm::bench
