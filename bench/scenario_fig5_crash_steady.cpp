// Figure 5: latency vs throughput in the crash-steady scenario.  Crashes
// happen "a long time ago" (at t = 0 with TD = 0); non-coordinator /
// non-sequencer processes crash (with the FD algorithm's re-numbering the
// choice does not matter, §7).  Expected shape: latency decreases with the
// number of crashes (less load) and GM is slightly below FD for the same
// number of crashes (majority of the shrunken view).
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

std::vector<net::ProcessId> crash_set(int n, int crashes) {
  std::vector<net::ProcessId> out;
  for (int c = 0; c < crashes; ++c) out.push_back(n - 1 - c);  // highest ids
  return out;
}

util::Table run_fig5(const ScenarioContext& ctx) {
  util::Table table({"n", "crashes", "T [1/s]", "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"});
  std::vector<RowJob> jobs;
  for (int n : {3, 7}) {
    const int max_crashes = (n - 1) / 2;
    for (int crashes = 0; crashes <= max_crashes; ++crashes) {
      for (double t : throughput_sweep(n)) {
        jobs.push_back([n, crashes, t, &ctx] {
          auto fd_cfg = sim_config_ctx(core::Algorithm::kFd, n, ctx);
          auto gm_cfg = sim_config_ctx(core::Algorithm::kGm, n, ctx);
          fd_cfg.fd_params.detection_time = 0.0;
          gm_cfg.fd_params.detection_time = 0.0;
          auto sc = steady_config(t, ctx.budget);
          sc.warmup_ms += 1000.0;  // absorb the view change / re-numbering
          const auto fd = core::run_steady(fd_cfg, sc, crash_set(n, crashes));
          const auto gm = core::run_steady(gm_cfg, sc, crash_set(n, crashes));
          std::vector<std::string> row{std::to_string(n), std::to_string(crashes),
                                       util::Table::cell(t, 0)};
          add_point_cells(row, fd);
          add_point_cells(row, gm);
          return row;
        });
      }
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"fig5", "Crash-steady scenario: latency vs throughput", "Fig. 5",
                             run_fig5, {}}};

}  // namespace
}  // namespace fdgm::bench
