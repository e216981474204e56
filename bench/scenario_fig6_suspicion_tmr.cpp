// Figure 6: latency vs mistake recurrence time TMR in the suspicion-steady
// scenario, with TM = 0 (point mistakes).  Four panels: (n, T) in
// {3,7} x {10,300} 1/s.  Expected shape: the GM algorithm is far more
// sensitive to wrong suspicions than the FD algorithm; the curves only
// meet at very large TMR.
#include <algorithm>

#include "scenario.hpp"

namespace fdgm::bench {
namespace {

util::Table run_fig6(const ScenarioContext& ctx) {
  util::Table table({"n", "T [1/s]", "TMR [ms]", "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"});
  const std::vector<double> tmr_sweep{10, 30, 100, 300, 1000, 10000, 100000};
  std::vector<RowJob> jobs;
  for (int n : {3, 7}) {
    for (double t : {10.0, 300.0}) {
      for (double tmr : tmr_sweep) {
        jobs.push_back([n, t, tmr, &ctx] {
          auto fd_cfg = sim_config_ctx(core::Algorithm::kFd, n, ctx);
          auto gm_cfg = sim_config_ctx(core::Algorithm::kGm, n, ctx);
          for (auto* cfg : {&fd_cfg, &gm_cfg}) {
            cfg->fd_params.wrong_suspicions = true;
            cfg->fd_params.mistake_recurrence = tmr;
            cfg->fd_params.mistake_duration = 0.0;
          }
          auto sc = steady_config(t, ctx.budget);
          // Let rare mistakes show up: cover at least ~20 recurrence
          // periods, capped to keep the bench fast.
          sc.min_window_ms = std::min(20.0 * tmr, 20000.0);
          const auto fd = core::run_steady(fd_cfg, sc);
          const auto gm = core::run_steady(gm_cfg, sc);
          std::vector<std::string> row{std::to_string(n), util::Table::cell(t, 0),
                                       util::Table::cell(tmr, 0)};
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

const ScenarioRegistrar reg{{"fig6", "Suspicion-steady scenario: latency vs TMR (TM = 0)",
                             "Fig. 6", run_fig6, {}}};

}  // namespace
}  // namespace fdgm::bench
