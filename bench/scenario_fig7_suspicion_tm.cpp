// Figure 7: latency vs mistake duration TM in the suspicion-steady
// scenario, with TMR fixed per panel exactly as in the paper:
//   (n=3, T=10):  TMR = 1000 ms     (n=7, T=10):  TMR = 10000 ms
//   (n=3, T=300): TMR = 10000 ms    (n=7, T=300): TMR = 100000 ms
// Expected shape: the GM algorithm is sensitive to TM as well (repeated
// exclusions while the mistake lasts), the FD algorithm much less so.
#include <algorithm>

#include "scenario.hpp"

namespace fdgm::bench {
namespace {

util::Table run_fig7(const ScenarioContext& ctx) {
  struct Panel {
    int n;
    double t;
    double tmr;
  };
  const std::vector<Panel> panels{
      {3, 10.0, 1000.0}, {7, 10.0, 10000.0}, {3, 300.0, 10000.0}, {7, 300.0, 100000.0}};
  const std::vector<double> tm_sweep{1, 10, 100, 300, 1000};

  util::Table table(
      {"n", "T [1/s]", "TMR [ms]", "TM [ms]", "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"});
  std::vector<RowJob> jobs;
  for (const Panel& p : panels) {
    for (double tm : tm_sweep) {
      jobs.push_back([p, tm, &ctx] {
        auto fd_cfg = sim_config_ctx(core::Algorithm::kFd, p.n, ctx);
        auto gm_cfg = sim_config_ctx(core::Algorithm::kGm, p.n, ctx);
        for (auto* cfg : {&fd_cfg, &gm_cfg}) {
          cfg->fd_params.wrong_suspicions = true;
          cfg->fd_params.mistake_recurrence = p.tmr;
          cfg->fd_params.mistake_duration = tm;
        }
        auto sc = steady_config(p.t, ctx.budget);
        sc.min_window_ms = std::min(10.0 * p.tmr, 25000.0);
        const auto fd = core::run_steady(fd_cfg, sc);
        const auto gm = core::run_steady(gm_cfg, sc);
        std::vector<std::string> row{std::to_string(p.n), util::Table::cell(p.t, 0),
                                     util::Table::cell(p.tmr, 0), util::Table::cell(tm, 0)};
        add_point_cells(row, fd);
        add_point_cells(row, gm);
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"fig7", "Suspicion-steady scenario: latency vs TM (TMR fixed)",
                             "Fig. 7", run_fig7, {}}};

}  // namespace
}  // namespace fdgm::bench
