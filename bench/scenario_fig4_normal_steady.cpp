// Figure 4: latency vs throughput in the normal-steady scenario (neither
// crashes nor suspicions), n = 3 and n = 7, lambda = 1.  The paper plots a
// single curve per n because the two algorithms perform identically; we
// emit both series so the equality is visible.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

util::Table run_fig4(const ScenarioContext& ctx) {
  util::Table table({"n", "T [1/s]", "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"});
  std::vector<RowJob> jobs;
  for (int n : {3, 7}) {
    for (double t : throughput_sweep(n)) {
      jobs.push_back([n, t, &ctx] {
        const auto fd = core::run_steady(sim_config_ctx(core::Algorithm::kFd, n, ctx),
                                         steady_config(t, ctx.budget));
        const auto gm = core::run_steady(sim_config_ctx(core::Algorithm::kGm, n, ctx),
                                         steady_config(t, ctx.budget));
        std::vector<std::string> row{std::to_string(n), util::Table::cell(t, 0)};
        add_point_cells(row, fd);
        add_point_cells(row, gm);
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"fig4", "Normal-steady scenario: latency vs throughput", "Fig. 4",
                             run_fig4, {}}};

}  // namespace
}  // namespace fdgm::bench
