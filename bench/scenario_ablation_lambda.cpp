// Ablation A2 (paper §6.1): the lambda parameter models the relative CPU
// cost of a message vs its network transmission; the paper publishes
// lambda = 1 and refers to the extended report for other values.  This
// scenario sweeps lambda in the normal-steady scenario: with large lambda
// the hosts become the bottleneck, with small lambda the wire does.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

util::Table run_lambda(const ScenarioContext& ctx) {
  util::Table table({"n", "lambda", "T [1/s]", "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"});
  std::vector<RowJob> jobs;
  for (double lambda : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    for (double t : {50.0, 300.0}) {
      jobs.push_back([lambda, t, &ctx] {
        const auto fd = core::run_steady(
            sim_config_ctx(core::Algorithm::kFd, 3, ctx, lambda), steady_config(t, ctx.budget));
        const auto gm = core::run_steady(
            sim_config_ctx(core::Algorithm::kGm, 3, ctx, lambda), steady_config(t, ctx.budget));
        std::vector<std::string> row{"3", util::Table::cell(lambda, 1), util::Table::cell(t, 0)};
        add_point_cells(row, fd);
        add_point_cells(row, gm);
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"ablation_lambda",
                             "Ablation: lambda sweep (CPU vs network bottleneck)", "paper §6.1",
                             run_lambda, {}}};

}  // namespace
}  // namespace fdgm::bench
