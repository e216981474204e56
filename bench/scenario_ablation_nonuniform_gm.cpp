// Ablation A1 (paper §8, "Non-uniform atomic broadcast"): the GM based
// algorithm admits an efficient non-uniform variant using only two
// multicasts (data + seqnum) — the uniformity requirement cannot be
// dropped from the FD algorithm.  This scenario quantifies the price of
// uniformity: latency of uniform GM vs non-uniform GM vs FD in the
// normal-steady scenario.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

util::Table run_nonuniform(const ScenarioContext& ctx) {
  util::Table table({"n", "T [1/s]", "FD uniform [ms]", "FD ci95", "GM uniform [ms]", "GM ci95",
                     "GM non-uniform [ms]", "GM-nu ci95"});
  std::vector<RowJob> jobs;
  for (int n : {3, 7}) {
    for (double t : throughput_sweep(n)) {
      jobs.push_back([n, t, &ctx] {
        const auto fd = core::run_steady(sim_config_ctx(core::Algorithm::kFd, n, ctx),
                                         steady_config(t, ctx.budget));
        const auto gm = core::run_steady(sim_config_ctx(core::Algorithm::kGm, n, ctx),
                                         steady_config(t, ctx.budget));
        const auto nu = core::run_steady(
            sim_config_ctx(core::Algorithm::kGmNonUniform, n, ctx), steady_config(t, ctx.budget));
        std::vector<std::string> row{std::to_string(n), util::Table::cell(t, 0)};
        add_point_cells(row, fd);
        add_point_cells(row, gm);
        add_point_cells(row, nu);
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"ablation_nonuniform_gm",
                             "Ablation: the price of uniformity (non-uniform GM variant)",
                             "paper §8", run_nonuniform, {}}};

}  // namespace
}  // namespace fdgm::bench
