// Saturation knee (beyond the paper): latency vs offered load for both
// atomic broadcast stacks, with and without submission batching, at group
// sizes where the ordering layer — one consensus instance per message
// (FD), one sequence-number round per message (GM) — is what saturates
// first.  The knee of a configuration is the largest offered load whose
// point is still stable (converged and drained); loads past the knee
// render as "unstable", mirroring how the paper leaves saturated settings
// off its graphs.
//
// Batching moves the knee to the right: k submissions share one ordering
// decision (and, on the wire, one AppBatch multicast), with
// the adaptive target k tracking the network backlog so an idle system
// still pays single-message latency.  The shed columns report the open-
// loop arrivals the credit window refused at each load — 0 below the
// knee, climbing past it, always 0 with batching off (no flow control).
//
// Row order: n, then mode (plain before batch), then load — so the plain
// and batch series of one group size sit next to each other in the CSV.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

/// shed / (generated + shed), in percent ("-" before anything arrived).
std::string shed_cell(const core::RunStats& s) {
  const double total = static_cast<double>(s.generated + s.shed);
  if (total <= 0.0) return "-";
  return util::Table::cell(100.0 * static_cast<double>(s.shed) / total, 1);
}

util::Table run_knee(const ScenarioContext& ctx) {
  util::Table table({"n", "mode", "T [1/s]", "FD [ms]", "FD ci95", "FD shed [%]",
                     "GM [ms]", "GM ci95", "GM shed [%]"});

  const bool quick = ctx.param_flag("quick");
  const std::vector<int> ns =
      ctx.param_ints("ns", quick ? std::vector<int>{7} : std::vector<int>{7, 16}, 2, 4096);
  const std::vector<int> loads = ctx.param_ints(
      "loads",
      quick ? std::vector<int>{100, 500, 2000}
            : std::vector<int>{100, 250, 500, 1000, 2000, 4000},
      1, 1000000);

  struct Point {
    int n;
    int load;
    bool batch;
  };
  std::vector<Point> points;
  for (int n : ns)
    for (bool batch : {false, true})
      for (int load : loads) points.push_back({n, load, batch});

  std::vector<RowJob> jobs;
  for (const Point& pt : points) {
    jobs.push_back([pt, &ctx] {
      core::SteadyConfig sc = steady_config(static_cast<double>(pt.load), ctx.budget);

      std::vector<std::string> row{std::to_string(pt.n), pt.batch ? "batch" : "plain",
                                   util::Table::cell(static_cast<double>(pt.load), 0)};
      for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
        core::SimConfig cfg = sim_config_ctx(algo, pt.n, ctx);
        cfg.batching.enabled = pt.batch;  // per-row, independent of --batch
        cfg.fd_params.detection_time = 30.0;
        const core::PointResult r = core::run_steady(cfg, sc);
        add_point_cells(row, r);
        row.push_back(shed_cell(r.stats));
      }
      return row;
    });
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"saturation_knee",
                             "Latency vs offered load around saturation, batching on/off "
                             "(the knee = largest stable load per configuration)",
                             "beyond paper",
                             run_knee,
                             {{"ns", "comma-separated group sizes (2..4096)"},
                              {"loads", "comma-separated offered loads in msgs/s (1..1e6)"}}}};

}  // namespace
}  // namespace fdgm::bench
