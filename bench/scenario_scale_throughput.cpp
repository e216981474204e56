// Large-n scaling (beyond the paper): the paper evaluates n = 3..7; this
// family sweeps n in {8, 16, 32, 64, 128} for both stacks, in steady state
// and with one crashed process, and reports the abcast latency.
//
// The runs are FD-heavy by construction: the QoS model keeps one
// wrong-suspicion renewal timer alive per ordered process pair, so the
// scheduler carries an O(n^2) timer population (16k pending timers at
// n = 128) underneath the hot O(1 ms) protocol events.  TMR is scaled
// with n(n-1) to keep the *system-wide* mistake rate constant across the
// sweep (a fixed per-pair TMR would melt the GM stack at n = 128 with a
// view change every few ms, which is a different experiment).
//
// The "steady-b" rows at the end arm submission batching and push the
// group-size axis past the unbatched ceiling — appended after the
// original sweep so the previous CSV is a byte prefix of the new one.
// `--set ns=...` / `--set batch_ns=...` override either axis.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

constexpr double kThroughput = 100.0;  // msgs/s across the group
constexpr double kSystemMistakeGap = 5000.0;  // one wrong suspicion per 5 s system-wide

util::Table run_scale(const ScenarioContext& ctx) {
  util::Table table({"n", "mode", "T [1/s]", "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"});
  const bool quick = ctx.param_flag("quick");
  const std::vector<int> ns =
      ctx.param_ints("ns", quick ? std::vector<int>{8, 16, 32}
                                 : std::vector<int>{8, 16, 32, 64, 128},
                     2, 4096);
  // Batched extension: larger groups than the unbatched ceiling, steady
  // only (one crashed process is the lossy family's subject).
  const std::vector<int> ns_b =
      ctx.param_ints("batch_ns", quick ? std::vector<int>{32}
                                       : std::vector<int>{128, 192},
                     2, 4096);

  struct Point {
    int n;
    const char* mode;
    bool batch;
  };
  std::vector<Point> points;
  for (int n : ns)
    for (const char* mode : {"steady", "crash"}) points.push_back({n, mode, false});
  for (int n : ns_b) points.push_back({n, "steady-b", true});

  std::vector<RowJob> jobs;
  for (const Point& pt : points) {
    {
      const int n = pt.n;
      const char* mode = pt.mode;
      const bool batch = pt.batch;
      const bool crash = mode[0] == 'c';
      jobs.push_back([n, crash, batch, mode, &ctx] {
        core::SteadyConfig sc = steady_config(kThroughput, ctx.budget);
        if (crash) sc.warmup_ms += 1000.0;  // absorb detection + view change

        const std::vector<net::ProcessId> crashes =
            crash ? std::vector<net::ProcessId>{n - 1} : std::vector<net::ProcessId>{};

        std::vector<std::string> row{std::to_string(n), mode,
                                     util::Table::cell(kThroughput, 0)};
        for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
          core::SimConfig cfg = sim_config_ctx(algo, n, ctx);
          cfg.batching.enabled = batch;  // per-row, independent of --batch
          cfg.fd_params.detection_time = 30.0;
          // O(n^2) renewal timers; system-wide mistake rate held constant
          // across n (see file comment).
          cfg.fd_params.wrong_suspicions = true;
          cfg.fd_params.mistake_recurrence =
              static_cast<double>(n) * static_cast<double>(n - 1) * kSystemMistakeGap;
          cfg.fd_params.mistake_duration = 50.0;
          add_point_cells(row, core::run_steady(cfg, sc, crashes));
        }
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"scale_throughput",
                             "Large-n scaling: abcast latency, n up to 192 (batched), "
                             "steady and crash",
                             "beyond paper",
                             run_scale,
                             {{"ns", "comma-separated unbatched group sizes (2..4096)"},
                              {"batch_ns",
                               "comma-separated batched steady-b group sizes (2..4096)"}}}};

}  // namespace
}  // namespace fdgm::bench
