// Causal critical-path decomposition under loss (armed src/obs/ causal
// tracing): *why* does a lossy delivery take as long as it does?
//
// The lossy_decomposition scenario splits latency into the three
// lifecycle phases (submission wait / ordering / delivery) but cannot say
// what the time inside a phase was spent on.  This scenario arms the
// causal edge recorder and walks every delivered message's critical path,
// attributing each millisecond to exactly one cause:
//
//   credit_wait / batch_wait   flow-control credit closed / batch timer
//   cpu_queue                  send- or receive-side CPU queueing
//   wire                       frames in flight on the shared medium
//   loss_nack / loss_timer /   transport recovery of a lost frame, split
//   loss_backoff               by which mechanism recovered it
//   seq_queue                  waiting in the GM sequencer's pending queue
//   consensus_round            covered by a Chandra-Toueg round (FD)
//   reorder_hold               delivered frames held for per-pair FIFO
//
// The per-cause means add up to the end-to-end mean over the same message
// population, so the rows refine lossy_decomposition's totals.  The
// headline question from the ROADMAP hotspot: GM's post-ordering tail at
// n = 32 @ 5% loss — is it wire, sequencer retransmission recovery, or
// reorder hold?
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

constexpr double kLossHorizon = 1.0e7;

double throughput_for(int n) { return n >= 32 ? 50.0 : 100.0; }

util::Table run_critical_path(const ScenarioContext& ctx) {
  std::vector<std::string> headers{"algo", "n", "loss [%]", "T [1/s]", "total [ms]"};
  for (std::size_t c = 0; c < obs::kCauseCount; ++c)
    headers.push_back(std::string(obs::cause_name(static_cast<obs::Cause>(c))) + " [ms]");
  util::Table table(headers);

  const bool quick = ctx.param_flag("quick");

  struct Point {
    int n;
    double loss;
  };
  std::vector<Point> points{{7, 0.05}, {32, 0.05}};
  if (quick) points = {{3, 0.01}, {7, 0.05}};

  std::vector<RowJob> jobs;
  for (const Point& pt : points) {
    for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
      jobs.push_back([pt, algo, &ctx] {
        const double throughput = throughput_for(pt.n);
        const core::SteadyConfig sc = steady_config(throughput, ctx.budget);

        core::SimConfig cfg = sim_config_ctx(algo, pt.n, ctx);
        cfg.transport.enabled = true;
        cfg.fd_params.detection_time = 30.0;
        cfg.obs.enabled = true;
        cfg.obs.causal = true;
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kLoss;
        e.rate = pt.loss;
        e.at = 0.0;
        e.until = kLossHorizon;
        cfg.faults.add(e);

        const core::PointResult r = core::run_steady(cfg, sc);
        std::vector<std::string> row{core::algorithm_name(algo), std::to_string(pt.n),
                                     util::Table::cell(pt.loss * 100.0),
                                     util::Table::cell(throughput, 0)};
        const obs::CauseTotals& causes = r.stats.causes;
        if (!r.stable || causes.count == 0) {
          row.emplace_back("unstable");
          for (std::size_t c = 0; c < obs::kCauseCount; ++c) row.emplace_back("-");
          return row;
        }
        const auto per = [&](double sum) {
          return util::Table::cell(sum / static_cast<double>(causes.count));
        };
        double total = 0.0;
        for (double s : causes.sums) total += s;
        row.push_back(per(total));
        for (double s : causes.sums) row.push_back(per(s));
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"critical_path",
                             "Causal critical-path decomposition under loss (armed causal "
                             "tracing): every ms of a delivery attributed to one cause, "
                             "refining lossy_decomposition's phase splits",
                             "beyond paper", run_critical_path, {}}};

}  // namespace
}  // namespace fdgm::bench
