// Causal critical-path decomposition under loss (armed src/obs/ causal
// tracing): where does the time of a lossy delivery go, and why?
//
// Arms the causal edge recorder and walks every delivered message's
// critical path, attributing each millisecond to exactly one cause:
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
// The per-cause means add up to the end-to-end mean `total` over the same
// message population (global-first deliveries, which can sit slightly
// below the per-process latency column of lossy_throughput: min <= mean
// over processes).  Two transport columns follow: `seq-retx share`, the
// share of retransmissions originating at process 0 (the GM sequencer),
// and `retx/s`.  The headline question from the ROADMAP hotspot: GM's
// post-ordering tail at n = 32 @ 5% loss — is it wire, sequencer
// retransmission recovery, or reorder hold?  Same load and fault setup as
// lossy_throughput, so the totals line up with its rows.
//
// The flight-recorder slabs are sized from the sample budget and n, so a
// longer run gets larger slabs instead of dropping.  A decomposition that
// still lost spans or edges to full slabs would be silently wrong, so
// such a row fails the scenario instead.  A row whose runs hit the time
// horizon before the sample budget is printed, with one warning on
// stderr: it rests on fewer messages than asked for.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "scenario.hpp"

namespace fdgm::bench {
namespace {

constexpr double kLossHorizon = 1.0e7;

double throughput_for(int n) { return n >= 32 ? 50.0 : 100.0; }

/// Arms causal tracing with slabs sized from the budget as the outside-in
/// benchmark (perf/) sizes its traced passes: spans per origin from the
/// messages a run broadcasts (the warm-up plus the sample budget, at most
/// the horizon's worth) with a wide margin, and edges per span from the
/// fan-out — every remote delivery records a few markers, about 16 per
/// destination at the measured peak (n = 32 at 5% loss, retransmissions
/// included).
void arm_causal(core::SimConfig& cfg, const core::SteadyConfig& sc) {
  const double samples_ms = static_cast<double>(sc.samples) * 1000.0 / sc.throughput;
  const double run_ms = std::min(sc.max_time_ms, sc.warmup_ms + samples_ms);
  const double per_origin = sc.throughput / cfg.n * run_ms / 1000.0;
  cfg.obs.enabled = true;
  cfg.obs.causal = true;
  cfg.obs.span_capacity = static_cast<std::size_t>(per_origin * 1.5) + 256;
  cfg.obs.edge_capacity = cfg.obs.span_capacity * static_cast<std::size_t>(24 * cfg.n + 64);
}

util::Table run_critical_path(const ScenarioContext& ctx) {
  std::vector<std::string> headers{"algo", "n", "loss [%]", "T [1/s]", "total [ms]"};
  for (std::size_t c = 0; c < obs::kCauseCount; ++c)
    headers.push_back(std::string(obs::cause_name(static_cast<obs::Cause>(c))) + " [ms]");
  headers.emplace_back("seq-retx share");
  headers.emplace_back("retx/s");
  // --profile: end-to-end latency quantiles from the armed observer's
  // histogram (machine-independent, but omitted from the default CSV
  // layout so the committed results stay byte-stable).
  if (ctx.profile) {
    headers.emplace_back("p50 [ms]");
    headers.emplace_back("p99 [ms]");
  }
  const std::size_t width = headers.size();
  util::Table table(headers);

  const bool quick = ctx.param_flag("quick");

  struct Point {
    int n;
    double loss;
  };
  std::vector<Point> points{{7, 0.01}, {7, 0.05}, {16, 0.05}, {32, 0.01}, {32, 0.05}};
  if (quick) points = {{3, 0.01}, {7, 0.05}};

  std::vector<RowJob> jobs;
  for (const Point& pt : points) {
    for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
      jobs.push_back([pt, algo, width, &ctx] {
        const double throughput = throughput_for(pt.n);
        const core::SteadyConfig sc = steady_config(throughput, ctx.budget);

        core::SimConfig cfg = sim_config_ctx(algo, pt.n, ctx);
        cfg.transport.enabled = true;
        cfg.fd_params.detection_time = 30.0;
        arm_causal(cfg, sc);
        fault::FaultEvent e;
        e.kind = fault::FaultKind::kLoss;
        e.rate = pt.loss;
        e.at = 0.0;
        e.until = kLossHorizon;
        cfg.faults.add(e);

        const core::PointResult r = core::run_steady(cfg, sc);
        const core::RunStats& st = r.stats;
        std::vector<std::string> row{core::algorithm_name(algo), std::to_string(pt.n),
                                     util::Table::cell(pt.loss * 100.0),
                                     util::Table::cell(throughput, 0)};
        if (st.spans_dropped != 0 || st.edges_dropped != 0)
          throw std::runtime_error(row[0] + " n=" + row[1] + " loss " + row[2] + "%: dropped " +
                                   std::to_string(st.spans_dropped) + " spans and " +
                                   std::to_string(st.edges_dropped) + " causal edges");
        const obs::CauseTotals& causes = st.causes;
        if (!r.stable || causes.count == 0) {
          row.emplace_back("unstable");
          row.resize(width, "-");
          return row;
        }
        if (!r.budget_met) {
          const std::string warning =
              "critical_path: " + row[0] + " n=" + row[1] + " loss " + row[2] +
              "%: the time horizon cut the measurement short of " +
              std::to_string(sc.samples) + " samples per run; the row rests on " +
              std::to_string(r.total_samples) + " messages\n";
          std::fputs(warning.c_str(), stderr);
        }
        const auto per = [&](double sum) {
          return util::Table::cell(sum / static_cast<double>(causes.count));
        };
        double total = 0.0;
        for (double s : causes.sums) total += s;
        row.push_back(per(total));
        for (double s : causes.sums) row.push_back(per(s));
        row.push_back(st.retransmits == 0
                          ? "-"
                          : util::Table::cell(static_cast<double>(st.retx_origin0) /
                                                  static_cast<double>(st.retransmits),
                                              3));
        row.push_back(util::Table::cell(
            static_cast<double>(st.retransmits) / (st.sim_ms / 1000.0), 2));
        if (ctx.profile) {
          row.push_back(util::Table::cell(st.e2e_quantile(0.5)));
          row.push_back(util::Table::cell(st.e2e_quantile(0.99)));
        }
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
                             "plus sequencer retx concentration, focused on n = 32 @ 5%",
                             "beyond paper", run_critical_path, {}}};

}  // namespace
}  // namespace fdgm::bench
