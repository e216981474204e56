// Phase-latency decomposition under loss (src/obs/): where does the time
// of a lossy delivery actually go?
//
// Arms the observability layer and splits each stack's end-to-end delivery
// latency into the three lifecycle phases the observer records per
// message:
//
//   submit [ms]   submission wait — a_broadcast to entering the ordering
//                 machinery (zero unbatched, queueing delay batched)
//   order [ms]    ordering — FD: until the first consensus decision
//                 covering the message; GM: until the sequencer assigns
//                 its sequence number
//   deliver [ms]  ordered to the first A-delivery anywhere — under loss
//                 this is transport-recovery time (the decision / SEQNUM /
//                 content frames that must survive the lossy wire)
//
// plus the sequencer-concentration metric (share of retransmissions
// originating at process 0, the GM sequencer).  The sweep focuses on the
// ROADMAP hotspot question — n = 32 @ 5% loss, where GM's 2.1 s dwarfs
// FD's 0.53 s — with smaller points for scale context.  Same load and
// fault setup as lossy_throughput, so the totals line up with its rows.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

constexpr double kLossHorizon = 1.0e7;

double throughput_for(int n) { return n >= 32 ? 50.0 : 100.0; }

util::Table run_decomposition(const ScenarioContext& ctx) {
  std::vector<std::string> headers{"algo", "n", "loss [%]", "T [1/s]", "total [ms]",
                                   "submit [ms]", "order [ms]", "deliver [ms]",
                                   "seq-retx share", "retx/s"};
  // --profile: end-to-end latency quantiles from the armed observer's
  // histogram (machine-independent, but omitted from the default CSV
  // layout so the committed results stay byte-stable).
  if (ctx.profile) {
    headers.emplace_back("p50 [ms]");
    headers.emplace_back("p99 [ms]");
  }
  util::Table table(headers);

  const bool quick = ctx.param_flag("quick");

  struct Point {
    int n;
    double loss;
  };
  std::vector<Point> points{{7, 0.01}, {16, 0.05}, {32, 0.01}, {32, 0.05}};
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
        const core::RunStats& st = r.stats;
        const obs::PhaseTotals& ph = st.phases;
        if (!r.stable || ph.count == 0) {
          row.insert(row.end(), {"unstable", "-", "-", "-", "-", "-"});
          if (ctx.profile) row.insert(row.end(), {"-", "-"});
          return row;
        }
        const auto per = [&](double sum) {
          return util::Table::cell(sum / static_cast<double>(ph.count));
        };
        // The three phase means add up to the end-to-end mean over the
        // same message population (global-first deliveries), which can
        // sit slightly below the per-process latency column of
        // lossy_throughput — by construction, min <= mean over processes.
        row.push_back(per(ph.submit_wait_ms + ph.ordering_ms + ph.delivery_ms));
        row.push_back(per(ph.submit_wait_ms));
        row.push_back(per(ph.ordering_ms));
        row.push_back(per(ph.delivery_ms));
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

const ScenarioRegistrar reg{{"lossy_decomposition",
                             "Phase-latency decomposition under loss (armed src/obs/): "
                             "submission-wait / ordering / transport-recovery splits plus "
                             "sequencer retx concentration, focused on n = 32 @ 5%",
                             "beyond paper", run_decomposition, {}}};

}  // namespace
}  // namespace fdgm::bench
