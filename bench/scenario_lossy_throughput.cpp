// Lossy-channel throughput (beyond the paper): the paper evaluates both
// atomic broadcast stacks over quasi-reliable channels; this family arms
// the retransmission transport (src/transport/) and drives sustained
// message loss through the full stacks — every point-to-point frame is
// dropped independently with probability `loss` for the entire run,
// including the drain, and the transport's NACK + backoff-timer machinery
// recovers the gaps.  Sweeps loss in {0, 0.1%, 1%, 5%} and n in
// {3, 7, 16, 32}, steady state and with one crashed process.
//
// The loss = 0 rows double as the bit-identity check: with the transport
// armed but nothing to recover, latencies equal the loss-free figures
// exactly (the CI diffs a transport-on vs transport-off CSV).
//
// With --profile the table appends the transport's own diagnostics —
// retransmissions per simulated second and duplicate-suppression counts —
// which are deterministic, but kept out of the default layout so the
// standard CSVs stay comparable across PRs.
//
// The "-b" modes at the end arm submission batching (abcast::BatchConfig)
// on top of the transport and extend the group-size axis beyond the
// unbatched ceiling — appended after the original sweep so the previous
// CSV is a byte prefix of the new one.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

/// Covers warmup, measurement and drain of every budget (ms).
constexpr double kLossHorizon = 1.0e7;

/// Offered load per group size: the subject is the loss axis, so the
/// load is kept comfortably inside each size's no-loss capacity (at
/// n = 32 the recovery traffic of a 5% loss on top of T = 100 would
/// saturate the shared medium — a capacity statement, not a loss one).
double throughput_for(int n) { return n >= 32 ? 50.0 : 100.0; }

util::Table run_lossy(const ScenarioContext& ctx) {
  std::vector<std::string> headers{"n", "loss [%]", "mode", "T [1/s]",
                                   "FD [ms]", "FD ci95", "GM [ms]", "GM ci95"};
  if (ctx.profile) {
    // "seq-retx" is the sequencer-concentration metric: the share of all
    // retransmissions whose original sender is process 0 — the GM
    // sequencer.  A uniform spread would put it at 1/n; the GM column
    // sitting far above that quantifies the fixed-sequencer hotspot (the
    // FD column is the no-special-role baseline of the same process).
    headers.insert(headers.end(), {"FD retx/s", "FD dups", "FD seq-retx", "GM retx/s",
                                   "GM dups", "GM seq-retx"});
  }
  util::Table table(headers);

  const bool quick = ctx.param_flag("quick");
  std::vector<int> ns{3, 7, 16, 32};
  if (quick) ns = {3, 7};
  // Batched extension rows: beyond the unbatched group-size ceiling.
  std::vector<int> ns_b{32, 48};
  if (quick) ns_b = {7};

  struct Point {
    int n;
    double loss;
    const char* mode;
    bool batch;
  };
  std::vector<Point> points;
  for (int n : ns)
    for (double loss : {0.0, 0.001, 0.01, 0.05})
      for (const char* mode : {"steady", "crash"})
        points.push_back({n, loss, mode, false});
  for (int n : ns_b)
    for (double loss : {0.0, 0.01})
      for (const char* mode : {"steady-b", "crash-b"})
        points.push_back({n, loss, mode, true});

  std::vector<RowJob> jobs;
  for (const Point& pt : points) {
    jobs.push_back([pt, &ctx] {
      const bool crash = pt.mode[0] == 'c';
      const double throughput = throughput_for(pt.n);
      core::SteadyConfig sc = steady_config(throughput, ctx.budget);
      if (crash) sc.warmup_ms += 1000.0;  // absorb detection + view change

      const std::vector<net::ProcessId> crashes =
          crash ? std::vector<net::ProcessId>{pt.n - 1} : std::vector<net::ProcessId>{};

      std::vector<std::string> row{std::to_string(pt.n), util::Table::cell(pt.loss * 100.0),
                                   pt.mode, util::Table::cell(throughput, 0)};
      std::vector<std::string> diag;
      for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
        core::SimConfig cfg = sim_config_ctx(algo, pt.n, ctx);
        cfg.transport.enabled = true;  // the scenario's premise
        cfg.batching.enabled = pt.batch;
        cfg.fd_params.detection_time = 30.0;
        if (pt.loss > 0.0) {
          fault::FaultEvent e;
          e.kind = fault::FaultKind::kLoss;
          e.rate = pt.loss;
          e.at = 0.0;
          e.until = kLossHorizon;
          cfg.faults.add(e);
        }
        const core::PointResult r = core::run_steady(cfg, sc, crashes);
        add_point_cells(row, r);
        if (ctx.profile) {
          const core::RunStats& st = r.stats;
          diag.push_back(util::Table::cell(
              static_cast<double>(st.retransmits) / (st.sim_ms / 1000.0), 2));
          diag.push_back(std::to_string(st.dup_suppressed));
          diag.push_back(st.retransmits == 0
                             ? "-"
                             : util::Table::cell(static_cast<double>(st.retx_origin0) /
                                                     static_cast<double>(st.retransmits),
                                                 3));
        }
      }
      row.insert(row.end(), diag.begin(), diag.end());
      return row;
    });
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"lossy_throughput",
                             "Abcast under sustained message loss through the "
                             "retransmission transport, loss up to 5%, n up to 48 "
                             "(batched rows)",
                             "beyond paper", run_lossy, {}}};

}  // namespace
}  // namespace fdgm::bench
