// Empirical FD QoS accuracy (armed src/obs/ QoS meter): does the failure
// detector actually deliver the Chen-Toueg-Aguilera QoS it was configured
// for?
//
// The simulator *drives* the detector from the QoS parameters (TD, TMR,
// TM), so on a healthy system the measured metrics should match the
// configured targets — that is the calibration check.  The interesting
// rows are the degraded ones: packet loss must NOT move the measured QoS
// (the QoS detector is an abstraction above the wire, one of the paper's
// modelling choices made visible), while a gray *limping* node must widen
// the measured-vs-configured gap exactly as the coupling in
// fd::QosFailureDetectorModel predicts — pairs monitoring a k-limping
// node make mistakes k times more often, each lasting k times longer, and
// the limping monitor detects the crash k times later.
//
// Each replica crashes the last process mid-run and recovers it 1 s later,
// so measured T_D has real detections to average over; the observer's
// meter compares every suspect/trust edge against the ground-truth crash
// state the System reports.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

constexpr int kN = 5;

util::Table run_qos_accuracy(const ScenarioContext& ctx) {
  util::Table table({"TD [ms]", "TMR [ms]", "TM [ms]", "loss [%]", "limp x",
                     "meas TD [ms]", "meas TMR [ms]", "meas TM [ms]", "detections",
                     "mistakes", "transitions"});
  const double throughput = 100.0;
  const bool quick = ctx.param_flag("quick");

  struct Point {
    double td, tmr, tm;
    double loss;    // frame loss rate over the whole run
    double limp;    // limp factor on one bystander (1 = healthy)
  };
  // Calibration sweep x degradation: TD / TMR / TM around the golden
  // operating point, then loss (should be invariant) and limp (should
  // widen the gap).
  std::vector<Point> points{
      {30.0, 2000.0, 50.0, 0.0, 1.0},   // golden operating point
      {10.0, 2000.0, 50.0, 0.0, 1.0},   // faster detection
      {100.0, 2000.0, 50.0, 0.0, 1.0},  // slower detection
      {30.0, 500.0, 50.0, 0.0, 1.0},    // more frequent mistakes
      {30.0, 2000.0, 200.0, 0.0, 1.0},  // longer mistakes
      {30.0, 2000.0, 50.0, 5.0, 1.0},   // loss: measured QoS must not move
      {30.0, 2000.0, 50.0, 0.0, 4.0},   // gray limp: gap must widen
      {30.0, 500.0, 200.0, 5.0, 4.0},   // combined degradation
  };
  if (quick)
    points = {{30.0, 2000.0, 50.0, 0.0, 1.0},
              {30.0, 2000.0, 50.0, 5.0, 1.0},
              {30.0, 2000.0, 50.0, 0.0, 4.0}};

  std::vector<RowJob> jobs;
  for (const Point& pt : points) {
    jobs.push_back([pt, throughput, &ctx] {
      const double t0 = ctx.budget.warmup_ms;
      const double crash_at = t0 + 4000.0;
      const double recover_at = crash_at + 1000.0;
      const double t_end = recover_at + 1000.0;

      fault::FaultSchedule faults;
      fault::FaultEvent crash;
      crash.kind = fault::FaultKind::kCrash;
      crash.process = kN - 1;
      crash.at = crash_at;
      faults.add(crash);
      fault::FaultEvent recover;
      recover.kind = fault::FaultKind::kRecover;
      recover.process = kN - 1;
      recover.at = recover_at;
      faults.add(recover);
      if (pt.loss > 0.0) {
        fault::FaultEvent loss;
        loss.kind = fault::FaultKind::kLoss;
        loss.rate = pt.loss / 100.0;
        loss.at = 0.0;
        loss.until = t_end * 10.0;
        faults.add(loss);
      }
      if (pt.limp != 1.0) {
        // A bystander limps for the whole run (p2: never the coordinator
        // or sequencer, never the crashed process).
        fault::FaultEvent limp;
        limp.kind = fault::FaultKind::kLimp;
        limp.process = 2;
        limp.factor = pt.limp;
        limp.at = 0.0;
        limp.until = t_end * 10.0;
        faults.add(limp);
      }

      core::WindowedConfig wc;
      wc.throughput = throughput;
      wc.t_end = t_end;
      wc.windows = {{t0, t_end}};
      wc.replicas = ctx.budget.replicas;

      core::SimConfig cfg = sim_config_ctx(core::Algorithm::kFd, kN, ctx);
      cfg.faults.merge(faults);
      cfg.transport.enabled = pt.loss > 0.0 ? true : cfg.transport.enabled;
      cfg.fd_params.detection_time = pt.td;
      cfg.fd_params.wrong_suspicions = true;
      cfg.fd_params.mistake_recurrence = pt.tmr;
      cfg.fd_params.mistake_duration = pt.tm;
      cfg.obs.enabled = true;  // arms the QoS meter; passive otherwise

      const core::WindowedResult res = core::run_windowed(cfg, wc);
      const obs::QosMeasured& q = res.stats.qos;
      std::vector<std::string> row{
          util::Table::cell(pt.td, 0), util::Table::cell(pt.tmr, 0),
          util::Table::cell(pt.tm, 0), util::Table::cell(pt.loss, 0),
          util::Table::cell(pt.limp, 0)};
      if (!res.stable) {
        row.insert(row.end(), {"unstable", "-", "-", "-", "-", "-"});
        return row;
      }
      auto ratio = [](double sum, std::uint64_t count) {
        return count == 0 ? std::string("-")
                          : util::Table::cell(sum / static_cast<double>(count));
      };
      row.push_back(ratio(q.td_sum_ms, q.detections));
      row.push_back(ratio(q.tmr_sum_ms, q.tmr_count));
      row.push_back(ratio(q.tm_sum_ms, q.tm_count));
      row.push_back(std::to_string(q.detections));
      row.push_back(std::to_string(q.mistakes));
      row.push_back(std::to_string(q.transitions));
      return row;
    });
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{{"qos_accuracy",
                             "Empirical FD QoS meter: measured T_D / T_MR / T_M vs the "
                             "configured Chen-Toueg targets, under loss (invariant) and "
                             "gray limp (gap widens)",
                             "beyond paper", run_qos_accuracy, {}}};

}  // namespace
}  // namespace fdgm::bench
