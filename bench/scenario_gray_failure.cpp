// Gray-failure scenario (beyond the paper's figures): a *limping* node —
// alive, correct, but serving every CPU job k times slower — is the
// canonical gray failure.  The sweep crosses the limp factor with which
// role limps: p0 (the FD algorithm's initial coordinator AND the GM
// algorithm's sequencer) versus a bystander process.  The headline
// question: does the GM stack's membership machinery *exclude* a
// limping-but-alive sequencer (paying view changes + readmission), while
// the FD stack's QoS detector merely churns suspicions and rides the
// degradation out?  The observer's suspicion / view-change counters
// decompose the answer; armed observability is passive, so the latency
// columns are unchanged by the instrumentation.
//
// The failure detector must be running its QoS mistake process for a limp
// to be *visible* as failure information at all (in the suspicion-free
// nice path both stacks are bit-identical by construction): the sweep
// arms wrong_suspicions with a realistic (TMR, TM) operating point, which
// the limp coupling in fd::QosFailureDetectorModel then degrades — pairs
// monitoring a k-limping node make mistakes k times more often, each
// lasting k times longer.
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

util::Table run_gray(const ScenarioContext& ctx) {
  util::Table table({"n", "role", "x", "FD pre [ms]", "FD pre ci95", "FD limp [ms]",
                     "FD limp ci95", "FD post [ms]", "FD post ci95", "FD susp",
                     "GM pre [ms]", "GM pre ci95", "GM limp [ms]", "GM limp ci95",
                     "GM post [ms]", "GM post ci95", "GM views"});
  const double throughput = 100.0;
  const int n = 5;
  const std::vector<int> factors = ctx.param_ints("factors", {2, 4, 8}, 2, 64);

  struct Role {
    const char* name;
    net::ProcessId who;
  };
  // p0 leads both stacks (FD initial coordinator, GM sequencer); p2 is a
  // plain group member in both.
  const std::vector<Role> roles{{"leader", 0}, {"bystander", 2}};

  std::vector<RowJob> jobs;
  for (const Role& role : roles) {
    for (int factor : factors) {
      jobs.push_back([role, factor, n, throughput, &ctx] {
        const double t0 = ctx.budget.warmup_ms;
        const double limp_at = t0 + 1000.0;
        const double limp_end = limp_at + 3000.0;
        const double t_end = limp_end + 1000.0;

        fault::FaultEvent limp;
        limp.kind = fault::FaultKind::kLimp;
        limp.process = role.who;
        limp.factor = static_cast<double>(factor);
        limp.at = limp_at;
        limp.until = limp_end;
        fault::FaultSchedule gray;
        gray.add(limp);

        core::WindowedConfig wc;
        wc.throughput = throughput;
        wc.t_end = t_end;
        wc.windows = {{t0, limp_at}, {limp_at, limp_end}, {limp_end, t_end}};
        wc.replicas = ctx.budget.replicas;

        std::vector<std::string> row{std::to_string(n), role.name,
                                     util::Table::cell(static_cast<double>(factor), 0)};
        for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
          core::SimConfig cfg = sim_config_ctx(algo, n, ctx);
          cfg.faults.merge(gray);
          // Realistic QoS operating point (the Fig. 6/7 mid-range): TD
          // 30 ms, a mistake every ~2 s per pair lasting ~50 ms.  The limp
          // multiplies both margins for pairs monitoring the slow node.
          cfg.fd_params.detection_time = 30.0;
          cfg.fd_params.wrong_suspicions = true;
          cfg.fd_params.mistake_recurrence = 2000.0;
          cfg.fd_params.mistake_duration = 50.0;
          cfg.obs.enabled = true;  // passive: only the counter columns need it
          const core::WindowedResult res = core::run_windowed(cfg, wc);
          add_window_cells(row, res);
          row.push_back(std::to_string(res.stats.counter(algo == core::Algorithm::kFd
                                                             ? obs::Counter::kSuspicions
                                                             : obs::Counter::kViewChanges)));
        }
        return row;
      });
    }
  }
  fill_rows(table, ctx, jobs);
  return table;
}

const ScenarioRegistrar reg{
    {"gray_failure",
     "Gray failures: limping leader vs bystander — does GM exclude a "
     "slow-but-alive sequencer while FD rides it out?",
     "beyond paper",
     run_gray,
     {{"factors", "comma-separated limp factors to sweep (default 2,4,8)"}}}};

}  // namespace
}  // namespace fdgm::bench
