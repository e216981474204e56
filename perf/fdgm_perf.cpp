// fdgm_perf — one pass of one benchmark workload, both ordering stacks.
//
//   fdgm_perf --workload W --seed S --pass timed|trace-host|trace-sim
//             [--replicas K] [--smoke]
//   fdgm_perf --list        one "name replicas" line per workload
//
// Runs K replicas (seeds S, S+1, ...) of workload W on the FD and the GM
// stack through the public core::SimRun API, checks every drained replica
// with the oracle and prints one JSON record on stdout.  perf/run.py runs
// one process per (pass, workload) and turns the records into metrics.
//
//   timed       nothing armed: host wall and CPU time of setup, run and
//               drain, plus the simulated results (latencies, logs).
//   trace-host  a TimedLayer in front of every protocol layer reachable
//               through public accessors: host self time per layer.
//   trace-sim   the observer armed with causal recording: per-message
//               cause buckets and the protocol counters.
// Every pass must reproduce the same delivery-log digests and executed
// event counts: instrumentation never moves a simulated number.
//
// Exit codes: 0 correct, 1 an oracle or instrumentation check failed,
// 2 bad arguments or an exception.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "abcast/fd_abcast.hpp"
#include "abcast/gm_abcast.hpp"
#include "core/experiment.hpp"
#include "fault/fault_schedule.hpp"
#include "oracle.hpp"

namespace fdgm::perf {
namespace {

using Clock = std::chrono::steady_clock;

/// Latencies pool messages broadcast at or after this instant (ms).
constexpr double kWarmupMs = 2000.0;
/// Simulated drain after the workload stops (ms): at least kDrainMs, then
/// on in kDrainStepMs steps until every alive process holds the whole
/// union of the logs, at most kMaxDrainMs.  Agreement is an eventual
/// property: under loss a GM follower can trail the sequencer by hundreds
/// of messages, and once the load stops the transport repairs them one
/// timer probe at a time (lossy_n32 needed up to 303 s over 256 seeds;
/// README.md, `drain_ms`).
constexpr double kDrainMs = 20000.0;
constexpr double kDrainStepMs = 1000.0;
constexpr double kMaxDrainMs = 900000.0;
/// Horizon of the untimed warm-up replica and of --smoke replicas (ms).
constexpr double kShortHorizonMs = 5000.0;

/// One benchmark workload; README.md gives the reason for each.
struct Workload {
  const char* name;
  int n;
  double throughput;  // T, msgs/s across the group, open-loop Poisson
  double detection_ms;
  double loss;  // per-frame drop probability from t = 0 until the load stops
  bool transport;
  bool wrong_suspicions;  // TMR = n(n-1) * 5 s, TM = 50 ms
  const char* faults;
  int replicas;
  double horizon_ms;
};

constexpr Workload kWorkloads[] = {
    {"paper_n7", 7, 300.0, 0.0, 0.0, false, false, "", 8, 60000.0},
    {"lossy_n32", 32, 50.0, 30.0, 0.05, true, false, "", 6, 120000.0},
    {"scale_n128", 128, 100.0, 30.0, 0.0, false, true, "", 4, 30000.0},
    {"crash_n7", 7, 300.0, 100.0, 0.0, false, false,
     "crash p0 @10000; recover p0 @14000; crash p1 @25000; recover p1 @29000; "
     "storm p2 @40000 for 200",
     8, 60000.0},
};

enum class Pass { kTimed, kTraceHost, kTraceSim };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1000;
  Pass pass = Pass::kTimed;
  int replicas = 0;
  double horizon_ms = 0.0;
  bool smoke = false;
};

// ------------------------------------------------------------ host clocks

struct Sample {
  Clock::time_point wall;
  double cpu_s;
};

Sample sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {Clock::now(), secs(ru.ru_utime) + secs(ru.ru_stime)};
}

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set of this process image, from VmHWM.  getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so a child of a
/// large parent would report the parent's peak.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr)
      found = std::sscanf(line, "VmHWM: %lu kB", &kb) == 1;
    std::fclose(f);
    if (found) return static_cast<double>(kb) / 1024.0;
  }
  throw std::runtime_error("cannot read VmHWM from /proc/self/status");
}

// ------------------------------------------------- trace-host layer wrapper

/// Host time of one layer kind, summed over every process.
struct LayerTime {
  std::int64_t incl_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

struct LayerTimes {
  LayerTime abcast, rbcast, consensus;
};

/// Nesting-aware stopwatch shared by every wrapper of one run: a wrapped
/// dispatch that runs inside another is subtracted from the outer one's
/// self time.
class LayerClock {
 public:
  void enter() { stack_.push_back({Clock::now(), 0}); }
  void leave(LayerTime& t) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t incl =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - f.start).count();
    t.incl_ns += incl;
    t.self_ns += incl - f.child_ns;
    ++t.calls;
    if (!stack_.empty()) stack_.back().child_ns += incl;
  }

 private:
  struct Frame {
    Clock::time_point start;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
};

/// Registered on a Node in place of a protocol layer; forwards every
/// message and charges the dispatch to its layer kind.
class TimedLayer final : public net::Layer {
 public:
  TimedLayer(net::Layer& inner, LayerClock& clock, LayerTime& acc)
      : inner_(&inner), clock_(&clock), acc_(&acc) {}
  void on_message(const net::Message& m) override {
    clock_->enter();
    inner_->on_message(m);
    clock_->leave(*acc_);
  }

 private:
  net::Layer* inner_;
  LayerClock* clock_;
  LayerTime* acc_;
};

/// FD: the process (kAtomicBroadcast, crash-recovery sync), rb() and
/// consensus_dbg().  GM: the process (its whole data plane) and
/// consensus_dbg(); its rbcast and membership layers have no non-const
/// accessor and stay in host.other_ns.
void wrap_layers(core::SimRun& run, LayerClock& clock, LayerTimes& acc,
                 std::vector<std::unique_ptr<TimedLayer>>& out) {
  for (int p = 0; p < run.config().n; ++p) {
    net::Node& node = run.system().node(p);
    const auto add = [&](net::ProtocolId proto, net::Layer& inner, LayerTime& t) {
      out.push_back(std::make_unique<TimedLayer>(inner, clock, t));
      node.register_handler(proto, out.back().get());
    };
    if (run.config().algorithm == core::Algorithm::kFd) {
      auto& proc = static_cast<abcast::FdAbcastProcess&>(run.proc(p));
      add(net::ProtocolId::kAtomicBroadcast, proc, acc.abcast);
      add(net::ProtocolId::kReliableBroadcast, proc.rb(), acc.rbcast);
      add(net::ProtocolId::kConsensus, proc.consensus_dbg(), acc.consensus);
    } else {
      auto& proc = static_cast<abcast::GmAbcastProcess&>(run.proc(p));
      add(net::ProtocolId::kAtomicBroadcast, proc, acc.abcast);
      add(net::ProtocolId::kConsensus, proc.consensus_dbg(), acc.consensus);
    }
  }
}

// ----------------------------------------------------------- one replica

/// Cause buckets reported by the benchmark (credit and batch waits are
/// structurally 0: batching is off in every workload).
constexpr obs::Cause kCauses[] = {
    obs::Cause::kCpuQueue,  obs::Cause::kWire,        obs::Cause::kLossNack,
    obs::Cause::kLossTimer, obs::Cause::kLossBackoff, obs::Cause::kReorderHold,
    obs::Cause::kSeqQueue,  obs::Cause::kConsensusRound};

struct Replica {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  double setup_s = 0.0;
  double run_s = 0.0;  // run + drain
  double cpu_s = 0.0;  // setup + run + drain
  std::uint64_t generated = 0;
  std::uint64_t shed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t undelivered = 0;
  double sim_ms = 0.0;
  double drain_ms = 0.0;  // load stop to agreement of every alive process
  std::uint64_t frames = 0;
  double wire_busy_ms = 0.0;
  transport::Stats transport;
  std::uint64_t instances = 0;
  std::vector<double> lat;         // messages broadcast after kWarmupMs
  std::vector<double> deliveries;  // sorted global-first A-delivery instants
  LayerTimes layers;
  // trace-sim
  std::array<double, obs::kCauseCount> cause_ms{};
  std::uint64_t walked = 0;
  double walk_s = 0.0;
  std::uint64_t rounds = 0, round_fails = 0, suspicions = 0, view_changes = 0;
  std::vector<std::string> violations;
};

core::SimConfig make_config(const Workload& w, core::Algorithm algo, std::uint64_t seed,
                            Pass pass, double horizon_ms) {
  core::SimConfig cfg;
  cfg.algorithm = algo;
  cfg.n = w.n;
  cfg.lambda = 1.0;
  cfg.seed = seed;
  cfg.fd_params.detection_time = w.detection_ms;
  if (w.wrong_suspicions) {
    cfg.fd_params.wrong_suspicions = true;
    cfg.fd_params.mistake_recurrence = static_cast<double>(w.n) * (w.n - 1) * 5000.0;
    cfg.fd_params.mistake_duration = 50.0;
  }
  cfg.transport.enabled = w.transport;
  cfg.faults = fault::FaultSchedule::parse(w.faults);
  if (w.loss > 0.0) {
    // The drain is loss-free: with loss still on, the transport's tail
    // recovery can stretch without bound (README.md, `drain_ms`).
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kLoss;
    e.rate = w.loss;
    e.at = 0.0;
    e.until = horizon_ms;
    cfg.faults.add(e);
  }
  if (pass == Pass::kTraceSim) {
    // Flight-recorder slabs sized so nothing drops: spans per origin from
    // the Poisson arrival count with a wide margin, edges per message
    // from the fan-out: every remote delivery records a few markers, and
    // the measured peak (lossy_n32, retransmissions included) is about
    // 16 per destination.
    const double per_origin = w.throughput / w.n * horizon_ms / 1000.0;
    cfg.obs.enabled = true;
    cfg.obs.causal = true;
    cfg.obs.span_capacity = static_cast<std::size_t>(per_origin * 1.5) + 256;
    cfg.obs.edge_capacity = cfg.obs.span_capacity * static_cast<std::size_t>(24 * w.n + 64);
    cfg.obs.snapshot_capacity =
        static_cast<std::size_t>((horizon_ms + kMaxDrainMs) / cfg.obs.metrics_window_ms) + 64;
  }
  return cfg;
}

/// Onsets of the faults whose delivery gap outage_ms measures: crashes and
/// suspicion storms that strike before the load stops.
std::vector<double> outage_probes(const Workload& w, double horizon_ms) {
  std::vector<double> t;
  const fault::FaultSchedule schedule = fault::FaultSchedule::parse(w.faults);
  for (const fault::FaultEvent& e : schedule.events())
    if ((e.kind == fault::FaultKind::kCrash || e.kind == fault::FaultKind::kSuspicionStorm) &&
        e.at < horizon_ms)
      t.push_back(e.at);
  return t;
}

Replica run_replica(const Workload& w, core::Algorithm algo, std::uint64_t seed, Pass pass,
                    double horizon_ms) {
  Replica out;
  out.seed = seed;
  const core::SimConfig cfg = make_config(w, algo, seed, pass, horizon_ms);

  // Declared before the run: the wrappers and the crash flags outlive it.
  LayerClock clock;
  std::vector<std::unique_ptr<TimedLayer>> wrappers;
  std::vector<bool> ever_crashed(static_cast<std::size_t>(w.n), false);

  const Sample s0 = sample();
  core::SimRun run(cfg, core::WorkloadConfig{.throughput = w.throughput});
  run.start();
  const Sample s1 = sample();

  run.system().add_crash_listener([&ever_crashed](net::ProcessId p, sim::Time) {
    ever_crashed[static_cast<std::size_t>(p)] = true;
  });
  if (pass == Pass::kTraceHost) wrap_layers(run, clock, out.layers, wrappers);

  const Sample s2 = sample();
  run.run_until(horizon_ms);
  run.workload().stop();
  double agreed_at = -1.0;
  for (double t = horizon_ms + kDrainStepMs;; t += kDrainStepMs) {
    run.run_until(t);
    if (agreed_at < 0.0 && alive_logs_agree(run)) agreed_at = t;
    if ((agreed_at >= 0.0 && t >= horizon_ms + kDrainMs) || t >= horizon_ms + kMaxDrainMs) break;
  }
  const Sample s3 = sample();
  out.drain_ms = (agreed_at >= 0.0 ? agreed_at : run.system().now()) - horizon_ms;

  out.setup_s = seconds(s0.wall, s1.wall);
  out.run_s = seconds(s2.wall, s3.wall);
  out.cpu_s = (s1.cpu_s - s0.cpu_s) + (s3.cpu_s - s2.cpu_s);

  net::System& sys = run.system();
  out.events = sys.scheduler().executed();
  out.generated = run.workload().generated();
  out.shed = run.workload().shed();
  out.delivered = run.recorder().total_delivered();
  out.sim_ms = sys.now();
  out.frames = sys.network().messages_delivered();
  out.wire_busy_ms = sys.network().network_busy_time();
  if (const transport::Transport* t = sys.transport()) out.transport = t->stats();
  if (algo == core::Algorithm::kFd)
    for (int p = 0; p < w.n; ++p)
      out.instances += static_cast<abcast::FdAbcastProcess&>(run.proc(p)).decided_instances();

  Verdict v = check_run(run, ever_crashed);
  out.violations = std::move(v.violations);
  out.undelivered = v.undelivered;
  out.digest = v.digest;
  const bool probes = !outage_probes(w, horizon_ms).empty();
  for (const abcast::AppMessagePtr m : *v.delivered) {
    const double lat = run.recorder().latency_of(m->id);
    if (pass == Pass::kTimed && m->sent_at >= kWarmupMs) out.lat.push_back(lat);
    if (pass == Pass::kTimed && probes) out.deliveries.push_back(m->sent_at + lat);
  }
  std::sort(out.deliveries.begin(), out.deliveries.end());

  if (obs::Observer* o = run.observer()) {
    if (o->spans_dropped() + o->edges_dropped() + o->snapshots_dropped() > 0)
      out.violations.push_back("instrumentation: dropped " + std::to_string(o->spans_dropped()) +
                               " spans, " + std::to_string(o->edges_dropped()) + " edges, " +
                               std::to_string(o->snapshots_dropped()) + " snapshots");
    out.rounds = o->total(obs::Counter::kConsensusRounds);
    out.round_fails = o->total(obs::Counter::kConsensusRoundFails);
    out.suspicions = o->total(obs::Counter::kSuspicions);
    out.view_changes = o->total(obs::Counter::kViewChanges);

    const Clock::time_point w0 = Clock::now();
    const std::vector<obs::MsgCausal> paths = o->critical_paths(kWarmupMs, horizon_ms);
    out.walk_s = seconds(w0, Clock::now());
    std::uint64_t bad = 0;
    for (const obs::MsgCausal& c : paths) {
      double sum = 0.0;
      for (std::size_t k = 0; k < obs::kCauseCount; ++k) {
        sum += c.ms[k];
        out.cause_ms[k] += c.ms[k];
      }
      const double lat = run.recorder().latency_of(abcast::MsgId{c.origin, c.seq});
      if (std::abs(sum - lat) > 1e-6) ++bad;
    }
    out.walked = paths.size();
    if (bad > 0)
      out.violations.push_back("causal: " + std::to_string(bad) +
                               " messages whose cause buckets do not sum to their latency");
    const std::size_t sampled = static_cast<std::size_t>(std::count_if(
        v.delivered->begin(), v.delivered->end(),
        [](abcast::AppMessagePtr m) { return m->sent_at >= kWarmupMs; }));
    if (paths.size() != sampled)
      out.violations.push_back("causal: walked " + std::to_string(paths.size()) +
                               " messages, " + std::to_string(sampled) + " were delivered");
  }
  return out;
}

/// Untimed: fills caches and lets lazy allocations happen before the
/// first timed replica.
void warm_up(const Workload& w, std::uint64_t seed) {
  for (core::Algorithm algo : {core::Algorithm::kFd, core::Algorithm::kGm}) {
    core::SimRun run(make_config(w, algo, seed, Pass::kTimed, kShortHorizonMs),
                     core::WorkloadConfig{.throughput = w.throughput});
    run.start();
    run.run_until(kShortHorizonMs);
  }
}

// ------------------------------------------------------------------ JSON

class Json {
 public:
  Json& key(std::string_view k) {
    sep();
    s_ += '"';
    s_ += k;
    s_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    sep();
    if (!std::isfinite(v)) throw std::runtime_error("non-finite value in the record");
    char buf[32];
    s_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    s_ += std::to_string(v);
    return *this;
  }
  Json& str(std::string_view v) {
    sep();
    s_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      s_ += c;
    }
    s_ += '"';
    return *this;
  }
  Json& open(char c) {
    sep();
    s_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    s_ += c;
    fresh_ = false;
    return *this;
  }
  Json& nums(const std::vector<double>& v) {
    open('[');
    for (double x : v) num(x);
    return close(']');
  }
  [[nodiscard]] const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_ && !s_.empty()) s_ += ',';
    fresh_ = false;
  }
  std::string s_;
  bool fresh_ = true;
};

void emit_layer(Json& j, std::string_view name, const LayerTime& t) {
  j.key(name).open('{');
  j.key("self_ns").num(static_cast<std::uint64_t>(t.self_ns));
  j.key("incl_ns").num(static_cast<std::uint64_t>(t.incl_ns));
  j.key("calls").num(t.calls);
  j.close('}');
}

void emit_replica(Json& j, const Replica& r, Pass pass) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(r.digest));
  j.open('{');
  j.key("seed").num(r.seed);
  j.key("digest").str(digest);
  j.key("events").num(r.events);
  j.key("setup_s").num(r.setup_s);
  j.key("run_s").num(r.run_s);
  j.key("cpu_s").num(r.cpu_s);
  j.key("generated").num(r.generated);
  j.key("shed").num(r.shed);
  j.key("delivered").num(r.delivered);
  j.key("undelivered").num(r.undelivered);
  j.key("sim_ms").num(r.sim_ms);
  j.key("drain_ms").num(r.drain_ms);
  j.key("frames").num(r.frames);
  j.key("wire_busy_ms").num(r.wire_busy_ms);
  j.key("data_frames").num(r.transport.data_frames);
  j.key("retransmits").num(r.transport.retransmits);
  j.key("nacks").num(r.transport.nacks);
  j.key("instances").num(r.instances);
  if (pass == Pass::kTimed) {
    j.key("lat").nums(r.lat);
    j.key("deliveries").nums(r.deliveries);
  }
  if (pass == Pass::kTraceHost) {
    j.key("layers").open('{');
    emit_layer(j, "abcast", r.layers.abcast);
    emit_layer(j, "rbcast", r.layers.rbcast);
    emit_layer(j, "consensus", r.layers.consensus);
    j.close('}');
  }
  if (pass == Pass::kTraceSim) {
    j.key("causes").open('{');
    for (obs::Cause c : kCauses)
      j.key(obs::cause_name(c)).num(r.cause_ms[static_cast<std::size_t>(c)]);
    j.close('}');
    j.key("walked").num(r.walked);
    j.key("walk_s").num(r.walk_s);
    j.key("rounds").num(r.rounds);
    j.key("round_fails").num(r.round_fails);
    j.key("suspicions").num(r.suspicions);
    j.key("view_changes").num(r.view_changes);
  }
  j.key("violations").open('[');
  for (const std::string& v : r.violations) j.str(v);
  j.close(']');
  j.close('}');
}

const char* pass_name(Pass p) {
  switch (p) {
    case Pass::kTimed: return "timed";
    case Pass::kTraceHost: return "trace-host";
    case Pass::kTraceSim: return "trace-sim";
  }
  return "?";
}

// ------------------------------------------------------------------- CLI

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fdgm_perf: %s\nusage: fdgm_perf --workload W --seed S "
               "--pass timed|trace-host|trace-sim [--replicas K] [--smoke] | --list\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(std::string_view flag, std::string_view v, std::uint64_t lo,
                         std::uint64_t hi) {
  std::uint64_t x = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc{} || ptr != v.data() + v.size() || x < lo || x > hi)
    usage(std::string(flag) + " expects an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + std::string(v) + "'");
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_pass = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--list") {
      for (const Workload& w : kWorkloads) std::printf("%s %d\n", w.name, w.replicas);
      std::exit(0);
    }
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after " + std::string(a));
    const std::string_view v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads)
        if (v == w.name) o.workload = &w;
      if (o.workload == nullptr) usage("unknown workload '" + std::string(v) + "'");
    } else if (a == "--seed") {
      o.seed = parse_uint(a, v, 0, (std::uint64_t{1} << 48) - 1);
    } else if (a == "--pass") {
      have_pass = true;
      if (v == "timed")
        o.pass = Pass::kTimed;
      else if (v == "trace-host")
        o.pass = Pass::kTraceHost;
      else if (v == "trace-sim")
        o.pass = Pass::kTraceSim;
      else
        usage("unknown pass '" + std::string(v) + "'");
    } else if (a == "--replicas") {
      o.replicas = static_cast<int>(parse_uint(a, v, 1, 64));
    } else {
      usage("unknown flag '" + std::string(a) + "'");
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  if (!have_pass) usage("--pass is required");
  if (o.replicas == 0) o.replicas = o.smoke ? 1 : o.workload->replicas;
  o.horizon_ms = o.smoke ? kShortHorizonMs : o.workload->horizon_ms;
  return o;
}

int run_main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Workload& w = *opt.workload;
  warm_up(w, opt.seed - 1);  // unsigned: seed 0 warms up with 2^64 - 1

  std::vector<Replica> fd, gm;
  for (int r = 0; r < opt.replicas; ++r) {
    const std::uint64_t seed = opt.seed + static_cast<std::uint64_t>(r);
    fd.push_back(run_replica(w, core::Algorithm::kFd, seed, opt.pass, opt.horizon_ms));
    gm.push_back(run_replica(w, core::Algorithm::kGm, seed, opt.pass, opt.horizon_ms));
  }
  Json j;
  j.open('{');
  j.key("workload").str(w.name);
  j.key("pass").str(pass_name(opt.pass));
  j.key("seed").num(opt.seed);
  j.key("replicas").num(static_cast<std::uint64_t>(opt.replicas));
  j.key("horizon_ms").num(opt.horizon_ms);
  j.key("warmup_ms").num(kWarmupMs);
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.key("outage_probes_ms").nums(outage_probes(w, opt.horizon_ms));
  j.key("stacks").open('{');
  int violations = 0;
  for (const auto& [name, reps] : {std::pair{"fd", &fd}, std::pair{"gm", &gm}}) {
    j.key(name).open('[');
    for (const Replica& r : *reps) {
      emit_replica(j, r, opt.pass);
      for (const std::string& v : r.violations) {
        std::fprintf(stderr, "fdgm_perf: %s seed %llu %s: %s\n", w.name,
                     static_cast<unsigned long long>(r.seed), name, v.c_str());
        ++violations;
      }
    }
    j.close(']');
  }
  j.close('}');
  j.close('}');
  std::fwrite(j.text().data(), 1, j.text().size(), stdout);
  std::fputc('\n', stdout);
  return violations > 0 ? 1 : 0;
}

}  // namespace
}  // namespace fdgm::perf

int main(int argc, char** argv) {
  try {
    return fdgm::perf::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdgm_perf: %s\n", e.what());
    return 2;
  }
}
