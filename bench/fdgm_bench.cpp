// Unified benchmark driver: one binary for every paper figure and ablation.
//
//   fdgm_bench --list                    enumerate registered scenarios
//   fdgm_bench fig4 fig5                 run selected scenarios
//   fdgm_bench --all --jobs 8            run everything on 8 workers
//   fdgm_bench fig5 --format csv         machine-readable output
//   fdgm_bench --all --out results/      one file per scenario
//   fdgm_bench fig5 --set quick=1        smoke budget; per-scenario keys
//                                        via repeated --set (see --list)
//
// Results are bit-identical for every --jobs value (replica seeding and
// row order do not depend on the worker count).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export_sink.hpp"
#include "scenario.hpp"

namespace fdgm::bench {
namespace {

enum class Format { kTable, kCsv, kJson };

struct Options {
  std::vector<std::string> scenarios;
  std::size_t jobs = 1;
  std::uint64_t seed = 1000;
  Format format = Format::kTable;
  std::string out_dir;  // empty: stdout
  bool list = false;
  bool all = false;
  bool profile = false;
  bool transport = false;
  bool batch = false;
  obs::ExportSink::Paths exports;  // --trace/--metrics/--metrics-per-node/--critical-path
  bool faults_inline = false;  // --faults given (conflicts with --faults-file)
  bool faults_file = false;    // --faults-file given
  fault::FaultSchedule faults;
  std::map<std::string, std::string> params;  // --set key=value
};

/// Driver-level --set keys, consumed before any scenario runs.
const std::vector<ParamSpec>& driver_params() {
  static const std::vector<ParamSpec> specs{
      {"quick", "1 = smoke budget (fewer replicas/samples, trimmed sweeps)"},
      {"replicas", "independent replica runs per point (default 3, quick: 2)"},
      {"samples", "target measured messages per replica (default 400, quick: 150)"},
  };
  return specs;
}

void print_usage() {
  std::cout <<
      "Usage: fdgm_bench [options] [scenario ...]\n"
      "\n"
      "Options:\n"
      "  --list            list registered scenarios and exit\n"
      "  --all             run every registered scenario\n"
      "  --jobs N          worker threads (default 1, 0 = hardware threads)\n"
      "  --seed S          base seed (default 1000; replica r uses S+r)\n"
      "  --format F        table | csv | json (default table)\n"
      "  --out DIR         write one <scenario>.<ext> file per scenario\n"
      "  --faults SPEC     inject a fault schedule into every simulation, e.g.\n"
      "                    \"crash p0 @500; partition {0,1|2} @1000 heal @3000\"\n"
      "                    (events: crash/recover p<i> @t; partition {..|..} @t\n"
      "                    heal @t; apartition p<i>,..->p<j>,.. @t heal @t;\n"
      "                    loss <rate> @t for <dur>; delay x<f> @t for <dur>;\n"
      "                    storm p<i>,.. @t for <dur>; limp p<i> x<k> @t for\n"
      "                    <dur>; drift p<i> x<k> @t for <dur>; flap\n"
      "                    p<i>->p<j> period <ms> duty <d> @t for <dur>;\n"
      "                    corrupt <rate> [p<i>,..->p<j>,..] @t for <dur>;\n"
      "                    see README)\n"
      "  --faults-file F   like --faults, but read the schedule from file F\n"
      "                    (newlines are treated as whitespace; ';' still\n"
      "                    separates events).  Mutually exclusive with\n"
      "                    --faults.\n"
      "  --transport       arm the retransmission transport in every\n"
      "                    simulation (sequence-numbered per-pair channels\n"
      "                    that survive 'loss' faults; bit-identical to the\n"
      "                    default when no loss fault is scheduled)\n"
      "  --batch           arm submission batching + adaptive flow control\n"
      "                    in every simulation (abcast::BatchConfig defaults)\n"
      "  --trace FILE      arm observability (src/obs/) and export the first\n"
      "                    simulation's per-message lifecycle spans as Chrome\n"
      "                    trace-event JSON (open in Perfetto), identical for\n"
      "                    any --jobs.  Armed observability is passive: results\n"
      "                    are unchanged.  An unwritable FILE exits 2; dropped\n"
      "                    spans/edges/snapshots print a warning on stderr.\n"
      "  --metrics FILE    like --trace, but exports the windowed per-layer\n"
      "                    counter time-series as CSV; combinable with --trace\n"
      "  --metrics-per-node FILE\n"
      "                    like --metrics, but one row per node per window\n"
      "                    (t_ms, node, counters)\n"
      "  --critical-path FILE\n"
      "                    arm causal tracing and export the per-message\n"
      "                    critical-path decomposition as CSV: every ns of a\n"
      "                    message's latency attributed to one cause (credit\n"
      "                    wait, batch wait, CPU queue, wire, NACK / timer /\n"
      "                    backoff recovery, sequencer queue, consensus round,\n"
      "                    reorder hold), plus per-cause aggregate footers.\n"
      "                    Also enriches --trace JSON with flow events whose\n"
      "                    dominant_cause annotates each message.  A CSV export\n"
      "                    that lost records ends with a '# dropped ...' line.\n"
      "  --set key=value   scenario/driver parameter, repeatable.  Driver\n"
      "                    keys: quick=1 (smoke budget), replicas=N,\n"
      "                    samples=N; per-scenario keys are listed by --list.\n"
      "                    Unknown keys are rejected.\n"
      "  --profile         append extra deterministic diagnostic columns\n"
      "                    where a scenario has them (lossy_throughput:\n"
      "                    retx/s, dups, seq-retx; critical_path:\n"
      "                    p50/p99)\n"
      "  --help            this text\n";
}

void print_list() {
  const auto& all = ScenarioRegistry::instance().all();
  std::printf("%-24s %-12s %s\n", "name", "figure", "title");
  for (const Scenario& s : all) {
    std::printf("%-24s %-12s %s\n", s.name.c_str(), s.figure.c_str(), s.title.c_str());
    for (const ParamSpec& p : s.params)
      std::printf("%24s   --set %s: %s\n", "", p.key.c_str(), p.help.c_str());
  }
  std::printf("\ndriver-level --set keys (any scenario):\n");
  for (const ParamSpec& p : driver_params())
    std::printf("  --set %s: %s\n", p.key.c_str(), p.help.c_str());
}

/// Returns false (after printing to stderr) on a malformed command line.
bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "fdgm_bench: " << flag << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      opt.list = true;
    } else if (a == "--all") {
      opt.all = true;
    } else if (a == "--profile") {
      opt.profile = true;
    } else if (a == "--transport") {
      opt.transport = true;
    } else if (a == "--batch") {
      opt.batch = true;
    } else if (a == "--set") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr || eq == v || eq[1] == '\0') {
        std::cerr << "fdgm_bench: --set expects key=value, got '" << v << "'\n";
        return false;
      }
      opt.params[std::string(v, eq)] = std::string(eq + 1);
    } else if (a == "--help" || a == "-h") {
      print_usage();
      std::exit(0);
    } else if (a == "--jobs" || a == "-j") {
      const char* v = need_value(i, a.c_str());
      std::uint64_t n = 0;
      if (!v) return false;
      if (!parse_digits(v, n)) {
        std::cerr << "fdgm_bench: --jobs needs a number, got '" << v << "'\n";
        return false;
      }
      opt.jobs = static_cast<std::size_t>(n);
    } else if (a == "--seed") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      if (!parse_digits(v, opt.seed)) {
        std::cerr << "fdgm_bench: --seed needs a number, got '" << v << "'\n";
        return false;
      }
    } else if (a == "--format") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      if (std::strcmp(v, "table") == 0)
        opt.format = Format::kTable;
      else if (std::strcmp(v, "csv") == 0)
        opt.format = Format::kCsv;
      else if (std::strcmp(v, "json") == 0)
        opt.format = Format::kJson;
      else {
        std::cerr << "fdgm_bench: unknown format '" << v << "' (table|csv|json)\n";
        return false;
      }
    } else if (a == "--out") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.out_dir = v;
    } else if (a == "--trace") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.exports.trace = v;
    } else if (a == "--metrics") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.exports.metrics = v;
    } else if (a == "--metrics-per-node") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.exports.metrics_per_node = v;
    } else if (a == "--critical-path") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.exports.critical_path = v;
    } else if (a == "--faults") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.faults_inline = true;
      try {
        opt.faults = fault::FaultSchedule::parse(v);
      } catch (const std::invalid_argument& e) {
        std::cerr << "fdgm_bench: " << e.what() << '\n';
        return false;
      }
    } else if (a == "--faults-file") {
      const char* v = need_value(i, a.c_str());
      if (!v) return false;
      opt.faults_file = true;
      std::ifstream file(v);
      if (!file) {
        std::cerr << "fdgm_bench: cannot read --faults-file '" << v << "'\n";
        return false;
      }
      std::string spec((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
      try {
        opt.faults = fault::FaultSchedule::parse(spec);
      } catch (const std::invalid_argument& e) {
        std::cerr << "fdgm_bench: " << v << ": " << e.what() << '\n';
        return false;
      }
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "fdgm_bench: unknown option '" << a << "' (see --help)\n";
      return false;
    } else {
      opt.scenarios.push_back(a);
    }
  }
  if (opt.faults_inline && opt.faults_file) {
    std::cerr << "fdgm_bench: --faults and --faults-file are mutually exclusive\n";
    return false;
  }
  return true;
}

void render(const util::Table& table, Format f, std::ostream& os) {
  switch (f) {
    case Format::kTable:
      table.print(os);
      break;
    case Format::kCsv:
      table.print_csv(os);
      break;
    case Format::kJson:
      table.print_json(os);
      break;
  }
}

const char* extension(Format f) {
  switch (f) {
    case Format::kCsv:
      return "csv";
    case Format::kJson:
      return "json";
    case Format::kTable:
      break;
  }
  return "txt";
}

int run(const Options& opt) {
  const auto& registry = ScenarioRegistry::instance();

  std::vector<const Scenario*> selected;
  if (opt.all) {
    for (const Scenario& s : registry.all()) selected.push_back(&s);
  } else {
    for (const std::string& name : opt.scenarios) {
      const Scenario* s = registry.find(name);
      if (s == nullptr) {
        std::cerr << "fdgm_bench: unknown scenario '" << name << "'; available:\n";
        for (const Scenario& known : registry.all()) std::cerr << "  " << known.name << '\n';
        return 2;
      }
      selected.push_back(s);
    }
  }
  if (selected.empty()) {
    print_usage();
    std::cout << '\n';
    print_list();
    return 2;
  }

  // Every --set key must be declared, either by the driver or by some
  // selected scenario — a typo'd key aborts instead of silently running
  // the default sweep.
  for (const auto& [key, value] : opt.params) {
    bool known = false;
    for (const ParamSpec& p : driver_params()) known |= p.key == key;
    for (const Scenario* s : selected)
      for (const ParamSpec& p : s->params) known |= p.key == key;
    if (!known) {
      std::cerr << "fdgm_bench: no selected scenario accepts --set " << key
                << "; accepted keys:\n";
      for (const ParamSpec& p : driver_params())
        std::cerr << "  " << p.key << " (driver): " << p.help << '\n';
      for (const Scenario* s : selected)
        for (const ParamSpec& p : s->params)
          std::cerr << "  " << p.key << " (" << s->name << "): " << p.help << '\n';
      return 2;
    }
  }

  ScenarioContext ctx;
  ctx.params = opt.params;
  ctx.seed = opt.seed;
  ctx.faults = opt.faults;
  ctx.transport.enabled = opt.transport;
  ctx.batching.enabled = opt.batch;
  ctx.profile = opt.profile;
  ctx.jobs = opt.jobs;
  std::unique_ptr<obs::ExportSink> sink;
  try {
    if (ctx.param_flag("quick")) shrink_for_quick(ctx.budget);
    ctx.budget.replicas = ctx.param_u64("replicas", ctx.budget.replicas, 1, 64);
    ctx.budget.samples = ctx.param_u64("samples", ctx.budget.samples, 10, 100000);
    const obs::ExportSink::Paths& e = opt.exports;
    if (!e.trace.empty() || !e.metrics.empty() || !e.metrics_per_node.empty() ||
        !e.critical_path.empty()) {
      sink = std::make_unique<obs::ExportSink>(e);  // opened before anything runs
      ctx.obs.enabled = true;
      ctx.obs.causal = !e.critical_path.empty();
      ctx.obs.per_node_metrics = !e.metrics_per_node.empty();
      ctx.obs.sink = sink.get();
    }
  } catch (const std::exception& e) {
    std::cerr << "fdgm_bench: " << e.what() << '\n';
    return 2;
  }

  for (const Scenario* s : selected) {
    util::Table table = [&]() -> util::Table {
      try {
        return s->run(ctx);
      } catch (const std::exception& e) {
        std::cerr << "fdgm_bench: scenario '" << s->name << "' failed: " << e.what() << '\n';
        std::exit(1);
      }
    }();
    if (!opt.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(opt.out_dir, ec);
      if (ec) {
        std::cerr << "fdgm_bench: cannot create --out directory '" << opt.out_dir
                  << "': " << ec.message() << '\n';
        return 2;
      }
      const std::string path = opt.out_dir + "/" + s->name + "." + extension(opt.format);
      std::ofstream file(path);
      if (!file) {
        std::cerr << "fdgm_bench: cannot write " << path << '\n';
        return 2;
      }
      render(table, opt.format, file);
      std::cout << s->name << " -> " << path << '\n';
    } else {
      if (opt.format == Format::kTable) {
        std::cout << "==============================================================\n"
                  << s->title << "\n(reproduces " << s->figure
                  << "; latency in ms, 95% CI over replicas)\n"
                  << "==============================================================\n";
      }
      render(table, opt.format, std::cout);
      std::cout << '\n';
    }
  }
  return 0;
}

}  // namespace
}  // namespace fdgm::bench

int main(int argc, char** argv) {
  fdgm::bench::Options opt;
  if (!fdgm::bench::parse_args(argc, argv, opt)) return 2;
  if (opt.list) {
    fdgm::bench::print_list();
    return 0;
  }
  return fdgm::bench::run(opt);
}
