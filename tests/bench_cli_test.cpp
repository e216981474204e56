// Bench-driver CLI behavior, exercised by shelling out to the fdgm_bench
// binary next to the test (built in the same tree; the tests skip
// gracefully when the bench target was not built).
//
// The contract under test: --trace/--metrics/--critical-path export
// replica 0 of the first point of the first selected scenario at any
// --jobs value, so the export files are byte-identical across job counts
// and no job count is ever overridden.  Export paths are opened before
// any simulation runs: an unwritable one exits 2.  Malformed command
// lines exit 2 before any simulation runs.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

const char* bench_path() { return "./fdgm_bench"; }

bool bench_available() { return std::filesystem::exists(bench_path()); }

struct CliResult {
  int status = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::filesystem::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

CliResult run_bench(const std::string& args) {
  // ctest runs each TEST as its own process, possibly concurrently; keep
  // the redirect files (and nothing else) unique per process.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const auto out = dir / ("fdgm_bench_cli_out_" + tag + ".txt");
  const auto err = dir / ("fdgm_bench_cli_err_" + tag + ".txt");
  const std::string cmd = std::string(bench_path()) + " " + args + " >" + out.string() +
                          " 2>" + err.string();
  CliResult r;
  const int raw = std::system(cmd.c_str());
  r.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  r.out = slurp(out);
  r.err = slurp(err);
  std::filesystem::remove(out);
  std::filesystem::remove(err);
  return r;
}

TEST(BenchCli, ExplicitJobsWithExportWarnsAndOverrides) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const auto dir = std::filesystem::temp_directory_path();
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const auto trace1 = dir / ("cli_trace_j1_" + tag + ".json");
  const auto trace4 = dir / ("cli_trace_j4_" + tag + ".json");
  const CliResult r1 = run_bench("critical_path --set quick=1 --jobs 1 --trace " +
                                 trace1.string());
  const CliResult r4 = run_bench("critical_path --set quick=1 --jobs 4 --trace " +
                                 trace4.string());
  EXPECT_EQ(r1.status, 0);
  EXPECT_EQ(r4.status, 0);
  // --jobs 4 is honoured silently and exports the replica --jobs 1 does.
  EXPECT_EQ(r4.err.find("force --jobs 1"), std::string::npos) << r4.err;
  EXPECT_EQ(r4.out, r1.out);
  const std::string t1 = slurp(trace1);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(slurp(trace4), t1);
  std::filesystem::remove(trace1);
  std::filesystem::remove(trace4);
}

TEST(BenchCli, DefaultJobsWithExportStaysSilent) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const auto trace = std::filesystem::temp_directory_path() / "cli_trace_silent.json";
  const CliResult r = run_bench("critical_path --set quick=1 --trace " + trace.string());
  EXPECT_EQ(r.status, 0);
  EXPECT_EQ(r.err.find("force --jobs 1"), std::string::npos) << r.err;
  EXPECT_TRUE(std::filesystem::exists(trace));
  std::filesystem::remove(trace);
}

TEST(BenchCli, ExplicitJobsOneWithExportStaysSilent) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const auto metrics = std::filesystem::temp_directory_path() / "cli_metrics.csv";
  const CliResult r = run_bench("critical_path --set quick=1 --jobs 1 --metrics " +
                                metrics.string());
  EXPECT_EQ(r.status, 0);
  EXPECT_EQ(r.err.find("force --jobs 1"), std::string::npos) << r.err;
  std::filesystem::remove(metrics);
}

TEST(BenchCli, CriticalPathExportHasCauseColumnsAndFooter) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const auto csv = std::filesystem::temp_directory_path() / "cli_critical.csv";
  const CliResult r = run_bench("critical_path --set quick=1 --critical-path " +
                                csv.string());
  EXPECT_EQ(r.status, 0);
  const std::string content = slurp(csv);
  EXPECT_EQ(content.rfind("origin,seq,submit_ms,delivered_ms,latency_ms,", 0), 0u);
  EXPECT_NE(content.find("loss_nack"), std::string::npos);
  EXPECT_NE(content.find("# cause,sum_ms,p50_ms,p99_ms"), std::string::npos);
  std::filesystem::remove(csv);
}

TEST(BenchCli, MetricsPerNodeExportHasNodeColumn) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const auto csv = std::filesystem::temp_directory_path() / "cli_per_node.csv";
  const CliResult r = run_bench("critical_path --set quick=1 --metrics-per-node " +
                                csv.string());
  EXPECT_EQ(r.status, 0);
  const std::string content = slurp(csv);
  EXPECT_EQ(content.rfind("t_ms,node,", 0), 0u);
  std::filesystem::remove(csv);
}

// Export paths are opened before anything runs: a path whose directory
// cannot be created (under /proc, or below a regular file) exits 2 with a
// message naming it, and no scenario output is produced.
TEST(BenchCli, UnwritableExportPathExits2) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const CliResult proc = run_bench("critical_path --set quick=1 --trace /proc/nope/t.json");
  EXPECT_EQ(proc.status, 2) << proc.err;
  EXPECT_NE(proc.err.find("/proc/nope"), std::string::npos) << proc.err;
  EXPECT_EQ(proc.out, "");

  const auto file = std::filesystem::temp_directory_path() /
                    ("cli_regular_" + std::to_string(static_cast<long>(::getpid())));
  std::ofstream(file) << "x";
  const std::string below = (file / "cp.csv").string();
  const CliResult nested = run_bench("critical_path --set quick=1 --critical-path " + below);
  EXPECT_EQ(nested.status, 2) << nested.err;
  EXPECT_NE(nested.err.find(below), std::string::npos) << nested.err;
  EXPECT_EQ(nested.out, "");
  std::filesystem::remove(file);
}

// --set integers are plain digit runs: strtoull alone would wrap a
// leading '-' (2^64 - 18446744073709551615 = 1 replica) and skip blanks.
// Driver keys fail before anything runs (exit 2); the elements of a
// scenario's comma list fail when the scenario reads them (exit 1).
TEST(BenchCli, SetRejectsSignedAndPaddedIntegers) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  for (const char* value : {"-18446744073709551615", "' 2'", "+2", "2x"}) {
    const CliResult r = run_bench(std::string("fig4 --set quick=1 --set replicas=") + value);
    EXPECT_EQ(r.status, 2) << value << ": " << r.err;
    EXPECT_NE(r.err.find("replicas"), std::string::npos) << r.err;
  }
  for (const char* value : {"+4", "' 4'", "2,+4"}) {
    const CliResult r =
        run_bench(std::string("gray_failure --set quick=1 --set factors=") + value);
    EXPECT_EQ(r.status, 1) << value << ": " << r.err;
    EXPECT_NE(r.err.find("factors"), std::string::npos) << r.err;
  }
}

TEST(BenchCli, SetRejectsOutOfRangeReplicas) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const CliResult r = run_bench("fig4 --set quick=1 --set replicas=0");
  EXPECT_EQ(r.status, 2) << r.err;
}

TEST(BenchCli, SetRejectsUndeclaredKey) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const CliResult r = run_bench("fig4 --set quick=1 --set bogus=1");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("bogus"), std::string::npos) << r.err;
}

// --profile adds only deterministic diagnostic columns: the tables are
// byte-identical at any job count and carry no host-time column.
TEST(BenchCli, ProfileOutputIsDeterministic) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const std::string args =
      "lossy_throughput critical_path --set quick=1 --profile --format csv --jobs ";
  const CliResult one = run_bench(args + "1");
  const CliResult four = run_bench(args + "4");
  ASSERT_EQ(one.status, 0) << one.err;
  ASSERT_EQ(four.status, 0) << four.err;
  EXPECT_EQ(one.out, four.out);
  // One table per scenario, blank-line separated; each starts with its
  // header.
  std::vector<std::string> headers;
  std::istringstream tables(one.out);
  bool at_header = true;
  for (std::string line; std::getline(tables, line);) {
    if (at_header && !line.empty()) headers.push_back(line);
    at_header = line.empty();
  }
  ASSERT_EQ(headers.size(), 2u) << one.out;
  EXPECT_NE(headers[0].find("retx/s"), std::string::npos) << headers[0];
  EXPECT_NE(headers[1].find("p99 [ms]"), std::string::npos) << headers[1];
  // Substrings of the host-time column names (wall time, event counts,
  // event rates, peak RSS).
  for (const std::string& header : headers)
    for (const char* host : {"wall", "events", "ev/s", "RSS"})
      EXPECT_EQ(header.find(host), std::string::npos) << host << " in " << header;
}

// A critical-path row whose observer dropped spans or causal edges would
// publish a truncated decomposition, so the scenario sizes its slabs from
// the sample budget.  With fixed slabs (65536 edges per origin) 3381
// samples was the smallest budget at which a row (FD, n = 32 @ 5%)
// overflowed and failed the scenario; it now prints every row.
TEST(BenchCli, CriticalPathSizesItsSlabsFromTheSampleBudget) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const CliResult r =
      run_bench("critical_path --set samples=3381 --set replicas=1 --format csv --jobs 4");
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(r.err.find("dropped"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("unstable"), std::string::npos) << r.out;
  std::size_t rows = 0;
  for (const char* algo : {"\nFD,", "\nGM,"})
    for (std::size_t at = r.out.find(algo); at != std::string::npos; at = r.out.find(algo, at + 1))
      ++rows;
  EXPECT_EQ(rows, 10u) << r.out;  // FD and GM at five points
}

// A row whose runs hit the time horizon before the sample budget is
// printed, but not silently: quick mode's 30 s horizon caps a run at about
// 2900 messages, so 8000 samples is short on every row, and the default
// quick budget (150) is met on every row.
TEST(BenchCli, CriticalPathWarnsWhenTheHorizonCutsTheSampleBudget) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  const std::string base = "critical_path --set quick=1 --format csv --jobs 4";
  const CliResult cut = run_bench(base + " --set samples=8000 --set replicas=1");
  EXPECT_EQ(cut.status, 0) << cut.err;
  std::size_t warnings = 0;
  for (std::size_t at = cut.err.find("short of 8000 samples"); at != std::string::npos;
       at = cut.err.find("short of 8000 samples", at + 1))
    ++warnings;
  EXPECT_EQ(warnings, 4u) << cut.err;  // one per row: FD and GM at two points
  const CliResult met = run_bench(base);
  EXPECT_EQ(met.status, 0) << met.err;
  EXPECT_EQ(met.err.find("short of"), std::string::npos) << met.err;
}

// The scheduler has one queue and no knobs: scripts still passing the
// old backend options must fail loudly rather than be silently ignored.
TEST(BenchCli, RemovedSchedulerOptionsAreUnknown) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  for (const char* option : {"backend wheel", "threads 2"}) {
    const CliResult r = run_bench(std::string("fig4 --set quick=1 --") + option);
    EXPECT_EQ(r.status, 2) << option;
    EXPECT_NE(r.err.find("unknown option"), std::string::npos) << option << ": " << r.err;
  }
}

}  // namespace
