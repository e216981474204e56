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

#include <fcntl.h>
#include <spawn.h>
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

/// Peak resident set of this process in MB, or -1 without /proc.
double own_peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return -1.0;
}

// --profile reports the peak RSS of the bench process itself.  A child of
// a large process must not inherit its parent's peak (Linux carries
// getrusage's ru_maxrss across execve).  The bench is spawned directly,
// as a script harness would: a shell in between forks a small process of
// its own first, which hides the inherited peak.
TEST(BenchCli, ProfilePeakRssIsTheBenchsOwn) {
  if (!bench_available()) GTEST_SKIP() << "fdgm_bench not built";
  std::vector<char> ballast(std::size_t{320} << 20);
  volatile char* pages = ballast.data();  // volatile: the stores stay
  for (std::size_t i = 0; i < ballast.size(); i += 4096) pages[i] = 1;
  const double own = own_peak_rss_mb();
  if (own < 0) GTEST_SKIP() << "no /proc/self/status";
  ASSERT_GT(own, 256.0);

  const auto out = std::filesystem::temp_directory_path() /
                   ("cli_rss_" + std::to_string(static_cast<long>(::getpid())) + ".csv");
  std::vector<std::string> args{bench_path(), "ablation_nonuniform_gm", "--set", "quick=1",
                                "--set", "replicas=1", "--profile", "--format", "csv"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, bench_path(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ASSERT_EQ(spawned, 0);
  int raw = 0;
  ASSERT_EQ(::waitpid(pid, &raw, 0), pid);
  ASSERT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 0);
  std::istringstream csv(slurp(out));
  std::filesystem::remove(out);
  std::string header;
  std::string row;
  std::getline(csv, header);
  std::getline(csv, row);
  ASSERT_NE(header.rfind("peak RSS [MB]"), std::string::npos) << header;
  const double bench_rss = std::stod(row.substr(row.rfind(',') + 1));
  EXPECT_GT(bench_rss, 0.0);
  EXPECT_LT(bench_rss, own / 4) << "bench reported " << bench_rss << " MB; this process peaked at "
                                << own << " MB";
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
