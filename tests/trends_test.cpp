// The paper's qualitative trends, asserted on the committed results
// (results/*.csv, regenerated by `fdgm_bench --all --format csv --out
// results`).  Each figure's curves are compared the way the paper reads
// them:
//  * Fig. 4 (normal-steady): the FD and GM algorithms have the same
//    failure-free message pattern, so their cells are equal on every row;
//  * Fig. 5 (crash-steady): a crashed process no longer loads the wire or
//    the CPUs, so latency does not rise with the crash count at each
//    (n, T), for either stack;
//  * Fig. 7 (suspicion-steady, varying TM): once wrong suspicions last
//    TM >= 100 ms, the FD algorithm is faster than the GM one (or GM no
//    longer converges) in every panel.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

/// A committed results CSV: header and rows of cells (no quoting: the
/// result files have none).
struct Csv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::size_t col(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i)
      if (header[i] == name) return i;
    ADD_FAILURE() << "no column '" << name << "'";
    return 0;
  }
};

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  for (std::string cell; std::getline(ss, cell, ',');) cells.push_back(cell);
  return cells;
}

Csv read_results(const std::string& name) {
  const std::string path = std::string(FDGM_SOURCE_DIR) + "/results/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  Csv csv;
  std::string line;
  if (std::getline(in, line)) csv.header = split(line);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    csv.rows.push_back(split(line));
    EXPECT_EQ(csv.rows.back().size(), csv.header.size()) << name << ": " << line;
  }
  EXPECT_FALSE(csv.rows.empty()) << name;
  return csv;
}

TEST(Trends, Fig4FdAndGmCellsAreEqual) {
  const Csv csv = read_results("fig4.csv");
  const std::size_t fd = csv.col("FD [ms]");
  const std::size_t fd_ci = csv.col("FD ci95");
  const std::size_t gm = csv.col("GM [ms]");
  const std::size_t gm_ci = csv.col("GM ci95");
  for (const auto& row : csv.rows) {
    EXPECT_EQ(row[fd], row[gm]) << "n=" << row[0] << " T=" << row[1];
    EXPECT_EQ(row[fd_ci], row[gm_ci]) << "n=" << row[0] << " T=" << row[1];
  }
}

TEST(Trends, Fig5LatencyDoesNotRiseWithCrashes) {
  const Csv csv = read_results("fig5.csv");
  const std::size_t n = csv.col("n");
  const std::size_t crashes = csv.col("crashes");
  const std::size_t t = csv.col("T [1/s]");
  for (const char* stack : {"FD [ms]", "GM [ms]"}) {
    const std::size_t lat = csv.col(stack);
    // (n, T) -> crash count -> latency.
    std::map<std::pair<int, int>, std::map<int, double>> series;
    for (const auto& row : csv.rows)
      series[{std::stoi(row[n]), std::stoi(row[t])}][std::stoi(row[crashes])] =
          std::stod(row[lat]);
    std::size_t compared = 0;
    for (const auto& [point, by_crashes] : series) {
      double prev = 0.0;
      bool first = true;
      for (const auto& [c, latency] : by_crashes) {
        if (!first) {
          EXPECT_LE(latency, prev) << stack << " n=" << point.first << " T=" << point.second
                                   << " crashes=" << c;
          ++compared;
        }
        prev = latency;
        first = false;
      }
    }
    EXPECT_GT(compared, 0u) << stack;
  }
}

TEST(Trends, Fig7FdBelowGmOnceSuspicionsLast100Ms) {
  const Csv csv = read_results("fig7.csv");
  const std::size_t n = csv.col("n");
  const std::size_t t = csv.col("T [1/s]");
  const std::size_t tmr = csv.col("TMR [ms]");
  const std::size_t tm = csv.col("TM [ms]");
  const std::size_t fd = csv.col("FD [ms]");
  const std::size_t gm = csv.col("GM [ms]");
  std::map<std::tuple<std::string, std::string, std::string>, std::size_t> checked;
  for (const auto& row : csv.rows) {
    auto& panel = checked[{row[n], row[t], row[tmr]}];
    if (std::stod(row[tm]) < 100.0) continue;
    ++panel;
    if (row[gm] == "unstable") continue;
    ASSERT_NE(row[fd], "unstable") << "n=" << row[n] << " T=" << row[t] << " TM=" << row[tm];
    EXPECT_LT(std::stod(row[fd]), std::stod(row[gm]))
        << "n=" << row[n] << " T=" << row[t] << " TMR=" << row[tmr] << " TM=" << row[tm];
  }
  // Every panel has rows at TM >= 100 ms.
  for (const auto& [panel, rows] : checked)
    EXPECT_GT(rows, 0u) << "panel n=" << std::get<0>(panel) << " T=" << std::get<1>(panel);
}

}  // namespace
