// The paper's qualitative trends, asserted on the committed results
// (results/*.csv, regenerated by `fdgm_bench --all --format csv --out
// results`).  Each figure's curves are compared the way the paper reads
// them:
//  * Fig. 4 (normal-steady): the FD and GM algorithms have the same
//    failure-free message pattern, so their cells are equal on every row;
//  * Fig. 5 (crash-steady): a crashed process no longer loads the wire or
//    the CPUs, so latency does not rise with the crash count at each
//    (n, T), for either stack;
//  * Fig. 6 (suspicion-steady, varying TMR): wrong suspicions cost more
//    the more often they recur, so latency never falls as TMR falls, for
//    each (n, T) and stack; an `unstable` cell (the run did not converge)
//    sits only at the low-TMR end, and TMR = 10 ms is unstable at n = 7;
//  * Fig. 7 (suspicion-steady, varying TM): once wrong suspicions last
//    TM >= 100 ms, the FD algorithm is faster than the GM one (or GM no
//    longer converges) in every panel;
//  * λ ablation: the stacks share the failure-free pattern, so FD equals
//    GM on every row, and latency rises with the CPU cost λ at each T;
//  * non-uniform GM (§8): dropping the ack/deliver phase makes it at most
//    a third of uniform GM's latency for every T <= 400/s.
//
// The smallest edit of a committed file that breaks each check:
//  * Fig. 6: FD's n=3 T=10 cells at TMR 30 and 100 swapped (11.75,
//    9.19); FD's n=7 T=300 TMR=300 cell `unstable` (a stable cell below
//    it in TMR); a number in either n=7 T=10 TMR=10 cell;
//  * λ: GM's λ=0.5 T=300 cell 17.56; the λ cells of the λ=0.5 and λ=1.0
//    T=50 rows swapped;
//  * non-uniform GM: the n=3 T=400 cell 7.85.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <limits>
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

/// A latency cell as a number: an `unstable` run counts as infinite.
double latency(const std::string& cell) {
  return cell == "unstable" ? std::numeric_limits<double>::infinity() : std::stod(cell);
}

TEST(Trends, Fig6LatencyRisesAsTmrFallsAndOnlyTheLowEndIsUnstable) {
  const Csv csv = read_results("fig6.csv");
  const std::size_t n = csv.col("n");
  const std::size_t t = csv.col("T [1/s]");
  const std::size_t tmr = csv.col("TMR [ms]");
  for (const char* stack : {"FD [ms]", "GM [ms]"}) {
    const std::size_t lat = csv.col(stack);
    // (n, T) -> TMR -> latency, unstable cells infinite: a latency that
    // never falls as TMR falls also puts every unstable cell below the
    // stable ones in TMR.
    std::map<std::pair<int, int>, std::map<double, double>> series;
    for (const auto& row : csv.rows)
      series[{std::stoi(row[n]), std::stoi(row[t])}][std::stod(row[tmr])] = latency(row[lat]);
    EXPECT_EQ(series.size(), 4u) << stack;
    for (const auto& [point, by_tmr] : series) {
      ASSERT_GT(by_tmr.size(), 2u) << stack;
      // TMR ascending: each latency at most the one at the next lower TMR.
      double lower_tmr = std::numeric_limits<double>::infinity();
      for (const auto& [m, latency_ms] : by_tmr) {
        EXPECT_LE(latency_ms, lower_tmr) << stack << " n=" << point.first << " T=" << point.second
                                         << " TMR=" << m;
        lower_tmr = latency_ms;
      }
      if (point.first == 7) {
        EXPECT_EQ(by_tmr.at(10.0), std::numeric_limits<double>::infinity())
            << stack << " T=" << point.second;
      }
    }
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

TEST(Trends, AblationLambdaFdEqualsGmAndRisesWithLambda) {
  const Csv csv = read_results("ablation_lambda.csv");
  const std::size_t lambda = csv.col("lambda");
  const std::size_t t = csv.col("T [1/s]");
  const std::size_t fd = csv.col("FD [ms]");
  const std::size_t fd_ci = csv.col("FD ci95");
  const std::size_t gm = csv.col("GM [ms]");
  const std::size_t gm_ci = csv.col("GM ci95");
  // T -> lambda -> latency.
  std::map<int, std::map<double, double>> series;
  for (const auto& row : csv.rows) {
    EXPECT_EQ(row[fd], row[gm]) << "lambda=" << row[lambda] << " T=" << row[t];
    EXPECT_EQ(row[fd_ci], row[gm_ci]) << "lambda=" << row[lambda] << " T=" << row[t];
    series[std::stoi(row[t])][std::stod(row[lambda])] = std::stod(row[fd]);
  }
  EXPECT_EQ(series.size(), 2u);
  for (const auto& [rate, by_lambda] : series) {
    ASSERT_GT(by_lambda.size(), 2u) << "T=" << rate;
    double prev = 0.0;
    for (const auto& [l, latency_ms] : by_lambda) {
      EXPECT_GT(latency_ms, prev) << "T=" << rate << " lambda=" << l;
      prev = latency_ms;
    }
  }
}

TEST(Trends, NonUniformGmAtMostAThirdOfUniformGm) {
  const Csv csv = read_results("ablation_nonuniform_gm.csv");
  const std::size_t n = csv.col("n");
  const std::size_t t = csv.col("T [1/s]");
  const std::size_t uniform = csv.col("GM uniform [ms]");
  const std::size_t non_uniform = csv.col("GM non-uniform [ms]");
  std::size_t compared = 0;
  for (const auto& row : csv.rows) {
    if (std::stoi(row[t]) > 400) continue;
    EXPECT_LE(3.0 * std::stod(row[non_uniform]), std::stod(row[uniform]))
        << "n=" << row[n] << " T=" << row[t];
    ++compared;
  }
  EXPECT_EQ(compared, 12u);
}

}  // namespace
