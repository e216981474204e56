// Minimal CSV/table writer used by the benchmark harness to emit both a
// human-readable aligned table (stdout, as the paper's figures' data series)
// and machine-readable CSV rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fdgm::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with fixed precision; NaN renders as "-".
  static std::string cell(double v, int precision = 2);
  static std::string cell(const std::string& v) { return v; }

  /// Aligned human-readable rendering.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV rendering.
  void print_csv(std::ostream& os) const;

  /// JSON rendering: an array of objects keyed by the header.  Cells that
  /// parse as finite numbers are emitted as numbers, everything else as
  /// strings.
  void print_json(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const { return rows_.at(i); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace fdgm::util
