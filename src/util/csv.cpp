#include "util/csv.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace fdgm::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument("Table: row width does not match header");
  rows_.push_back(std::move(cells));
}

std::string Table::cell(double v, int precision) {
  if (std::isnan(v)) return "-";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> w(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) w[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c) w[c] = std::max(w[c], r[c].size());

  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << std::setw(static_cast<int>(w[c])) << r[c];
      os << (c + 1 == r.size() ? "\n" : "  ");
    }
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << csv_escape(r[c]);
      os << (c + 1 == r.size() ? "\n" : ",");
    }
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A cell is emitted as a bare JSON number only when the whole string is a
/// valid JSON numeric literal ("-", "unstable", "+5", "0x1f" stay strings).
bool is_plain_number(const std::string& s) {
  // strtod accepts more than JSON does (hex, inf, leading '+', ".5", "1.");
  // restrict to JSON's grammar: -?digits(.digits)?([eE][+-]?digits)?
  std::size_t i = 0;
  if (i < s.size() && s[i] == '-') ++i;
  const std::size_t int_start = i;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
  if (i == int_start) return false;
  if (s[int_start] == '0' && i - int_start > 1) return false;  // no leading zeros
  if (i < s.size() && s[i] == '.') {
    const std::size_t frac_start = ++i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == frac_start) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    const std::size_t exp_start = i;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    if (i == exp_start) return false;
  }
  return i == s.size();
}

}  // namespace

void Table::print_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "  {";
    for (std::size_t c = 0; c < header_.size(); ++c) {
      os << '"' << json_escape(header_[c]) << "\": ";
      if (is_plain_number(rows_[r][c]))
        os << rows_[r][c];
      else
        os << '"' << json_escape(rows_[r][c]) << '"';
      if (c + 1 < header_.size()) os << ", ";
    }
    os << (r + 1 < rows_.size() ? "},\n" : "}\n");
  }
  os << "]\n";
}

}  // namespace fdgm::util
