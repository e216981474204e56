// Tests of the table writer used by the bench driver: aligned text, CSV
// escaping, and the JSON rendering added for machine-readable output.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace fdgm::util {
namespace {

Table sample() {
  Table t({"n", "T [1/s]", "FD [ms]"});
  t.add_row({"3", "100", "12.34"});
  t.add_row({"7", "500", "unstable"});
  return t;
}

TEST(Table, RejectsEmptyHeaderAndRaggedRows) {
  EXPECT_THROW(Table(std::vector<std::string>{}), std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CellFormatsDoubles) {
  EXPECT_EQ(Table::cell(1.2345), "1.23");
  EXPECT_EQ(Table::cell(10.0, 0), "10");
  EXPECT_EQ(Table::cell(std::nan("")), "-");
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "value"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "name,value\n\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Table, CsvRoundTripsSample) {
  std::ostringstream os;
  sample().print_csv(os);
  EXPECT_EQ(os.str(), "n,T [1/s],FD [ms]\n3,100,12.34\n7,500,unstable\n");
}

TEST(Table, JsonEmitsNumbersAndStrings) {
  std::ostringstream os;
  sample().print_json(os);
  EXPECT_EQ(os.str(),
            "[\n"
            "  {\"n\": 3, \"T [1/s]\": 100, \"FD [ms]\": 12.34},\n"
            "  {\"n\": 7, \"T [1/s]\": 500, \"FD [ms]\": \"unstable\"}\n"
            "]\n");
}

TEST(Table, JsonEscapesQuotesAndBackslashes) {
  Table t({"k\"ey"});
  t.add_row({"a\\b\nc"});
  std::ostringstream os;
  t.print_json(os);
  EXPECT_EQ(os.str(), "[\n  {\"k\\\"ey\": \"a\\\\b\\nc\"}\n]\n");
}

TEST(Table, JsonOnlyEmitsStrictJsonNumbersBare) {
  // strtod-isms that are not JSON numbers must stay quoted strings.
  Table t({"a", "b", "c", "d", "e", "f"});
  t.add_row({"+5", "0x1f", ".5", "1.", "007", "-2.5e3"});
  std::ostringstream os;
  t.print_json(os);
  EXPECT_EQ(os.str(),
            "[\n"
            "  {\"a\": \"+5\", \"b\": \"0x1f\", \"c\": \".5\", \"d\": \"1.\", "
            "\"e\": \"007\", \"f\": -2.5e3}\n"
            "]\n");
}

TEST(Table, JsonEscapesControlCharacters) {
  Table t({"k"});
  t.add_row({std::string("a\rb\x01") + "c"});
  std::ostringstream os;
  t.print_json(os);
  EXPECT_EQ(os.str(), "[\n  {\"k\": \"a\\u000db\\u0001c\"}\n]\n");
}

TEST(Table, JsonEmptyTableIsEmptyArray) {
  Table t({"a"});
  std::ostringstream os;
  t.print_json(os);
  EXPECT_EQ(os.str(), "[\n]\n");
}

}  // namespace
}  // namespace fdgm::util
