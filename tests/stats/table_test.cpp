#include <gtest/gtest.h>

#include <sstream>

#include "src/stats/table.h"

namespace levy::stats {
namespace {

TEST(TextTable, BasicLayout) {
    text_table t({"a", "bb"});
    t.add_row({"1", "2"});
    t.add_row({"333", "4"});
    std::ostringstream ss;
    t.print(ss);
    const std::string out = ss.str();
    EXPECT_NE(out.find("|   a | bb |"), std::string::npos) << out;
    EXPECT_NE(out.find("| 333 |  4 |"), std::string::npos) << out;
    EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, SeparatorRendersLine) {
    text_table t({"x"});
    t.add_row({"1"});
    t.add_separator();
    t.add_row({"2"});
    std::ostringstream ss;
    t.print(ss);
    // header line + top/bottom + separator = at least 4 ruled lines.
    int ruled = 0;
    std::istringstream in(ss.str());
    std::string line;
    while (std::getline(in, line)) ruled += (line[0] == '+');
    EXPECT_EQ(ruled, 4);
}

// A separator with no data row on one side would only repeat a border:
// trailing (after the last group), doubled, or leading separators print
// nothing, so the table never shows two identical rule lines in a row.
TEST(TextTable, RedundantSeparatorsPrintNothing) {
    text_table t({"x"});
    t.add_separator();  // right after the header's rule
    t.add_row({"1"});
    t.add_separator();
    t.add_separator();  // doubled
    t.add_row({"2"});
    t.add_separator();  // before the bottom border
    std::ostringstream ss;
    t.print(ss);
    EXPECT_EQ(ss.str(),
              "+---+\n"
              "| x |\n"
              "+---+\n"
              "| 1 |\n"
              "+---+\n"
              "| 2 |\n"
              "+---+\n");
    EXPECT_EQ(t.cell_rows().size(), 2u);
}

TEST(TextTable, RejectsMismatchedRow) {
    text_table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TextTable, RejectsEmptyHeader) {
    EXPECT_THROW(text_table({}), std::invalid_argument);
}

TEST(Fmt, Doubles) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Fmt, Integers) {
    EXPECT_EQ(fmt(42), "42");
    EXPECT_EQ(fmt(std::uint64_t{18446744073709551615ULL}), "18446744073709551615");
    EXPECT_EQ(fmt(std::int64_t{-7}), "-7");
}

TEST(Fmt, PlusMinus) {
    EXPECT_EQ(fmt_pm(1.5, 0.25, 2), "1.50 ± 0.25");
}

TEST(Fmt, Scientific) {
    EXPECT_EQ(fmt_sci(12345.0, 2), "1.23e+04");
    EXPECT_EQ(fmt_sci(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace levy::stats
