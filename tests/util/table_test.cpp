#include "util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace fbist::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.set_header({"circuit", "triplets"});
  t.add_row({"c432", "5"});
  t.add_row({"s1238", "11"});
  std::ostringstream ss;
  t.print(ss);
  // Every column is as wide as its widest cell plus two spaces.
  EXPECT_EQ(ss.str(),
            "== demo ==\n"
            "circuit  triplets  \n"
            "-------------------\n"
            "c432     5         \n"
            "s1238    11        \n");
}

TEST(Table, PadsShortRows) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream ss;
  t.print(ss);
  // No title line; the short row still spans all three columns.
  EXPECT_EQ(ss.str(),
            "a  b  c  \n"
            "---------\n"
            "1        \n");
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::size_t{42}), "42");
  EXPECT_EQ(Table::fmt(-5ll), "-5");
}

}  // namespace
}  // namespace fbist::util
