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
  const std::string out = ss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("circuit"), std::string::npos);
  EXPECT_NE(out.find("s1238"), std::string::npos);
  EXPECT_EQ(t.row(1)[0], "s1238");
}

TEST(Table, PadsShortRows) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.row(0).size(), 3u);
  EXPECT_EQ(t.row(0)[1], "");
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::size_t{42}), "42");
  EXPECT_EQ(Table::fmt(-5ll), "-5");
}

}  // namespace
}  // namespace fbist::util
