// The shared text-record codec (util/record.h) and the hashing helpers
// every content key is built from (util/rng.h).
#include "util/record.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace fbist::util {
namespace {

TEST(ParseU64, AcceptsOnlyPlainDecimalsThatFit) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("007", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 42;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1a", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 42u);  // untouched on failure
}

TEST(Hex64, RoundTripsAndRejectsAnythingButSixteenLowercaseDigits) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0x0123456789abcdefull), "0123456789abcdef");
  EXPECT_EQ(hex64(UINT64_MAX), "ffffffffffffffff");
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_hex64("fedcba9876543210", &v));
  EXPECT_EQ(v, 0xfedcba9876543210ull);
  for (const char* bad : {"", "123", "0123456789abcde", "0123456789abcdef0",
                          "0123456789ABCDEF", "0123456789abcdeg",
                          "-123456789abcdef"}) {
    EXPECT_FALSE(parse_hex64(bad, &v)) << bad;
  }
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(RecordReader, SkipsBlankAndCommentLinesAndReadsTypedFields) {
  const std::string text =
      "\n# comment\n   \t\nkey 12 0000000000000010 word and the rest # kept\n"
      "next\n";
  RecordReader in(text, "fmt");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.key(), "key");
  EXPECT_EQ(in.count("n"), 12u);
  EXPECT_EQ(in.hex64("h"), 16u);
  EXPECT_EQ(in.token("t"), "word");
  EXPECT_EQ(in.rest(), "and the rest # kept");
  EXPECT_FALSE(in.more());
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.key(), "next");
  EXPECT_EQ(in.rest(), "");
  EXPECT_FALSE(in.next());
}

TEST(RecordReader, ErrorsNameTheFormatAndTheLine) {
  const std::string text = "a 1\n\n# c\nb -1\nc 1 2\n";
  RecordReader in(text, "fmt");
  ASSERT_TRUE(in.next());
  in.count("x");
  in.end();
  ASSERT_TRUE(in.next());
  EXPECT_EQ(error_of([&] { in.count("size"); }), "fmt line 4: bad size '-1'");
  ASSERT_TRUE(in.next());
  in.count("x");
  EXPECT_EQ(error_of([&] { in.end(); }),
            "fmt line 5: trailing field '2' in 'c' record");
  EXPECT_EQ(error_of([&] { in.token("name"); }), "fmt line 5: missing name");
  EXPECT_EQ(error_of([&] { in.fail_input("incomplete"); }), "fmt: incomplete");
}

TEST(RecordReader, HeaderTellsForeignFilesFromOtherVersions) {
  const auto header = [](const std::string& text) {
    return error_of([&] {
      RecordReader in(text, "fmt");
      in.header("magic", "v2");
    });
  };
  EXPECT_EQ(header("# only a comment\nmagic v2\n"), "");
  EXPECT_EQ(header(""), "fmt: empty input");
  EXPECT_NE(header("other v2\n").find("expected 'magic v2' header, found "
                                      "'other'"),
            std::string::npos);
  const std::string stale = header("magic v1\n");
  EXPECT_NE(stale.find("unsupported version 'v1'"), std::string::npos);
  EXPECT_NE(stale.find("this build reads 'v2'"), std::string::npos);
  EXPECT_NE(header("magic v2 extra\n").find("trailing field"),
            std::string::npos);
}

TEST(RecordReader, CheckLinesBoundsDeclaredCountsByTheInput) {
  const std::string text = "dims 3\nrow\nrow\nrow";  // last line unterminated
  RecordReader in(text, "fmt");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(error_of([&] { in.check_lines(3, 4, "rows"); }), "");
  EXPECT_NE(error_of([&] { in.check_lines(4, 4, "rows"); }).find(
                "fmt line 1: 4 rows declared"),
            std::string::npos);
  EXPECT_NE(error_of([&] { in.check_lines(UINT64_MAX, 1, "rows"); }), "");
  EXPECT_EQ(error_of([&] { in.check_lines(0, UINT64_MAX, "rows"); }), "");
}

// Two FNV-1a offset bases are in use and both are load-bearing (see
// Fnv1a in util/rng.h); the standard one must match the published
// FNV-1a test vectors.
TEST(Fnv1a, BothBasesAreExactAndTheStandardOneMatchesTheReference) {
  EXPECT_EQ(Fnv1a::kBasis, 14695981039346656037ull);
  EXPECT_EQ(Fnv1a::kShortBasis, 0x14650fb0739d0383ull);
  EXPECT_EQ(hash_string(""), Fnv1a::kBasis);
  EXPECT_EQ(hash_string("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hash_string("foobar"), 0x85944171f73967e8ull);
  Fnv1a framed(Fnv1a::kShortBasis);
  framed.str("ab");
  Fnv1a raw(Fnv1a::kShortBasis);
  raw.u64(2);
  raw.bytes("ab");
  EXPECT_EQ(framed.value(), raw.value());
}

TEST(Splitmix64, MatchesTheReferenceSequence) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(state, 2 * 0x9e3779b97f4a7c15ull);
}

}  // namespace
}  // namespace fbist::util
