#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace lbe::str {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\nx\n"), "x");
}

TEST(Trim, PreservesInnerWhitespace) { EXPECT_EQ(trim(" a b "), "a b"); }

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   \t\n"), "");
}

TEST(Split, BasicFields) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Split, PreservesEmptyFields) {
  const auto parts = split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(Split, SingleFieldWithoutSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(NextField, ConsumesOneFieldAtATime) {
  std::string_view rest = " \tab  c\r\n";
  EXPECT_EQ(next_field(rest), "ab");
  EXPECT_EQ(rest, "  c\r\n");
  EXPECT_EQ(next_field(rest), "c");
  EXPECT_EQ(rest, "\r\n");
  EXPECT_EQ(next_field(rest), "");
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(next_field(rest), "");
}

TEST(NextField, CollapsesWhitespaceRuns) {
  std::string_view rest = "  a \t b\n c  ";
  EXPECT_EQ(next_field(rest), "a");
  EXPECT_EQ(next_field(rest), "b");
  EXPECT_EQ(next_field(rest), "c");
  EXPECT_EQ(next_field(rest), "");
}

TEST(NextField, EmptyInputYieldsNoFields) {
  std::string_view empty;
  EXPECT_EQ(next_field(empty), "");
  std::string_view blank = "   ";
  EXPECT_EQ(next_field(blank), "");
  EXPECT_TRUE(blank.empty());
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("peptide", "pep"));
  EXPECT_FALSE(starts_with("pep", "peptide"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(ToUpper, MixedCase) { EXPECT_EQ(to_upper("PepTide"), "PEPTIDE"); }

TEST(ParseDouble, Valid) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(parse_double(" -1e-3 ", v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
}

TEST(ParseDouble, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("1.5x", v));
}

TEST(ParseU64, ValidAndInvalid) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("4.2", v));
  EXPECT_FALSE(parse_u64("", v));
}

TEST(HumanBytes, Units) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(1536), "1.50 KiB");
  EXPECT_EQ(human_bytes(3u * 1024 * 1024), "3.00 MiB");
}

TEST(HumanSeconds, Ranges) {
  EXPECT_EQ(human_seconds(0.5e-3), "500.0 us");
  EXPECT_EQ(human_seconds(0.25), "250.0 ms");
  EXPECT_EQ(human_seconds(2.5), "2.50 s");
}

}  // namespace
}  // namespace lbe::str
