#include <gtest/gtest.h>

#include <set>

#include "common/bit_utils.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_utils.h"

namespace fdc {
namespace {

// ---- Status / Result ------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unsupported("x").code(), StatusCode::kUnsupported);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::PolicyViolation("x").code(), StatusCode::kPolicyViolation);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok_result(42);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  EXPECT_EQ(ok_result.value_or(7), 42);

  Result<int> err_result(Status::NotFound("gone"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err_result.value_or(7), 7);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r(std::string("payload"));
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

// ---- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Below(bound), bound);
    }
  }
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    uint64_t v = rng.Range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(19);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.3);
  EXPECT_GT(hits, n * 0.25);
  EXPECT_LT(hits, n * 0.35);
}

// ---- Bit utils ---------------------------------------------------------------

TEST(BitUtilsTest, PopCount) {
  EXPECT_EQ(PopCount(0), 0);
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_EQ(PopCount(~0ULL), 64);
}

TEST(BitUtilsTest, Subset) {
  EXPECT_TRUE(IsBitSubset(0b0101, 0b1101));
  EXPECT_FALSE(IsBitSubset(0b0011, 0b0101));
  EXPECT_TRUE(IsBitSubset(0, 0));
}

TEST(BitUtilsTest, ForEachBitVisitsAll) {
  std::set<int> bits;
  ForEachBit(0b100101ULL, [&](int b) { bits.insert(b); });
  EXPECT_EQ(bits, (std::set<int>{0, 2, 5}));
}

TEST(BitUtilsTest, LowMask) {
  EXPECT_EQ(LowMask(0), 0ULL);
  EXPECT_EQ(LowMask(3), 0b111ULL);
  EXPECT_EQ(LowMask(64), ~0ULL);
}

// ---- String utils ---------------------------------------------------------------

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(TrimView("  abc  "), "abc");
  EXPECT_EQ(TrimView(""), "");
  EXPECT_EQ(TrimView("   "), "");
  EXPECT_EQ(TrimView("x"), "x");
}

TEST(StringUtilsTest, CaseInsensitiveCompare) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("SeLeCt", "sElEcT"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "SELEC"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(JoinStrings({}, ", "), "");
  EXPECT_EQ(JoinStrings({"a"}, ", "), "a");
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, " or "), "a or b or c");
}

TEST(StringUtilsTest, IdentPredicates) {
  EXPECT_TRUE(IsIdentStart('a'));
  EXPECT_TRUE(IsIdentStart('_'));
  EXPECT_FALSE(IsIdentStart('1'));
  EXPECT_TRUE(IsIdentChar('1'));
  EXPECT_FALSE(IsIdentChar('-'));
}

// The parsers' character classes are the "C" locale's ASCII sets whatever
// the process locale is: no byte 0x80-0xFF is a letter, digit or space
// (Latin-1 locales would call 0xE9 a letter and 0xA0/0x85 spaces).
TEST(StringUtilsTest, CharacterClassesAreAsciiOnly) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool alpha = (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z');
    const bool digit = b >= '0' && b <= '9';
    EXPECT_EQ(IsIdentStart(c), alpha || b == '_') << b;
    EXPECT_EQ(IsIdentChar(c), alpha || digit || b == '_') << b;
    EXPECT_EQ(IsAsciiDigit(c), digit) << b;
    EXPECT_EQ(IsAsciiSpace(c), b == ' ' || (b >= '\t' && b <= '\r')) << b;
    if (b >= 0x80) {
      EXPECT_FALSE(IsIdentStart(c) || IsIdentChar(c) || IsAsciiSpace(c)) << b;
    }
  }
  EXPECT_EQ(TrimView(" \t\n\v\f\rabc \t\n\v\f\r"), "abc");
  EXPECT_EQ(TrimView("\xa0" "abc\x85"), "\xa0" "abc\x85");
  EXPECT_EQ(ToLower("SELECT \xc9"), "select \xc9");
  EXPECT_FALSE(EqualsIgnoreCase("\xc9", "\xe9"));
}

}  // namespace
}  // namespace fdc
