#include "cq/datalog_parser.h"

#include <gtest/gtest.h>

#include <string>

#include "cq/printer.h"
#include "test_util.h"

namespace fdc::cq {
namespace {

class DatalogParserTest : public ::testing::Test {
 protected:
  Schema schema_ = test::MakePaperSchema();
};

TEST_F(DatalogParserTest, ParsesFigureOneQueries) {
  auto q1 = ParseDatalog("Q1(x) :- Meetings(x, 'Cathy')", schema_);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  EXPECT_EQ(q1->size(), 1);
  EXPECT_EQ(q1->head().size(), 1u);
  EXPECT_EQ(q1->atoms()[0].terms[1], Term::Const("Cathy"));

  auto q2 = ParseDatalog(
      "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')", schema_);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2->size(), 2);
  // Shared variable y links the atoms.
  EXPECT_EQ(q2->atoms()[0].terms[1], q2->atoms()[1].terms[0]);
}

TEST_F(DatalogParserTest, BooleanHead) {
  auto q = ParseDatalog("V5() :- Meetings(x, y)", schema_);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->IsBoolean());
}

TEST_F(DatalogParserTest, NumericConstants) {
  auto q = ParseDatalog("V13() :- Meetings(9, 'Jim')", schema_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[0], Term::Const("9"));
}

TEST_F(DatalogParserTest, DoubleQuotedStrings) {
  auto q = ParseDatalog("Q(x) :- Meetings(x, \"Cathy\")", schema_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[1], Term::Const("Cathy"));
}

TEST_F(DatalogParserTest, AcceptsAndKeyword) {
  auto q = ParseDatalog(
      "Q(x) :- Meetings(x, y) AND Contacts(y, w, z)", schema_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->size(), 2);
}

TEST_F(DatalogParserTest, TrailingPeriodAllowed) {
  EXPECT_TRUE(ParseDatalog("Q(x) :- Meetings(x, y).", schema_).ok());
}

TEST_F(DatalogParserTest, SharedVariablesGetSameId) {
  auto q = ParseDatalog("Q(x) :- Meetings(x, x)", schema_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[0], q->atoms()[0].terms[1]);
}

TEST_F(DatalogParserTest, RejectsUnknownRelation) {
  auto q = ParseDatalog("Q(x) :- Nope(x)", schema_);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
}

TEST_F(DatalogParserTest, RejectsArityMismatch) {
  EXPECT_FALSE(ParseDatalog("Q(x) :- Meetings(x)", schema_).ok());
  EXPECT_FALSE(ParseDatalog("Q(x) :- Meetings(x, y, z)", schema_).ok());
}

TEST_F(DatalogParserTest, RejectsUnsafeHead) {
  auto q = ParseDatalog("Q(z) :- Meetings(x, y)", schema_);
  EXPECT_FALSE(q.ok());
}

TEST_F(DatalogParserTest, RejectsHeadConstants) {
  EXPECT_FALSE(ParseDatalog("Q('a') :- Meetings(x, y)", schema_).ok());
}

TEST_F(DatalogParserTest, RejectsMissingBody) {
  EXPECT_FALSE(ParseDatalog("Q(x)", schema_).ok());
  EXPECT_FALSE(ParseDatalog("Q(x) :-", schema_).ok());
}

TEST_F(DatalogParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseDatalog("Q(x) :- Meetings(x, y) garbage", schema_).ok());
}

TEST_F(DatalogParserTest, RejectsUnterminatedString) {
  EXPECT_FALSE(ParseDatalog("Q(x) :- Meetings(x, 'oops", schema_).ok());
}

TEST_F(DatalogParserTest, RoundTripsThroughPrinter) {
  auto q = ParseDatalog(
      "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')", schema_);
  ASSERT_TRUE(q.ok());
  const std::string printed = ToDatalog(*q, schema_);
  auto reparsed = ParseDatalog(printed, schema_);
  ASSERT_TRUE(reparsed.ok()) << printed;
  EXPECT_EQ(*q, *reparsed);
}

TEST_F(DatalogParserTest, ErrorsQuoteABoundedExcerpt) {
  // Short texts are quoted whole.
  auto shortq = ParseDatalog("Q(x) :- Meetings(x, y) garbage", schema_);
  ASSERT_FALSE(shortq.ok());
  EXPECT_EQ(shortq.status().message(),
            "unexpected trailing input at offset 23 in "
            "\"Q(x) :- Meetings(x, y) garbage\"");
  // A long text is quoted as 64 bytes around the offset, marked where cut.
  const std::string text = "Q(x) :- Meetings(x, y)" + std::string(1000, ' ') +
                           "!" + std::string(1000, ' ');
  auto longq = ParseDatalog(text, schema_);
  ASSERT_FALSE(longq.ok());
  EXPECT_EQ(longq.status().message(),
            "unexpected trailing input at offset 1022 in \"..." +
                text.substr(1022 - 32, 64) + "...\"");
  // So is an unknown relation's name.
  auto unknown = ParseDatalog("Q(x) :- " + std::string(500, 'R') + "(x)",
                              schema_);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().message(),
            "unknown relation '" + std::string(64, 'R') + "...'");
}

TEST_F(DatalogParserTest, TaggedBodyRendering) {
  auto q = ParseDatalog(
      "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')", schema_);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(ToTaggedBody(*q, schema_),
            "[Meetings(v0_d, v1_e), Contacts(v1_e, v2_e, 'Intern')]");
}

}  // namespace
}  // namespace fdc::cq
