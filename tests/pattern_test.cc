#include "cq/pattern.h"

#include <gtest/gtest.h>

#include "cq/printer.h"
#include "fb/fb_schema.h"
#include "test_util.h"

namespace fdc::cq {
namespace {

TEST(PatternTest, FromQueryBasic) {
  Schema schema = test::MakePaperSchema();
  AtomPattern p = test::P("V2(x) :- Meetings(x, y)", schema);
  ASSERT_EQ(p.arity(), 2);
  EXPECT_FALSE(p.terms[0].is_const);
  EXPECT_TRUE(p.terms[0].distinguished);
  EXPECT_FALSE(p.terms[1].is_const);
  EXPECT_FALSE(p.terms[1].distinguished);
  EXPECT_EQ(p.NumClasses(), 2);
}

TEST(PatternTest, ConstantsCaptured) {
  Schema schema = test::MakePaperSchema();
  AtomPattern p = test::P("Q(x) :- Meetings(x, 'Cathy')", schema);
  EXPECT_TRUE(p.terms[1].is_const);
  EXPECT_EQ(p.terms[1].value, "Cathy");
}

TEST(PatternTest, FromQueryRejectsMultiAtom) {
  Schema schema = test::MakePaperSchema();
  auto q = test::Q("Q(x) :- Meetings(x, y), Contacts(y, w, z)", schema);
  EXPECT_FALSE(AtomPattern::FromQuery(q).ok());
}

TEST(PatternTest, HeadOrderQuotientedAway) {
  // V1(x,y) :- M(x,y) and V1'(y,x) :- M(x,y) reveal the same information
  // (§3.1); their patterns are identical.
  Schema schema = test::MakePaperSchema();
  AtomPattern a = test::P("V1(x, y) :- Meetings(x, y)", schema);
  AtomPattern b = test::P("V1p(y, x) :- Meetings(x, y)", schema);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Key(), b.Key());
}

TEST(PatternTest, HeadMultiplicityQuotientedAway) {
  Schema schema = test::MakePaperSchema();
  AtomPattern a = test::P("V(x, x) :- Meetings(x, y)", schema);
  AtomPattern b = test::P("V(x) :- Meetings(x, y)", schema);
  EXPECT_EQ(a, b);
}

TEST(PatternTest, DistinguishednessDistinguishes) {
  Schema schema = test::MakePaperSchema();
  AtomPattern v1 = test::P("V1(x, y) :- Meetings(x, y)", schema);
  AtomPattern v2 = test::P("V2(x) :- Meetings(x, y)", schema);
  EXPECT_NE(v1, v2);
}

TEST(PatternTest, RepeatedVariablesShareClass) {
  Schema schema = test::MakePaperSchema();
  AtomPattern p = test::P("V15() :- Meetings(z, z)", schema);
  EXPECT_EQ(p.NumClasses(), 1);
  EXPECT_EQ(p.terms[0].cls, p.terms[1].cls);
}

TEST(PatternTest, NormalizeRenumbersByFirstOccurrence) {
  AtomPattern p;
  p.relation = 0;
  p.terms.resize(3);
  p.terms[0] = {false, "", 7, true};
  p.terms[1] = {false, "", 3, false};
  p.terms[2] = {false, "", 7, true};
  p.Normalize();
  EXPECT_EQ(p.terms[0].cls, 0);
  EXPECT_EQ(p.terms[1].cls, 1);
  EXPECT_EQ(p.terms[2].cls, 0);
}

TEST(PatternTest, ToQueryRoundTrip) {
  Schema schema = test::MakePaperSchema();
  for (const char* text : {
           "V1(x, y) :- Meetings(x, y)",
           "V2(x) :- Meetings(x, y)",
           "V5() :- Meetings(x, y)",
           "V(x) :- Contacts(x, y, 'Intern')",
           "V(x) :- Meetings(x, x)",
       }) {
    AtomPattern p = test::P(text, schema);
    ConjunctiveQuery q = p.ToQuery("V");
    auto back = AtomPattern::FromQuery(q);
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, p) << text;
  }
}

TEST(PatternTest, KeyIsStable) {
  Schema schema = test::MakePaperSchema();
  AtomPattern p = test::P("V(x) :- Contacts(x, y, 'Intern')", schema);
  EXPECT_EQ(p.Key(), "R1(#0d,#1e,'Intern')");
}

TEST(PatternTest, QuotesInsideConstantsDoNotCollide) {
  // Dissect dedups a query's atoms by Key(), so two patterns sharing a key
  // would silently drop an atom (and its ⊤) from the label.
  const Schema fb = fb::BuildFacebookSchema();
  const AtomPattern a =
      test::P(R"(Q(a) :- Album(a, u, "self", "B','C", l, t))", fb);
  const AtomPattern b =
      test::P(R"(Q(a) :- Album(a, u, "self','B", "C", l, t))", fb);
  ASSERT_NE(a, b);
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_EQ(a.Key(), R"(R2(#0d,#1e,'self','B\',\'C',#2e,#3e))");
}

TEST(PatternTest, HasDistinguished) {
  Schema schema = test::MakePaperSchema();
  EXPECT_TRUE(test::P("V(x) :- Meetings(x, y)", schema).HasDistinguished());
  EXPECT_FALSE(test::P("V() :- Meetings(x, y)", schema).HasDistinguished());
}

TEST(PatternTest, PrinterRendersNames) {
  Schema schema = test::MakePaperSchema();
  AtomPattern p = test::P("V(x) :- Contacts(x, y, 'Intern')", schema);
  EXPECT_EQ(PatternToString(p, schema), "Contacts(x0_d, x1_e, 'Intern')");
}

TEST(PatternTest, RandomPatternsNormalized) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    AtomPattern p = test::RandomPattern(&rng, 0, 3);
    AtomPattern q = p;
    q.Normalize();
    EXPECT_EQ(p, q);  // generator output is already normalized
  }
}

}  // namespace
}  // namespace fdc::cq
