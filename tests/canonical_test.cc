#include "cq/canonical.h"

#include <gtest/gtest.h>

#include "fb/fb_schema.h"
#include "test_util.h"

namespace fdc::cq {
namespace {

class CanonicalTest : public ::testing::Test {
 protected:
  Schema schema_ = test::MakePaperSchema();
};

TEST_F(CanonicalTest, VariableRenamingInvariance) {
  ConjunctiveQuery a = test::Q("Q(x) :- Meetings(x, y)", schema_);
  ConjunctiveQuery b = test::Q("Q(u) :- Meetings(u, v)", schema_);
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, AtomOrderInvariance) {
  ConjunctiveQuery a =
      test::Q("Q(x) :- Meetings(x, y), Contacts(y, w, z)", schema_);
  ConjunctiveQuery b =
      test::Q("Q(x) :- Contacts(y, w, z), Meetings(x, y)", schema_);
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, DistinguishesDifferentQueries) {
  ConjunctiveQuery a = test::Q("Q(x) :- Meetings(x, y)", schema_);
  ConjunctiveQuery b = test::Q("Q(y) :- Meetings(x, y)", schema_);
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, DistinguishesConstants) {
  ConjunctiveQuery a = test::Q("Q(x) :- Meetings(x, 'A')", schema_);
  ConjunctiveQuery b = test::Q("Q(x) :- Meetings(x, 'B')", schema_);
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, SelfJoinOrderInvariance) {
  ConjunctiveQuery a =
      test::Q("Q(t) :- Meetings(t, p), Meetings(t2, p)", schema_);
  ConjunctiveQuery b =
      test::Q("Q(t) :- Meetings(s2, q), Meetings(t, q)", schema_);
  // Same shape: one distinguished-time atom and one existential-time atom
  // sharing the person.
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST_F(CanonicalTest, CompactVariablesDensifies) {
  ConjunctiveQuery q(
      "Q", {Term::Var(7)},
      {Atom(0, {Term::Var(7), Term::Var(3)})});
  ConjunctiveQuery compact = CompactVariables(q);
  EXPECT_EQ(compact.MaxVarId(), 1);
  EXPECT_EQ(compact.head()[0], Term::Var(0));
}

TEST_F(CanonicalTest, ShiftVariables) {
  ConjunctiveQuery q = test::Q("Q(x) :- Meetings(x, y)", schema_);
  ConjunctiveQuery shifted = ShiftVariables(q, 100);
  EXPECT_EQ(shifted.head()[0], Term::Var(100));
  EXPECT_EQ(shifted.atoms()[0].terms[1], Term::Var(101));
}

TEST_F(CanonicalTest, CanonicalizeIsIdempotent) {
  ConjunctiveQuery q =
      test::Q("Q(x) :- Contacts(y, w, z), Meetings(x, y)", schema_);
  ConjunctiveQuery once = Canonicalize(q);
  ConjunctiveQuery twice = Canonicalize(once);
  EXPECT_EQ(once, twice);
}

TEST_F(CanonicalTest, CanonicalFormKeyNeedsNoSecondCanonicalization) {
  ConjunctiveQuery q =
      test::Q("Q(x) :- Contacts(y, w, 'Intern'), Meetings(x, y)", schema_);
  EXPECT_EQ(CanonicalFormKey(Canonicalize(q)), CanonicalKey(q));
}

TEST_F(CanonicalTest, QuoteFreeKeysAreUnchanged) {
  // The key text of quote-free constants is pinned: external dedup (e.g. a
  // benchmark hashing generated structures by CanonicalKey) relies on it.
  ConjunctiveQuery q =
      test::Q("Q(x) :- Contacts(y, w, 'Intern'), Meetings(x, y)", schema_);
  EXPECT_EQ(CanonicalKey(q), "0(v0d,v1e,);1(v1e,v2e,'Intern',);");
}

TEST_F(CanonicalTest, QuotesInsideConstantsDoNotCollide) {
  // Constant boundaries must stay unambiguous when a quoted Datalog
  // constant itself contains ' — otherwise the memo tiers would hand one
  // structure's label to the other.
  const Schema fb = fb::BuildFacebookSchema();
  const ConjunctiveQuery a =
      test::Q(R"(Q(a) :- Album(a, u, "self", "B','C", l, t))", fb);
  const ConjunctiveQuery b =
      test::Q(R"(Q(a) :- Album(a, u, "self','B", "C", l, t))", fb);
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
  // ' and the escape character itself are both escaped.
  EXPECT_EQ(CanonicalKey(test::Q(R"(Q(x) :- Meetings(x, "a\b'"))", schema_)),
            R"(0(v0d,'a\\b\'',);)");
}

}  // namespace
}  // namespace fdc::cq
