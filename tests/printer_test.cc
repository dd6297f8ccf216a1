#include "cq/printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

#include "test_util.h"

namespace fdc::cq {
namespace {

class PrinterTest : public ::testing::Test {
 protected:
  Schema schema_ = test::MakePaperSchema();
};

TEST_F(PrinterTest, DatalogRendering) {
  auto q = test::Q("Q1(x) :- Meetings(x, 'Cathy')", schema_);
  EXPECT_EQ(ToDatalog(q, schema_), "Q1(v0) :- Meetings(v0, 'Cathy')");
}

TEST_F(PrinterTest, BooleanHeadRendering) {
  auto q = test::Q("V5() :- Meetings(x, y)", schema_);
  EXPECT_EQ(ToDatalog(q, schema_), "V5() :- Meetings(v0, v1)");
}

TEST_F(PrinterTest, MultiAtomRendering) {
  auto q = test::Q("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
                   schema_);
  EXPECT_EQ(ToDatalog(q, schema_),
            "Q2(v0) :- Meetings(v0, v1), Contacts(v1, v2, 'Intern')");
}

TEST_F(PrinterTest, UnnamedQueryGetsDefaultName) {
  ConjunctiveQuery q("", {Term::Var(0)},
                     {Atom(0, {Term::Var(0), Term::Var(1)})});
  EXPECT_EQ(ToDatalog(q, schema_), "Q(v0) :- Meetings(v0, v1)");
}

TEST_F(PrinterTest, UnknownRelationFallsBackToId) {
  ConjunctiveQuery q("Q", {}, {Atom(42, {Term::Var(0)})});
  EXPECT_EQ(ToDatalog(q, schema_), "Q() :- R42(v0)");
}

TEST_F(PrinterTest, TaggedBodyMarksQuantification) {
  auto q = test::Q("Q(x) :- Meetings(x, y)", schema_);
  EXPECT_EQ(ToTaggedBody(q, schema_), "[Meetings(v0_d, v1_e)]");
}

TEST_F(PrinterTest, TaggedBodyExample54Form) {
  // The §5 representation of Q2 from Figure 1.
  auto q = test::Q("Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
                   schema_);
  EXPECT_EQ(ToTaggedBody(q, schema_),
            "[Meetings(v0_d, v1_e), Contacts(v1_e, v2_e, 'Intern')]");
}

TEST_F(PrinterTest, PatternRendering) {
  AtomPattern p = test::P("V(x) :- Meetings(x, x)", schema_);
  EXPECT_EQ(PatternToString(p, schema_), "Meetings(x0_d, x0_d)");
}

TEST_F(PrinterTest, DatalogRoundTripsAllFigureViews) {
  for (const char* text : {
           "V1(x, y) :- Meetings(x, y)",
           "V2(x) :- Meetings(x, y)",
           "V3(x, y, z) :- Contacts(x, y, z)",
           "V5() :- Meetings(x, y)",
           "V13() :- Meetings(9, 'Jim')",
           "V15() :- Meetings(z, z)",
       }) {
    auto q = test::Q(text, schema_);
    auto reparsed = ParseDatalog(ToDatalog(q, schema_), schema_);
    ASSERT_TRUE(reparsed.ok()) << text;
    EXPECT_EQ(q, *reparsed) << text;
  }
}

// ParseDatalog(ToDatalog(q)) == q for random queries whose constants hold
// ', ", spaces, commas, parentheses and joins: a value with a ' prints in
// double quotes. (A value holding both quote kinds has no Datalog spelling.)
TEST_F(PrinterTest, DatalogRoundTripsHostileConstants) {
  Rng rng(0x9071ULL);
  static constexpr const char* kPieces[] = {"a", "'", "\"", " ", ",", "(",
                                            ")", "-", "7", "∧", "AND", ":-",
                                            "."};
  auto random_constant = [&] {
    std::string value;
    const bool allow_single = rng.Chance(0.5);
    for (uint64_t n = rng.Below(6); n > 0; --n) {
      const std::string piece = kPieces[rng.Below(std::size(kPieces))];
      if (piece == (allow_single ? "\"" : "'")) continue;
      value += piece;
    }
    return value;
  };
  for (int trial = 0; trial < 500; ++trial) {
    // Body terms over abstract variables 0..5 or constants; the head takes
    // a subset of the body's variables.
    std::vector<std::pair<int, std::vector<int>>> body;  // (relation, slots)
    std::vector<std::string> constants;
    const int atoms = 1 + static_cast<int>(rng.Below(3));
    for (int a = 0; a < atoms; ++a) {
      const int rel = static_cast<int>(rng.Below(2));
      std::vector<int> slots;
      for (int i = 0; i < schema_.FindById(rel)->arity(); ++i) {
        if (rng.Chance(0.4)) {
          slots.push_back(-1 - static_cast<int>(constants.size()));
          constants.push_back(random_constant());
        } else {
          slots.push_back(static_cast<int>(rng.Below(6)));
        }
      }
      body.emplace_back(rel, std::move(slots));
    }
    std::vector<int> head_vars;
    for (const auto& [rel, slots] : body) {
      for (int v : slots) {
        if (v >= 0 && rng.Chance(0.3) &&
            std::find(head_vars.begin(), head_vars.end(), v) ==
                head_vars.end()) {
          head_vars.push_back(v);
        }
      }
    }
    // Number variables by first appearance, head first, as the parser does.
    std::vector<int> id(6, -1);
    int next = 0;
    auto term = [&](int v) {
      if (v < 0) return Term::Const(constants[-1 - v]);
      if (id[v] < 0) id[v] = next++;
      return Term::Var(id[v]);
    };
    std::vector<Term> head;
    for (int v : head_vars) head.push_back(term(v));
    std::vector<Atom> body_atoms;
    for (const auto& [rel, slots] : body) {
      std::vector<Term> terms;
      for (int v : slots) terms.push_back(term(v));
      body_atoms.emplace_back(rel, std::move(terms));
    }
    const ConjunctiveQuery q("Q", std::move(head), std::move(body_atoms));

    const std::string printed = ToDatalog(q, schema_);
    auto reparsed = ParseDatalog(printed, schema_);
    ASSERT_TRUE(reparsed.ok())
        << printed << ": " << reparsed.status().ToString();
    EXPECT_EQ(*reparsed, q) << printed;
    EXPECT_EQ(reparsed->name(), q.name()) << printed;
  }
}

TEST_F(PrinterTest, ConstantWithApostropheRendersDoubleQuoted) {
  auto q = test::Q("Q(x) :- Meetings(x, \"it's\")", schema_);
  EXPECT_EQ(ToDatalog(q, schema_), "Q(v0) :- Meetings(v0, \"it's\")");
  auto plain = test::Q("Q(x) :- Meetings(x, \"Cathy\")", schema_);
  EXPECT_EQ(ToDatalog(plain, schema_), "Q(v0) :- Meetings(v0, 'Cathy')");
}

}  // namespace
}  // namespace fdc::cq
