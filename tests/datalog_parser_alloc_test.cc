// Allocation contract of cq::ParseDatalog, measured by counting global
// operator new calls around each parse (this binary replaces operator
// new/delete with counting wrappers over malloc/free).
//
// On §7.2 workload texts with at most 64 variables and constants of at most
// 15 bytes, a parse may allocate at most (body atoms + 4) times: the AST's
// head, atom and distinguished-variable vectors and one term vector per
// atom, plus one spare. The seed parser (tests/oracle) is counted on the
// same texts for comparison.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cq/datalog_parser.h"
#include "cq/printer.h"
#include "oracle/seed_datalog_parser.h"
#include "test_util.h"

namespace {
bool g_counting = false;
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fdc::cq {
namespace {

template <typename Parse>
size_t CountAllocations(Parse parse) {
  g_allocations = 0;
  g_counting = true;
  auto result = parse();
  g_counting = false;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return g_allocations;
}

bool WithinContractShape(const ConjunctiveQuery& q) {
  if (q.MaxVarId() >= 64 || q.name().size() > 15) return false;
  for (const Atom& a : q.atoms()) {
    for (const Term& t : a.terms) {
      if (t.is_const() && t.value().size() > 15) return false;
    }
  }
  return true;
}

TEST(DatalogParserAllocTest, AtMostAtomsPlusFourPerText) {
  test::FbFixture fb;
  size_t texts = 0;
  size_t total = 0;
  size_t seed_total = 0;
  for (int subqueries = 1; subqueries <= 5; ++subqueries) {
    for (const ConjunctiveQuery& q : test::RandomWorkload(
             &fb.schema, subqueries, 200, 0xa110c + subqueries)) {
      if (!WithinContractShape(q)) continue;
      const std::string text = ToDatalog(q, fb.schema);
      const size_t allocations =
          CountAllocations([&] { return ParseDatalog(text, fb.schema); });
      EXPECT_LE(allocations, q.atoms().size() + 4) << text;
      seed_total += CountAllocations(
          [&] { return test::oracle::SeedParseDatalog(text, fb.schema); });
      total += allocations;
      ++texts;
    }
  }
  ASSERT_GT(texts, 500u);
  std::printf("allocations per text over %zu texts: ParseDatalog %.2f, "
              "seed parser %.2f\n",
              texts, static_cast<double>(total) / texts,
              static_cast<double>(seed_total) / texts);
}

TEST(DatalogParserAllocTest, SpellingDoesNotAddAllocations) {
  // Whitespace, `∧`/AND joins, double quotes and a trailing period change
  // nothing about what the parser must build.
  const Schema schema = test::MakePaperSchema();
  for (const char* text : {
           "Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')",
           "Q2( x ) :−\tMeetings( x , y ) ∧ Contacts(y, w, \"Intern\") .",
           "Q2(x) :- Meetings(x, y) AND Contacts(y, w, -42)",
       }) {
    EXPECT_LE(CountAllocations([&] { return ParseDatalog(text, schema); }),
              2u + 4u)
        << text;
  }
  // A Boolean query has no head vector to allocate.
  EXPECT_LE(CountAllocations(
                [&] { return ParseDatalog("V() :- Meetings(x, y)", schema); }),
            1u + 3u);
}

}  // namespace
}  // namespace fdc::cq
