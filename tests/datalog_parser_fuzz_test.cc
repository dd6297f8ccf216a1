// Seeded differential fuzz of cq::ParseDatalog against the seed parser kept
// in tests/oracle/seed_datalog_parser.*.
//
// For every input both parsers must agree on ok(); on success they must
// build the same AST (operator==, name(), variable numbering), and on
// failure return the same StatusCode and message. Each parse is also held
// to a per-input time bound. Inputs: §7.2 workload queries (1-5 joined
// subqueries) rendered with randomized spelling — whitespace, `∧`/`AND`/
// `and` joins, `:−`, trailing `.`, both quote kinds, negative and bare `-`
// numbers — then every truncation prefix, single-byte mutations and random
// bytes (including >= 0x80). The perfbench oracle parses with the library's
// own parser, so this suite is what catches a parser regression.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "cq/datalog_parser.h"
#include "cq/printer.h"
#include "oracle/seed_datalog_parser.h"
#include "test_util.h"

namespace fdc::cq {
namespace {

// Generous for sanitizer builds; a parse is microseconds in Release.
constexpr auto kMaxParseTime = std::chrono::milliseconds(50);

std::string Printable(std::string_view text) {
  std::string out;
  for (const char c : text.substr(0, 240)) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  if (text.size() > 240) out += "...";
  return out;
}

class Differential {
 public:
  explicit Differential(const Schema* schema) : schema_(schema) {}

  ::testing::AssertionResult Check(std::string_view text) {
    const auto start = std::chrono::steady_clock::now();
    Result<ConjunctiveQuery> got = ParseDatalog(text, *schema_);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    Result<ConjunctiveQuery> want =
        test::oracle::SeedParseDatalog(text, *schema_);
    ++checked_;
    auto fail = [&]() {
      return ::testing::AssertionFailure() << "input \"" << Printable(text)
                                           << "\": ";
    };
    if (elapsed > kMaxParseTime) {
      return fail() << "parse took "
                    << std::chrono::duration_cast<std::chrono::microseconds>(
                           elapsed)
                           .count()
                    << " us";
    }
    if (got.ok() != want.ok()) {
      return fail() << "ok() " << got.ok() << " vs oracle " << want.ok()
                    << " (" << (got.ok() ? want : got).status().ToString()
                    << ")";
    }
    if (!got.ok()) {
      if (got.status().code() != want.status().code() ||
          got.status().message() != want.status().message()) {
        return fail() << "status " << got.status().ToString()
                      << " vs oracle " << want.status().ToString();
      }
      return ::testing::AssertionSuccess();
    }
    ++accepted_;
    if (!(*got == *want) || got->name() != want->name() ||
        got->MaxVarId() != want->MaxVarId() ||
        got->DistinguishedVars() != want->DistinguishedVars()) {
      return fail() << "AST " << ToDatalog(*got, *schema_) << " vs oracle "
                    << ToDatalog(*want, *schema_);
    }
    return ::testing::AssertionSuccess();
  }

  int checked() const { return checked_; }
  int accepted() const { return accepted_; }

 private:
  const Schema* schema_;
  int checked_ = 0;
  int accepted_ = 0;
};

template <typename T, size_t N>
const T& Pick(Rng* rng, const T (&items)[N]) {
  return items[rng->Below(N)];
}

// Renders a query in a randomized but (mostly) valid Datalog spelling.
class Renderer {
 public:
  Renderer(const Schema* schema, Rng* rng) : schema_(schema), rng_(rng) {}

  std::string Render(const ConjunctiveQuery& q) {
    static constexpr const char* kPrefixes[] = {"v", "x", "Var", "_",
                                                "and", "AND", "z9"};
    var_names_.clear();
    for (int v = 0; v <= q.MaxVarId(); ++v) {
      var_names_.push_back(std::string(Pick(rng_, kPrefixes)) + "_" +
                           std::to_string(v));
    }
    std::string out = Space();
    out += rng_->Chance(0.5) ? q.name() : "Head_1";
    out += Space() + "(";
    for (size_t i = 0; i < q.head().size(); ++i) {
      if (i > 0) out += Space() + ",";
      out += Space() + var_names_[q.head()[i].var()];
    }
    out += Space() + ")" + Space();
    out += rng_->Chance(0.3) ? ":−" : ":-";
    for (size_t i = 0; i < q.atoms().size(); ++i) {
      if (i > 0) out += Join();
      const Atom& a = q.atoms()[i];
      out += Space() + schema_->FindById(a.relation)->name + Space() + "(";
      for (size_t j = 0; j < a.terms.size(); ++j) {
        if (j > 0) out += Space() + ",";
        out += Space() + TermText(a.terms[j]);
      }
      out += Space() + ")";
    }
    static constexpr const char* kTails[] = {"", "", ".", " .", ". ", "\n"};
    return out + Space() + Pick(rng_, kTails);
  }

 private:
  std::string Space() {
    static constexpr const char* kSpaces[] = {"", "", "", " ", "  ", "\t",
                                              "\n", "\r\n", "\v", "\f"};
    return Pick(rng_, kSpaces);
  }

  std::string Join() {
    static constexpr const char* kJoins[] = {",", ", ", " ∧ ", "∧", " AND ",
                                             " and ", " And ", "\tAND\n"};
    return Pick(rng_, kJoins);
  }

  std::string TermText(const Term& t) {
    if (t.is_var()) {
      // Occasionally a numeric literal stands in for a variable.
      static constexpr const char* kNumbers[] = {"-5", "-", "42", "0", "007",
                                                 "-0"};
      if (rng_->Chance(0.05)) return Pick(rng_, kNumbers);
      return var_names_[t.var()];
    }
    static constexpr const char* kValues[] = {
        "it's", "say \"hi\"", "x, y", " spaced ", "", "(paren)", "∧",
        "caf\xc3\xa9", "AND", "-12"};
    const std::string value =
        rng_->Chance(0.2) ? std::string(Pick(rng_, kValues)) : t.value();
    const bool has_single = value.find('\'') != std::string::npos;
    const bool has_double = value.find('"') != std::string::npos;
    char quote = rng_->Chance(0.5) ? '\'' : '"';
    if (has_single && !has_double) quote = '"';
    if (has_double && !has_single) quote = '\'';
    return quote + value + quote;
  }

  const Schema* schema_;
  Rng* rng_;
  std::vector<std::string> var_names_;
};

std::vector<std::string> RenderedSamples(const Schema* schema, int per_size,
                                         uint64_t seed) {
  Rng rng(seed);
  Renderer renderer(schema, &rng);
  std::vector<std::string> out;
  for (int subqueries = 1; subqueries <= 5; ++subqueries) {
    for (const ConjunctiveQuery& q : test::RandomWorkload(
             schema, subqueries, per_size, seed + subqueries)) {
      out.push_back(ToDatalog(q, *schema));
      out.push_back(renderer.Render(q));
    }
  }
  return out;
}

class DatalogParserFuzzTest : public ::testing::Test {
 protected:
  test::FbFixture fb_;
  Differential diff_{&fb_.schema};
};

TEST_F(DatalogParserFuzzTest, HandWrittenEdgeCases) {
  const Schema paper = test::MakePaperSchema();
  Differential paper_diff(&paper);
  const char* kCases[] = {
      "", " ", "Q", "Q(", "Q()", "Q() :-", "Q() :- ", "Q(x)",
      "Q(x) :- Meetings(x, y)", "Q(x) :- Meetings(x, y).",
      "Q(x) :- Meetings(x, y) . ", "Q(x) :- Meetings(x, y)..",
      "Q(x):-Meetings(x,y),Contacts(y,w,'Intern')",
      "Q(x) :− Meetings(x, y) ∧ Contacts(y, w, \"Intern\")",
      "Q(x) :- Meetings(x, y) and Contacts(y, w, z)",
      "Q(x) :- Meetings(x, y) ANDContacts(y, w, z)",
      "Q(x) :- Meetings(x, y) AND", "Q(x) :- Meetings(x, y),",
      "Q(x) :- Meetings(x, -)", "Q(x) :- Meetings(x, -7)",
      "Q(x) :- Meetings(x, --7)", "Q(x) :- Meetings(x, 7abc)",
      "Q(x) :- Meetings(x, 'it''s')", "Q(x) :- Meetings(x, \"it's\")",
      "Q(x) :- Meetings(x, 'oops", "Q('a') :- Meetings(x, y)",
      "Q(\"a) :- Meetings(x, y)", "Q(5) :- Meetings(x, y)",
      "Q(-) :- Meetings(x, y)", "Q(z) :- Meetings(x, y)",
      "Q(x, x) :- Meetings(x, x)", "Q(x, y) :- Meetings(x, z)",
      "Q(x) :- Nope(x)", "Q(x) :- Meetings(x)", "Q(x) :- Meetings(x, y, z)",
      "Q(x) :- Meetings()", "Q(x) :- Meetings(x, y) garbage",
      "Q(x) :- Meetings(x, y) , , Contacts(y, w, z)",
      "Q(x) :- Meetings(x y)", "Q(x) :- Meetings(x, y", "Q(x) :- (x, y)",
      "Q(x) - Meetings(x, y)", "Q(x) :: Meetings(x, y)",
      "Q(x) :- Meetings(x, \xc3\xa9)", "Q(\xc3\xa9) :- Meetings(x, y)",
      "\xc3\xa9(x) :- Meetings(x, y)", "Q(x) :- Meetings(x, y)\xe2\x88",
      "Q(x) :\xe2\x88\x92 Meetings(x, y)", "_(_) :- Meetings(_, _1)",
      "Q(x)\v:-\fMeetings(\tx,\ry\n)\n",
  };
  for (const char* text : kCases) {
    ASSERT_TRUE(paper_diff.Check(text));
  }
  EXPECT_GT(paper_diff.accepted(), 8);
}

TEST_F(DatalogParserFuzzTest, RenderedWorkloadQueriesAgree) {
  const std::vector<std::string> samples =
      RenderedSamples(&fb_.schema, 200, 0xda7a1095ULL);
  for (const std::string& text : samples) {
    ASSERT_TRUE(diff_.Check(text));
  }
  // The renderer's spellings are valid except for rare join typos, so most
  // samples must parse: this is a differential over ASTs, not just errors.
  EXPECT_GT(diff_.accepted(), diff_.checked() * 3 / 4);
}

TEST_F(DatalogParserFuzzTest, EveryTruncationPrefixAgrees) {
  const std::vector<std::string> samples =
      RenderedSamples(&fb_.schema, 4, 0x7e1c0ULL);
  for (const std::string& text : samples) {
    for (size_t len = 0; len <= text.size(); ++len) {
      ASSERT_TRUE(diff_.Check(std::string_view(text).substr(0, len)));
    }
  }
}

TEST_F(DatalogParserFuzzTest, SingleByteMutationsAgree) {
  const std::vector<std::string> samples =
      RenderedSamples(&fb_.schema, 20, 0x5b1e5ULL);
  static constexpr char kInteresting[] = {
      '(', ')', ',', '\'', '"', '-', ':', '.', ' ', '\t', '_', 'A',
      'a', '0', '9', '\0', '\x80', '\xe2', '\xff', '\x7f'};
  Rng rng(0x3117a7eULL);
  for (const std::string& text : samples) {
    for (int trial = 0; trial < 40; ++trial) {
      std::string mutated = text;
      const size_t at = rng.Below(mutated.size() + 1);
      const char byte = rng.Chance(0.5) ? Pick(&rng, kInteresting)
                                        : static_cast<char>(rng.Below(256));
      switch (rng.Below(3)) {
        case 0:  // overwrite
          if (at < mutated.size()) mutated[at] = byte;
          break;
        case 1:  // insert
          mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(at), byte);
          break;
        default:  // delete
          if (at < mutated.size()) mutated.erase(at, 1);
          break;
      }
      ASSERT_TRUE(diff_.Check(mutated));
    }
  }
}

TEST_F(DatalogParserFuzzTest, RandomBytesAgree) {
  Rng rng(0xb17e5ULL);
  static constexpr char kTokenBytes[] = "QWMR()(),,,'\"-:-. _xyz0123 \t\n";
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text(rng.Below(200), '\0');
    const bool tokens = trial % 2 == 0;
    for (char& c : text) {
      c = tokens ? Pick(&rng, kTokenBytes) : static_cast<char>(rng.Below(256));
    }
    // Half the token-alphabet trials start from a valid head and arrow, so
    // the body parser sees the noise.
    if (tokens && trial % 4 == 0) text = "Q(x) :- Friend(" + text;
    ASSERT_TRUE(diff_.Check(text));
  }
}

TEST_F(DatalogParserFuzzTest, LongInputsAgreeAndErrorsStayBounded) {
  // Many distinct variables (the variable table outgrows its inline
  // slots), a very long identifier, and a long malformed tail: the AST or
  // error must match, and an error message must quote only an excerpt.
  std::string wide = "Q(a0) :- ";
  for (int i = 0; i < 400; ++i) {
    if (i > 0) wide += ", ";
    wide += "Friend(a" + std::to_string(i) + ", b" + std::to_string(i) +
            ", 'r')";
  }
  ASSERT_TRUE(diff_.Check(wide));
  const std::string long_ident =
      "Q(x) :- " + std::string(100000, 'R') + "(x)";
  const std::string long_tail =
      "Q(x) :- Friend(x, y, z) " + std::string(100000, '!');
  for (const std::string& text : {long_ident, long_tail}) {
    ASSERT_TRUE(diff_.Check(text));
    auto got = ParseDatalog(text, fb_.schema);
    ASSERT_FALSE(got.ok());
    EXPECT_LT(got.status().message().size(), 200u)
        << got.status().message().substr(0, 200);
  }
}

}  // namespace
}  // namespace fdc::cq
