#include "config/config.h"

#include <gtest/gtest.h>

#include "label/pipeline.h"
#include "policy/reference_monitor.h"
#include "test_util.h"

namespace fdc::config {
namespace {

constexpr const char* kAliceConfig = R"(
# Alice's calendar deployment (Figure 1)
relation Meetings(time, person)
relation Contacts(person, email, position)

view meetings_full: V(x, y) :- Meetings(x, y)
view meeting_times: V(x) :- Meetings(x, y)
view contacts_full: V(x, y, z) :- Contacts(x, y, z)

policy alice {
  partition meetings_side: meetings_full, meeting_times
  partition contacts_side: contacts_full
}

policy open {
  partition all: meetings_full, contacts_full
}
)";

TEST(ConfigTest, ParsesFullDocument) {
  auto config = ParseConfig(kAliceConfig);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ((*config)->schema->NumRelations(), 2);
  EXPECT_EQ((*config)->catalog->size(), 3);
  EXPECT_EQ((*config)->policies.size(), 2u);
  const policy::SecurityPolicy* alice = (*config)->FindPolicy("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->num_partitions(), 2);
  EXPECT_EQ((*config)->FindPolicy("nope"), nullptr);
}

TEST(ConfigTest, ParsedPolicyEnforces) {
  auto config = ParseConfig(kAliceConfig);
  ASSERT_TRUE(config.ok());
  DisclosureConfig& c = **config;
  label::LabelerPipeline pipeline(c.catalog.get());
  policy::ReferenceMonitor monitor(c.FindPolicy("alice"));
  policy::PrincipalState state = monitor.InitialState();
  EXPECT_TRUE(monitor.Submit(
      &state,
      pipeline.LabelPacked(test::Q("Q(x) :- Meetings(x, y)", *c.schema))));
  EXPECT_FALSE(monitor.Submit(
      &state,
      pipeline.LabelPacked(test::Q("Q(x) :- Contacts(x, y, z)", *c.schema))));
}

TEST(ConfigTest, RoundTrip) {
  auto config = ParseConfig(kAliceConfig);
  ASSERT_TRUE(config.ok());
  const std::string written = WriteConfig(**config);
  auto reparsed = ParseConfig(written);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << written;
  EXPECT_EQ((*reparsed)->schema->NumRelations(), 2);
  EXPECT_EQ((*reparsed)->catalog->size(), 3);
  EXPECT_EQ((*reparsed)->policies.size(), 2u);
  // Semantic equality of views: identical patterns.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*config)->catalog->view(i).pattern,
              (*reparsed)->catalog->view(i).pattern)
        << (*config)->catalog->view(i).name;
  }
  // Idempotent writer.
  EXPECT_EQ(written, WriteConfig(**reparsed));
}

TEST(ConfigTest, CommentsAndBlankLines) {
  auto config = ParseConfig(
      "# leading comment\n\nrelation R(a, b)  # trailing comment\n"
      "view v: V(x) :- R(x, y)\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ((*config)->catalog->size(), 1);
}

TEST(ConfigTest, ErrorsCarryLineNumbers) {
  auto config = ParseConfig("relation R(a, b)\nbogus directive\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, RejectsUnknownViewInPartition) {
  auto config = ParseConfig(
      "relation R(a, b)\nview v: V(x) :- R(x, y)\n"
      "policy p {\n  partition w: nonexistent\n}\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("nonexistent"), std::string::npos);
}

TEST(ConfigTest, RejectsUnterminatedPolicy) {
  auto config = ParseConfig(
      "relation R(a, b)\nview v: V(x) :- R(x, y)\n"
      "policy p {\n  partition w: v\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("unterminated"), std::string::npos);
}

TEST(ConfigTest, RejectsEmptyPolicy) {
  auto config = ParseConfig(
      "relation R(a, b)\nview v: V(x) :- R(x, y)\npolicy p {\n}\n");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigTest, RejectsDuplicatePolicy) {
  auto config = ParseConfig(
      "relation R(a, b)\nview v: V(x) :- R(x, y)\n"
      "policy p {\n  partition w: v\n}\n"
      "policy p {\n  partition w: v\n}\n");
  EXPECT_FALSE(config.ok());
}

TEST(ConfigTest, RejectsMalformedRelation) {
  EXPECT_FALSE(ParseConfig("relation R a, b\n").ok());
  EXPECT_FALSE(ParseConfig("relation R()\n").ok());
  EXPECT_FALSE(ParseConfig("relation R(a,,b)\n").ok());
}

TEST(ConfigTest, RejectsBadViewDefinition) {
  // Unknown relation inside the Datalog body.
  auto config = ParseConfig("relation R(a, b)\nview v: V(x) :- S(x)\n");
  EXPECT_FALSE(config.ok());
  // Multi-atom security views are rejected by the catalog.
  auto multi = ParseConfig(
      "relation R(a, b)\nview v: V(x) :- R(x, y), R(y, z)\n");
  EXPECT_FALSE(multi.ok());
}

TEST(ConfigTest, RejectsUnmatchedBrace) {
  EXPECT_FALSE(ParseConfig("relation R(a, b)\n}\n").ok());
}

TEST(ConfigTest, MissingColonInView) {
  EXPECT_FALSE(ParseConfig("relation R(a, b)\nview v V(x) :- R(x, y)\n").ok());
}

// A view constant containing ' is written in double quotes, so the written
// config reads back.
TEST(ConfigTest, ApostropheConstantRoundTrips) {
  auto config = ParseConfig(
      "relation R(a, b)\n"
      "view quoted: V(x) :- R(x, \"it's\")\n"
      "view spaced: V(x) :- R(x, 'a, \"b\" c')\n"
      "policy p {\n  partition all: quoted, spaced\n}\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const std::string written = WriteConfig(**config);
  auto reparsed = ParseConfig(written);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << written;
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ((*config)->catalog->view(i).pattern,
              (*reparsed)->catalog->view(i).pattern)
        << (*config)->catalog->view(i).name;
  }
  EXPECT_EQ(WriteConfig(**reparsed), written);
}

// '#' starts a comment only outside a quoted constant, under the Datalog
// grammar's quoting (no escapes: 'a\' is the value a\ and closes there).
TEST(ConfigTest, HashInsideConstantIsNotAComment) {
  auto config = ParseConfig(
      "relation R(a, b)  # trailing comment\n"
      "view hashed: V(x) :- R(x, 'a#b')  # it's a comment\n"
      "view dq: V(x) :- R(x, \"it's #1\") # comment 'with quotes'\n"
      "view slash: V(x) :- R(x, 'a\\') # comment\n"
      "policy p {  # comment\n  partition all: hashed, dq, slash # x\n}\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const label::ViewCatalog& catalog = *(*config)->catalog;
  ASSERT_EQ(catalog.views().size(), 3u);
  EXPECT_EQ(catalog.view(0).pattern.terms[1].value, "a#b");
  EXPECT_EQ(catalog.view(1).pattern.terms[1].value, "it's #1");
  EXPECT_EQ(catalog.view(2).pattern.terms[1].value, "a\\");

  const std::string written = WriteConfig(**config);
  auto reparsed = ParseConfig(written);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << written;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(catalog.view(i).pattern, (*reparsed)->catalog->view(i).pattern)
        << catalog.view(i).name;
  }
  EXPECT_EQ(WriteConfig(**reparsed), written);

  // A comment after the constant is still stripped: its own quote never
  // opens a constant, so the line parses.
  auto trailing = ParseConfig(
      "relation R(a, b)\nview v: V(x) :- R(x, 'a#b') # don't parse 'me\n");
  ASSERT_TRUE(trailing.ok()) << trailing.status().ToString();
  EXPECT_EQ((*trailing)->catalog->view(0).pattern.terms[1].value, "a#b");
}

TEST(ConfigTest, FacebookScaleConfigRoundTrips) {
  // Build a config programmatically from the fb module and round-trip it.
  auto config = std::make_unique<DisclosureConfig>();
  config->schema = std::make_unique<cq::Schema>();
  *config->schema = fdc::test::MakePaperSchema();
  config->catalog =
      std::make_unique<label::ViewCatalog>(config->schema.get());
  ASSERT_TRUE(
      config->catalog->AddViewText("v1", "V(x, y) :- Meetings(x, y)").ok());
  auto policy = policy::SecurityPolicy::Compile(
      *config->catalog, {{"p0", {0}}});
  ASSERT_TRUE(policy.ok());
  config->policies.emplace_back("only", std::move(*policy));

  const std::string written = WriteConfig(*config);
  auto reparsed = ParseConfig(written);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << written;
  EXPECT_EQ(WriteConfig(**reparsed), written);
}

}  // namespace
}  // namespace fdc::config
