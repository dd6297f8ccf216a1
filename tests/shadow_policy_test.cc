// Shadow-policy mode (DisclosureEngine::SetShadowPolicy): the staged
// candidate must be decision-invisible — an engine with a shadow policy
// returns bit-identical decisions to one without, on the same stream —
// while its divergence counters match an oracle engine that runs the
// candidate as its *live* policy over the same per-principal streams. The
// same holds when decisions arrive as template submits over the wire,
// decided on labels resolved at registration.
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/policy_blob.h"
#include "common/rng.h"
#include "cq/printer.h"
#include "engine/disclosure_engine.h"
#include "engine/stats_json.h"
#include "label/pipeline.h"
#include "policy/policy.h"
#include "policy/reference_monitor.h"
#include "server/client.h"
#include "server/disclosure_server.h"
#include "test_util.h"
#include "workload/policy_generator.h"

namespace fdc {
namespace {

using test::FbFixture;
using test::RandomWorkload;

policy::SecurityPolicy GeneratePolicy(const label::ViewCatalog* catalog,
                                      uint64_t seed) {
  workload::PolicyOptions options;
  options.max_partitions = 5;
  options.max_elements_per_partition = 15;
  return workload::PolicyGenerator(catalog, options, seed).Next();
}

TEST(ShadowPolicyTest, DecisionInvisibleUnderRandomWorkload) {
  FbFixture fb;
  // Same live policy in both engines; one also stages a shadow candidate.
  engine::DisclosureEngine plain(/*db=*/nullptr, &fb.catalog,
                                 GeneratePolicy(&fb.catalog, 5));
  engine::DisclosureEngine shadowed(/*db=*/nullptr, &fb.catalog,
                                    GeneratePolicy(&fb.catalog, 5));
  shadowed.SetShadowPolicy(GeneratePolicy(&fb.catalog, 1234), "candidate");
  ASSERT_TRUE(shadowed.ShadowEnabled());

  const auto pool = RandomWorkload(&fb.schema, 2, 600, 0x5ad0ULL);
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::string principal = "app-" + std::to_string(i % 9);
    EXPECT_EQ(plain.Submit(principal, pool[i]),
              shadowed.Submit(principal, pool[i]))
        << "query " << i;
  }
  // Live counters match too: shadow evaluation must not leak into them.
  const auto a = plain.Stats();
  const auto b = shadowed.Stats();
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(b.shadow.evaluated, pool.size());
  EXPECT_EQ(b.shadow.evaluated,
            b.shadow.agree + b.shadow.shadow_stricter + b.shadow.shadow_looser);
}

TEST(ShadowPolicyTest, DivergenceCountsMatchOracleEngine) {
  FbFixture fb;
  const policy::SecurityPolicy live = GeneratePolicy(&fb.catalog, 5);
  const policy::SecurityPolicy candidate = GeneratePolicy(&fb.catalog, 1234);

  engine::DisclosureEngine shadowed(/*db=*/nullptr, &fb.catalog, live);
  shadowed.SetShadowPolicy(candidate, "candidate");
  // Oracle: the candidate as the live policy of an independent engine fed
  // the identical per-principal streams — its decisions are exactly what
  // shadow evaluation should have computed.
  engine::DisclosureEngine oracle(/*db=*/nullptr, &fb.catalog, candidate);
  engine::DisclosureEngine live_only(/*db=*/nullptr, &fb.catalog, live);

  const auto pool = RandomWorkload(&fb.schema, 2, 600, 0xd143ULL);
  uint64_t want_agree = 0, want_stricter = 0, want_looser = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    const std::string principal = "app-" + std::to_string(i % 9);
    const bool live_decision = shadowed.Submit(principal, pool[i]);
    EXPECT_EQ(live_decision, live_only.Submit(principal, pool[i]));
    const bool shadow_decision = oracle.Submit(principal, pool[i]);
    if (live_decision == shadow_decision) {
      ++want_agree;
    } else if (live_decision) {
      ++want_stricter;
    } else {
      ++want_looser;
    }
  }

  const auto stats = shadowed.Stats();
  EXPECT_TRUE(stats.shadow.enabled);
  EXPECT_EQ(stats.shadow.policy_name, "candidate");
  EXPECT_EQ(stats.shadow.evaluated, pool.size());
  EXPECT_EQ(stats.shadow.agree, want_agree);
  EXPECT_EQ(stats.shadow.shadow_stricter, want_stricter);
  EXPECT_EQ(stats.shadow.shadow_looser, want_looser);
  // The two seeds genuinely diverge — a vacuous all-agree run would prove
  // nothing about the per-direction counters.
  EXPECT_GT(want_stricter + want_looser, 0u);
}

TEST(ShadowPolicyTest, BatchAndCoalescedPathsCountShadowDecisions) {
  FbFixture fb;
  const policy::SecurityPolicy live = GeneratePolicy(&fb.catalog, 5);
  const policy::SecurityPolicy candidate = GeneratePolicy(&fb.catalog, 1234);
  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, live);
  engine.SetShadowPolicy(candidate, "candidate");

  // Duplicate-heavy stream: 60 distinct queries, each sent three times in
  // a scattered order (7 is coprime with 60), so repeats of an accepted
  // label and of a refused one both recur after the state has narrowed.
  const auto pool = RandomWorkload(&fb.schema, 2, 60, 0xbadcULL);
  std::vector<cq::ConjunctiveQuery> stream;
  for (size_t k = 0; k < 3 * pool.size(); ++k) {
    stream.push_back(pool[(k * 7) % pool.size()]);
  }
  const size_t batch_len = 60;
  std::vector<std::string> principal_of(stream.size(), "batch-app");
  for (size_t i = batch_len; i < stream.size(); ++i) {
    principal_of[i] = "coalesced-" + std::to_string(i % 3);
  }

  std::vector<bool> got = engine.SubmitBatch(
      "batch-app", std::span(stream.data(), batch_len));
  std::vector<engine::DisclosureEngine::SubmitRequest> requests;
  for (size_t i = batch_len; i < stream.size(); ++i) {
    requests.push_back({principal_of[i], &stream[i]});
  }
  std::vector<bool> coalesced;
  engine.SubmitCoalesced(requests, &coalesced);
  ASSERT_EQ(coalesced.size(), stream.size() - batch_len);
  got.insert(got.end(), coalesced.begin(), coalesced.end());

  // Oracle: seed labels through sequential seed-monitor Submit, once under
  // the live policy and once under the candidate, per principal.
  label::LabelingPipeline seed(&fb.catalog);
  const policy::ReferenceMonitor live_monitor(&live);
  const policy::ReferenceMonitor shadow_monitor(&candidate);
  std::map<std::string, policy::PrincipalState> live_state, shadow_state;
  uint64_t accepted = 0, agree = 0, stricter = 0, looser = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const label::DisclosureLabel label = seed.Label(stream[i]);
    auto [lit, lnew] = live_state.try_emplace(principal_of[i]);
    if (lnew) lit->second = live_monitor.InitialState();
    auto [sit, snew] = shadow_state.try_emplace(principal_of[i]);
    if (snew) sit->second = shadow_monitor.InitialState();
    const bool want = live_monitor.Submit(&lit->second, label);
    const bool shadow = shadow_monitor.Submit(&sit->second, label);
    EXPECT_EQ(got[i], want) << "decision " << i;
    accepted += want ? 1 : 0;
    if (shadow == want) {
      ++agree;
    } else if (want) {
      ++stricter;
    } else {
      ++looser;
    }
  }
  // The stream must exercise both outcomes, or the check proves little.
  ASSERT_GT(accepted, 0u);
  ASSERT_LT(accepted, stream.size());
  for (const auto& [principal, state] : live_state) {
    EXPECT_EQ(engine.ConsistentPartitions(principal), state.consistent)
        << principal;
  }

  const auto stats = engine.Stats();
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.refused, stream.size() - accepted);
  EXPECT_EQ(stats.shadow.evaluated, stream.size());
  EXPECT_EQ(stats.shadow.agree, agree);
  EXPECT_EQ(stats.shadow.shadow_stricter, stricter);
  EXPECT_EQ(stats.shadow.shadow_looser, looser);
}

TEST(ShadowPolicyTest, ClearStopsEvaluationAndKeepsCounters) {
  FbFixture fb;
  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog,
                                  GeneratePolicy(&fb.catalog, 5));
  engine.SetShadowPolicy(GeneratePolicy(&fb.catalog, 1234), "candidate");
  const auto pool = RandomWorkload(&fb.schema, 2, 50, 0xc1eaULL);
  for (const auto& q : pool) (void)engine.Submit("app", q);
  const uint64_t evaluated = engine.Stats().shadow.evaluated;
  EXPECT_EQ(evaluated, pool.size());

  engine.ClearShadowPolicy();
  EXPECT_FALSE(engine.ShadowEnabled());
  for (const auto& q : pool) (void)engine.Submit("app", q);
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.shadow.evaluated, evaluated);  // no new evaluations
  EXPECT_FALSE(stats.shadow.enabled);
  EXPECT_TRUE(stats.shadow.policy_name.empty());
}

TEST(ShadowPolicyTest, ReplacingShadowResetsItsPrincipalState) {
  FbFixture fb;
  const policy::SecurityPolicy candidate = GeneratePolicy(&fb.catalog, 1234);
  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog,
                                  GeneratePolicy(&fb.catalog, 5));
  const uint64_t first = engine.SetShadowPolicy(candidate, "one");
  const auto pool = RandomWorkload(&fb.schema, 2, 100, 0x4e57ULL);
  for (const auto& q : pool) (void)engine.Submit("app", q);

  // Re-staging the same candidate restarts its per-principal narrowing:
  // replaying the stream yields the same shadow decisions as the first
  // pass (oracle check), not decisions against already-narrowed state.
  const uint64_t second = engine.SetShadowPolicy(candidate, "two");
  EXPECT_GT(second, first);
  engine::DisclosureEngine oracle(/*db=*/nullptr, &fb.catalog, candidate);
  // The live engine's state has narrowed, so compute expectations per
  // decision as the replay happens; the shadow side must behave like the
  // fresh oracle, not like a continuation of the first pass's narrowing.
  const auto before = engine.Stats().shadow;
  uint64_t want_agree = 0, want_stricter = 0, want_looser = 0;
  for (const auto& q : pool) {
    const bool live_decision = engine.Submit("app", q);
    const bool shadow_decision = oracle.Submit("app", q);
    if (live_decision == shadow_decision) {
      ++want_agree;
    } else if (live_decision) {
      ++want_stricter;
    } else {
      ++want_looser;
    }
  }
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.shadow.policy_name, "two");
  EXPECT_EQ(stats.shadow.evaluated - before.evaluated, pool.size());
  EXPECT_EQ(stats.shadow.agree - before.agree, want_agree);
  EXPECT_EQ(stats.shadow.shadow_stricter - before.shadow_stricter,
            want_stricter);
  EXPECT_EQ(stats.shadow.shadow_looser - before.shadow_looser, want_looser);
}

TEST(ShadowPolicyTest, BlobStagedShadowUsesArtifactName) {
  FbFixture fb;
  artifact::PolicyBlobMeta meta;
  meta.name = "staged-from-blob";
  Result<std::vector<uint8_t>> bytes = artifact::CompilePolicyBlob(
      fb.catalog, GeneratePolicy(&fb.catalog, 1234), meta);
  ASSERT_TRUE(bytes.ok());
  Result<artifact::LoadedPolicyBlob> blob = artifact::LoadPolicyBlob(*bytes);
  ASSERT_TRUE(blob.ok());

  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog,
                                  GeneratePolicy(&fb.catalog, 5));
  Result<uint64_t> epoch = engine.SetShadowPolicy(*blob);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_TRUE(engine.ShadowEnabled());
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.shadow.policy_name, "staged-from-blob");
  EXPECT_EQ(stats.shadow.epoch, *epoch);
  // And the whole document stays valid JSON with the name in place.
  const std::string json = engine::StatsToJson(stats);
  EXPECT_NE(json.find("\"policy_name\":\"staged-from-blob\""),
            std::string::npos)
      << json;
}

TEST(ShadowPolicyTest, ShadowAgainstItselfAlwaysAgrees) {
  FbFixture fb;
  const policy::SecurityPolicy live = GeneratePolicy(&fb.catalog, 5);
  engine::DisclosureEngine engine(/*db=*/nullptr, &fb.catalog, live);
  engine.SetShadowPolicy(live, "self");
  const auto pool = RandomWorkload(&fb.schema, 2, 300, 0x5e1fULL);
  for (size_t i = 0; i < pool.size(); ++i) {
    (void)engine.Submit("app-" + std::to_string(i % 5), pool[i]);
  }
  const auto stats = engine.Stats();
  EXPECT_EQ(stats.shadow.evaluated, pool.size());
  EXPECT_EQ(stats.shadow.agree, pool.size());
  EXPECT_EQ(stats.shadow.shadow_stricter, 0u);
  EXPECT_EQ(stats.shadow.shadow_looser, 0u);
}

// Submit-by-id over the wire decides on each template's registration-time
// label; with a shadow policy staged (then replaced, then joined by a live
// UpdatePolicy) the decisions, epochs and shadow agree / stricter / looser
// counts must equal a twin engine that relabels every query in Submit.
TEST(ShadowPolicyTest, TemplateSubmitsMatchTwinEngineUnderShadow) {
  FbFixture fb;
  const policy::SecurityPolicy live = GeneratePolicy(&fb.catalog, 5);
  const policy::SecurityPolicy live_b = GeneratePolicy(&fb.catalog, 6);
  const policy::SecurityPolicy candidate = GeneratePolicy(&fb.catalog, 1234);
  const policy::SecurityPolicy candidate_b = GeneratePolicy(&fb.catalog, 77);
  const auto pool = RandomWorkload(&fb.schema, 2, 40, 0x5d1dULL);
  // A quarter of the pool is frozen; the rest is labeled into the overlay
  // when the first connection registers it.
  const std::span<const cq::ConjunctiveQuery> warm(pool.data(),
                                                   pool.size() / 4);
  engine::DisclosureEngine served(/*db=*/nullptr, &fb.catalog, live, {}, warm);
  engine::DisclosureEngine twin(/*db=*/nullptr, &fb.catalog, live, {}, warm);
  served.SetShadowPolicy(candidate, "candidate");
  twin.SetShadowPolicy(candidate, "candidate");
  server::DisclosureServer srv(&served, server::ServerOptions{});
  ASSERT_TRUE(srv.Start().ok());

  constexpr int kClients = 3;
  std::vector<server::BlockingClient> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients[c]
                    .Connect("127.0.0.1", srv.port(),
                             "shadow-" + std::to_string(c))
                    .ok());
    for (size_t t = 0; t < pool.size(); ++t) {
      ASSERT_TRUE(clients[c]
                      .RegisterTemplate(static_cast<uint32_t>(t),
                                        cq::ToDatalog(pool[t], fb.schema))
                      .ok());
    }
  }

  Rng rng(0x5bad0ULL);
  constexpr int kRounds = 6;
  constexpr int kPerRound = 20;
  for (int round = 0; round < kRounds; ++round) {
    if (round == 2) {
      served.SetShadowPolicy(candidate_b, "candidate-b");
      twin.SetShadowPolicy(candidate_b, "candidate-b");
    }
    if (round == 4) {
      served.UpdatePolicy(live_b);
      twin.UpdatePolicy(live_b);
    }
    std::vector<std::vector<size_t>> sent(kClients);
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerRound; ++i) {
        sent[c].push_back(rng.Below(pool.size()));
        clients[c].QueueSubmit(static_cast<uint32_t>(sent[c].back()));
      }
      ASSERT_TRUE(clients[c].Flush().ok());
    }
    for (int c = 0; c < kClients; ++c) {
      const std::string principal = "shadow-" + std::to_string(c);
      for (size_t i = 0; i < sent[c].size(); ++i) {
        server::ClientResponse resp;
        ASSERT_TRUE(clients[c].ReadResponse(&resp).ok());
        ASSERT_EQ(resp.type, server::FrameType::kDecision);
        const uint64_t epoch = twin.Snapshot()->epoch();
        EXPECT_EQ(resp.allow, twin.Submit(principal, pool[sent[c][i]]))
            << "round " << round << " client " << c << " frame " << i;
        EXPECT_EQ(resp.epoch, epoch);
      }
    }
  }

  const auto got = served.Stats();
  const auto want = twin.Stats();
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.refused, want.refused);
  EXPECT_EQ(got.shadow.policy_name, "candidate-b");
  EXPECT_EQ(got.shadow.evaluated, uint64_t{kRounds} * kPerRound * kClients);
  EXPECT_EQ(got.shadow.evaluated, want.shadow.evaluated);
  EXPECT_EQ(got.shadow.agree, want.shadow.agree);
  EXPECT_EQ(got.shadow.shadow_stricter, want.shadow.shadow_stricter);
  EXPECT_EQ(got.shadow.shadow_looser, want.shadow.shadow_looser);
  EXPECT_GT(got.shadow.shadow_stricter + got.shadow.shadow_looser, 0u);
  EXPECT_EQ(srv.stats().prelabeled_decisions, got.shadow.evaluated);
  srv.Stop();
}

}  // namespace
}  // namespace fdc
