#include "env.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "artifact/policy_blob.h"
#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "stats.h"
#include "workload/policy_generator.h"

namespace perfbench {

namespace {

constexpr uint64_t kCatalogSeed = 0xca7a'1065ULL;
constexpr uint64_t kWarmupSeed = 0x3a12'5eedULL;
constexpr uint64_t kPolicySeed = 0x9011'c1e5ULL;
constexpr size_t kWarmupPoolSize = 512;
// Synthetic view counts by relation popularity rank: the hottest relation
// gets 160 views (3 mask words), the next 80 (2 words), then a long tail.
// An assumption, not a published fan-out: 160 puts the hottest relations
// past 64 views (wide masks, the SIMD batch kernel), and 160/rank is an
// assumed harmonic tail.
constexpr int kSyntheticHead = 160;

}  // namespace

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

std::unique_ptr<Catalog> BuildCatalog(bool synthetic) {
  auto out = std::make_unique<Catalog>();
  out->schema = fdc::fb::BuildFacebookSchema();
  out->views = std::make_unique<fdc::label::ViewCatalog>(&out->schema);
  if (!fdc::fb::RegisterFacebookViews(out->views.get()).ok()) {
    Die("registering the Facebook views failed");
  }
  if (synthetic) {
    fdc::Rng rng(kCatalogSeed);
    const fdc::cq::Schema& schema = out->schema;
    const int friend_rel = schema.Find(fdc::fb::kFriend)->id;
    std::vector<int> relations;
    for (int r = 0; r < schema.NumRelations(); ++r) {
      if (r != friend_rel) relations.push_back(r);
    }
    for (size_t i = relations.size(); i > 1; --i) {
      std::swap(relations[i - 1], relations[rng.Below(i)]);
    }
    const char* audiences[] = {"", fdc::fb::kSelf, fdc::fb::kFriendRel};
    for (size_t rank = 0; rank < relations.size(); ++rank) {
      const int relation = relations[rank];
      const fdc::cq::RelationDef* def = schema.FindById(relation);
      const int uid = fdc::fb::OwnerUidIndex(schema, relation);
      const int viewer = fdc::fb::ViewerRelIndex(schema, relation);
      const int count = kSyntheticHead / static_cast<int>(rank + 1);
      for (int k = 0; k < count; ++k) {
        std::vector<std::string> attrs;
        for (int a = 0; a < def->arity(); ++a) {
          if (a != uid && a != viewer && rng.Chance(0.4)) {
            attrs.push_back(def->attributes[a]);
          }
        }
        auto view = fdc::fb::MakeProjectionView(schema, relation, attrs,
                                                audiences[rng.Below(3)]);
        const std::string name =
            "syn_" + def->name + "_" + std::to_string(k);
        if (!out->views->AddView(name, view).ok()) {
          Die("registering synthetic view " + name + " failed");
        }
        ++out->synthetic_views;
      }
    }
  }
  std::vector<int> per_relation(out->schema.NumRelations(), 0);
  for (int v = 0; v < out->views->size(); ++v) {
    ++per_relation[out->views->view(v).relation];
  }
  out->max_views_per_relation =
      *std::max_element(per_relation.begin(), per_relation.end());
  return out;
}

MixedQueryGenerator::MixedQueryGenerator(const fdc::cq::Schema* schema,
                                         uint64_t seed)
    : rng_(seed) {
  for (int subqueries = 1; subqueries <= 3; ++subqueries) {
    fdc::workload::GeneratorOptions options;
    options.subqueries = subqueries;
    generators_.emplace_back(schema, options, StreamSeed(seed, static_cast<uint64_t>(subqueries)));
  }
}

fdc::cq::ConjunctiveQuery MixedQueryGenerator::Next() {
  return generators_[rng_.Below(generators_.size())].Next();
}

std::vector<fdc::cq::ConjunctiveQuery> WarmupPool(const Catalog& catalog) {
  MixedQueryGenerator generator(&catalog.schema, kWarmupSeed);
  std::vector<fdc::cq::ConjunctiveQuery> pool;
  pool.reserve(kWarmupPoolSize);
  for (size_t i = 0; i < kWarmupPoolSize; ++i) pool.push_back(generator.Next());
  return pool;
}

std::vector<std::vector<uint8_t>> PolicyBlobs(const Catalog& catalog,
                                              int count) {
  fdc::workload::PolicyOptions options;
  options.max_partitions = 5;
  options.max_elements_per_partition = 15;
  fdc::workload::PolicyGenerator generator(catalog.views.get(), options,
                                           kPolicySeed);
  std::vector<std::vector<uint8_t>> blobs;
  for (int i = 0; i < count; ++i) {
    fdc::artifact::PolicyBlobMeta meta;
    meta.name = "policy-" + std::to_string(i);
    auto blob =
        fdc::artifact::CompilePolicyBlob(*catalog.views, generator.Next(), meta);
    if (!blob.ok()) Die("compiling policy blob: " + blob.status().ToString());
    blobs.push_back(std::move(blob).value());
  }
  return blobs;
}

fdc::policy::SecurityPolicy PolicyFromBlobOrDie(
    const std::vector<uint8_t>& blob) {
  auto loaded = fdc::artifact::LoadPolicyBlob(blob);
  if (!loaded.ok()) Die("loading policy blob: " + loaded.status().ToString());
  auto policy = fdc::artifact::PolicyFromBlob(loaded.value());
  if (!policy.ok()) Die("policy from blob: " + policy.status().ToString());
  return std::move(policy).value();
}

std::vector<Metric> EngineCounterMetrics(
    const fdc::engine::DisclosureEngine::EngineStats& before,
    const fdc::engine::DisclosureEngine::EngineStats& after,
    uint64_t fold_reuses) {
  auto frac = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const auto& l0 = before.labeler;
  const auto& l1 = after.labeler;
  const double labels = static_cast<double>(
      (l1.frozen_hits + l1.overlay_hits + l1.overlay_misses +
       l1.stateless_fallbacks) -
      (l0.frozen_hits + l0.overlay_hits + l0.overlay_misses +
       l0.stateless_fallbacks));
  const double decided = static_cast<double>(after.submitted - before.submitted);
  const double misses = static_cast<double>(l1.overlay_misses - l0.overlay_misses);
  const double mask_evals =
      static_cast<double>(l1.compiled_mask_evals - l0.compiled_mask_evals);
  const auto& p0 = before.principal_map;
  const auto& p1 = after.principal_map;
  return {
      {"labeler.frozen_hit_frac", frac(double(l1.frozen_hits - l0.frozen_hits), labels),
       "ratio"},
      {"labeler.chunk_hit_frac",
       frac(double(l1.overlay_chunk_hits - l0.overlay_chunk_hits), labels), "ratio"},
      {"labeler.miss_frac", frac(misses, labels), "ratio"},
      {"labeler.fallback_frac",
       frac(double(l1.stateless_fallbacks - l0.stateless_fallbacks), labels), "ratio"},
      {"labeler.chunk_publishes_per_1k",
       1000 * frac(double(l1.overlay_chunk_publishes - l0.overlay_chunk_publishes),
                   decided),
       "count"},
      {"label.mask_evals_per_query", frac(mask_evals, decided), "count"},
      {"label.wide_mask_frac", frac(double(l1.wide_mask_evals - l0.wide_mask_evals), mask_evals),
       "ratio"},
      {"label.simd_lanes_per_query",
       frac(double(l1.simd_lanes_used - l0.simd_lanes_used), decided), "count"},
      {"rewriting.fold_reuses_per_miss", frac(double(fold_reuses), misses), "count"},
      {"engine.accept_frac", frac(double(after.accepted - before.accepted), decided),
       "ratio"},
      {"principals.live", double(p1.live), "count"},
      {"principals.evictions_per_1k", 1000 * frac(double(p1.evictions - p0.evictions), decided),
       "count"},
      {"principals.residual_hits_per_1k",
       1000 * frac(double(p1.residual_hits - p0.residual_hits), decided), "count"},
      {"principals.residual_kib", double(p1.residual_bytes) / 1024, "KiB"},
      {"shadow.evaluated_frac",
       frac(double(after.shadow.evaluated - before.shadow.evaluated), decided), "ratio"},
  };
}

std::unique_ptr<fdc::engine::DisclosureEngine> MakeEngine(
    const Catalog& catalog, const std::vector<uint8_t>& policy_blob,
    const std::vector<fdc::cq::ConjunctiveQuery>& warmup,
    fdc::engine::EngineOptions options) {
  return std::make_unique<fdc::engine::DisclosureEngine>(
      /*db=*/nullptr, catalog.views.get(), PolicyFromBlobOrDie(policy_blob),
      options, std::span(warmup.data(), warmup.size()));
}

}  // namespace perfbench
