// The system under test and its configuration: catalogs, the warmup pool,
// and the compiled policy sequence. These are fixed by constants (they are
// the deployment's configuration); only the traffic depends on --seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cq/query.h"
#include "cq/schema.h"
#include "engine/disclosure_engine.h"
#include "label/view_catalog.h"
#include "policy/policy.h"
#include "workload/query_generator.h"

namespace perfbench {

/// Schema + view catalog. `synthetic` adds seeded projection views with a
/// long-tailed per-relation count on top of the §7.2 Facebook views, so the
/// hottest relations carry more than 64 views (multi-word masks).
struct Catalog {
  fdc::cq::Schema schema;
  std::unique_ptr<fdc::label::ViewCatalog> views;
  int synthetic_views = 0;
  int max_views_per_relation = 0;
};
std::unique_ptr<Catalog> BuildCatalog(bool synthetic);

/// Queries of 1 to 3 joined subqueries from the §7.2 generator; which
/// subquery count each query gets is drawn from the same seeded stream.
class MixedQueryGenerator {
 public:
  MixedQueryGenerator(const fdc::cq::Schema* schema, uint64_t seed);
  fdc::cq::ConjunctiveQuery Next();

 private:
  fdc::Rng rng_;
  std::vector<fdc::workload::QueryGenerator> generators_;
};

/// The frozen-tier warmup pool (the known templates a deployment
/// pre-labels at start). Fixed seed.
std::vector<fdc::cq::ConjunctiveQuery> WarmupPool(const Catalog& catalog);

/// `count` compiled policy blobs over `catalog` (fixed seed): blob 0 is the
/// policy the engine starts with, the rest are installed in turn by the
/// churn workload, and the last is its staged shadow policy.
std::vector<std::vector<uint8_t>> PolicyBlobs(const Catalog& catalog,
                                              int count);

/// Loads a blob into a compiled policy; aborts on a malformed blob.
fdc::policy::SecurityPolicy PolicyFromBlobOrDie(
    const std::vector<uint8_t>& blob);

/// Builds a decision-only engine over `catalog` with `warmup` pre-labeled.
std::unique_ptr<fdc::engine::DisclosureEngine> MakeEngine(
    const Catalog& catalog, const std::vector<uint8_t>& policy_blob,
    const std::vector<fdc::cq::ConjunctiveQuery>& warmup,
    fdc::engine::EngineOptions options = {});

/// Per-layer counters of the labeler, label kernels, folding, monitor,
/// principal map and shadow, as deltas between two DisclosureEngine::Stats()
/// snapshots (`fold_reuses` is the FoldScratchReuses() delta over the same
/// span): labeler.*_frac, labeler.chunk_publishes_per_1k, label.*,
/// rewriting.fold_reuses_per_miss, engine.accept_frac, principals.*,
/// shadow.evaluated_frac.
std::vector<Metric> EngineCounterMetrics(
    const fdc::engine::DisclosureEngine::EngineStats& before,
    const fdc::engine::DisclosureEngine::EngineStats& after,
    uint64_t fold_reuses);

[[noreturn]] void Die(const std::string& what);

}  // namespace perfbench
