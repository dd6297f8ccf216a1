// The batched labeling pipeline must be label-for-label identical to the
// seed per-query path: LabelBatch vs LabelPacked on the §7.2 workload, plus
// the widened 64-partition monitor state.
#include <gtest/gtest.h>

#include "fb/fb_schema.h"
#include "fb/fb_views.h"
#include "label/pipeline.h"
#include "policy/overprivilege.h"
#include "policy/reference_monitor.h"
#include "test_util.h"
#include "workload/query_generator.h"

namespace fdc::label {
namespace {

using test::FbFixture;

std::vector<cq::ConjunctiveQuery> Workload(const cq::Schema* schema,
                                           int subqueries, int count,
                                           uint64_t seed) {
  return test::RandomWorkload(schema, subqueries, count, seed);
}

TEST(BatchPipelineTest, LabelAgreesWithLabelPacked) {
  FbFixture fb;
  LabelerPipeline seed_pipeline(&fb.catalog);
  LabelingPipeline pipeline(&fb.catalog);
  for (int subqueries = 1; subqueries <= 3; ++subqueries) {
    for (const auto& query :
         Workload(&fb.schema, subqueries, 200, 0xbeef + subqueries)) {
      DisclosureLabel expected = seed_pipeline.LabelPacked(query);
      DisclosureLabel got = pipeline.Label(query);
      EXPECT_EQ(got, expected);
    }
  }
  EXPECT_GT(pipeline.stats().label_misses, 0u);
}

TEST(BatchPipelineTest, LabelBatchAgreesAndDeduplicates) {
  FbFixture fb;
  LabelerPipeline seed_pipeline(&fb.catalog);
  LabelingPipeline pipeline(&fb.catalog);
  auto pool = Workload(&fb.schema, 2, 64, 0xf00d);
  // Repeat the pool so the batch has heavy structural duplication.
  std::vector<cq::ConjunctiveQuery> batch;
  for (int rep = 0; rep < 4; ++rep) {
    batch.insert(batch.end(), pool.begin(), pool.end());
  }
  const auto labels = pipeline.LabelBatch(batch);
  ASSERT_EQ(labels.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(labels[i], seed_pipeline.LabelPacked(batch[i])) << i;
  }
  // 4 repetitions of ≤64 structures: far fewer labels computed than queries.
  EXPECT_LE(pipeline.stats().label_misses, 64u);
  // Repeats of the batch reuse the persistent memo entirely.
  const uint64_t misses_before = pipeline.stats().label_misses;
  const auto again = pipeline.LabelBatch(batch);
  EXPECT_EQ(pipeline.stats().label_misses, misses_before);
  for (size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(again[i], labels[i]);
}

TEST(BatchPipelineTest, AblatedModeBypassesCaches) {
  FbFixture fb;
  LabelingOptions options;
  options.ablate_interning = true;
  LabelingPipeline pipeline(&fb.catalog, nullptr, nullptr, {}, options);
  LabelerPipeline seed_pipeline(&fb.catalog);
  for (const auto& query : Workload(&fb.schema, 1, 50, 0xcafe)) {
    EXPECT_EQ(pipeline.Label(query), seed_pipeline.LabelPacked(query));
  }
  EXPECT_EQ(pipeline.stats().label_hits, 0u);
  EXPECT_EQ(pipeline.stats().label_misses, 0u);
}

TEST(BatchPipelineTest, MonitorSupportsUpTo64Partitions) {
  cq::Schema schema = test::MakePaperSchema();
  ViewCatalog catalog(&schema);
  auto v0 = catalog.AddViewText("scan", "V(x, y) :- Meetings(x, y)");
  auto v1 = catalog.AddViewText("times", "V(x) :- Meetings(x, y)");
  ASSERT_TRUE(v0.ok());
  ASSERT_TRUE(v1.ok());

  // 64 partitions: the first 63 hold only the narrow view, the last holds
  // the full scan. A scan query must be refused by all but partition 63.
  std::vector<policy::Partition> partitions;
  for (int i = 0; i < 63; ++i) {
    partitions.push_back({"narrow" + std::to_string(i), {*v1}});
  }
  partitions.push_back({"wide", {*v0}});
  auto policy = policy::SecurityPolicy::Compile(catalog, partitions);
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->AllPartitionsMask(), ~0ULL);

  LabelingPipeline pipeline(&catalog);
  policy::ReferenceMonitor monitor(&*policy);
  policy::PrincipalState state = monitor.InitialState();
  const auto scan_label =
      pipeline.Label(test::Q("Q(x, y) :- Meetings(x, y)", schema));
  ASSERT_TRUE(monitor.Submit(&state, scan_label));
  // Only the high bit (partition 63) survives — exercising state bits
  // beyond the old 32-bit word.
  EXPECT_EQ(state.consistent, 1ULL << 63);
}

TEST(BatchPipelineTest, InternerSaturationFallsBackStatelessly) {
  FbFixture fb;
  LabelingOptions options;
  options.max_interned_queries = 4;  // tiny cap to force saturation
  LabelingPipeline pipeline(&fb.catalog, nullptr, nullptr, {}, options);
  LabelerPipeline seed_pipeline(&fb.catalog);
  const auto pool = Workload(&fb.schema, 2, 64, 0x5a7a);
  // Well past the cap: labels must stay correct, interner must stay capped.
  for (const auto& query : pool) {
    EXPECT_EQ(pipeline.Label(query), seed_pipeline.LabelPacked(query));
  }
  const auto batch_labels = pipeline.LabelBatch(pool);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(batch_labels[i], seed_pipeline.LabelPacked(pool[i]));
  }
  EXPECT_LE(pipeline.interner().num_queries(), 4);
  // Structures interned before saturation keep hitting their memo.
  const uint64_t hits_before = pipeline.stats().label_hits;
  (void)pipeline.Label(pool[0]);
  EXPECT_GT(pipeline.stats().label_hits, hits_before);
}

TEST(BatchPipelineTest, OverprivilegeAnalysisSharesPipelineCache) {
  FbFixture fb;
  // The compiled matcher never touches the ContainmentCache, so run the
  // pipeline on the seed kernel — this test is specifically about the
  // cache-sharing contract between labeling and the overprivilege audit.
  LabelingOptions options;
  options.ablate_compiled_matcher = true;
  LabelingPipeline pipeline(&fb.catalog, nullptr, nullptr, {}, options);
  auto workload = Workload(&fb.schema, 1, 64, 0xdddd);
  // Warm the shared cache through the pipeline.
  (void)pipeline.LabelBatch(workload);

  std::vector<int> requested;
  for (int v = 0; v < fb.catalog.size(); ++v) requested.push_back(v);
  const auto uncached =
      policy::AnalyzeOverprivilege(fb.catalog, requested, workload);
  const uint64_t hits_before = pipeline.cache().stats().hits;
  const auto cached = policy::AnalyzeOverprivilege(
      fb.catalog, requested, workload, &pipeline.interner(),
      &pipeline.cache());
  EXPECT_EQ(cached.unused_views, uncached.unused_views);
  EXPECT_EQ(cached.minimal_sufficient, uncached.minimal_sufficient);
  EXPECT_EQ(cached.unanswerable_atoms, uncached.unanswerable_atoms);
  // The audit reused pairwise decisions the labeling path had cached.
  EXPECT_GT(pipeline.cache().stats().hits, hits_before);
}

}  // namespace
}  // namespace fdc::label
