// Tests of the benchmark's own helpers: the Zipf sampler's shape,
// percentiles with their sample count, the ladder step rule, and the
// oracle catching one deliberately flipped decision.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "artifact/policy_blob.h"
#include "env.h"
#include "oracle.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(ZipfSamplerTest, FrequenciesFollowThePowerLaw) {
  const ZipfSampler zipf(64, 1.1);
  fdc::Rng rng(7);
  std::vector<int> counts(64, 0);
  const int draws = 400'000;
  for (int i = 0; i < draws; ++i) ++counts[zipf.Sample(rng)];
  for (size_t k : {0, 1, 3, 15}) {
    const double expected = zipf.Prob(k) * draws;
    EXPECT_NEAR(counts[k], expected, 5 * std::sqrt(expected)) << "rank " << k;
  }
  // Rank k+1 is (k+2)/(k+1))^s times less likely than rank k.
  EXPECT_NEAR(zipf.Prob(0) / zipf.Prob(1), std::pow(2.0, 1.1), 1e-9);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[60]);
}

TEST(ZipfSamplerTest, SameSeedSameSequence) {
  const ZipfSampler zipf(1000, 0.9);
  fdc::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(zipf.Sample(a), zipf.Sample(b));
}

TEST(PercentileTest, NearestRankWithSampleCount) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const Percentile p50 = PercentileOf(&values, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(PercentileOf(&values, 0.99).value, 99);
  EXPECT_EQ(PercentileOf(&values, 1.0).value, 100);
  std::vector<double> empty;
  EXPECT_EQ(PercentileOf(&empty, 0.99).samples, 0u);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

StepResult Step(double rate, double p99, double late99, uint64_t backlog) {
  StepResult s;
  s.offered_dps = rate;
  s.achieved_dps = rate;
  s.p99_us = {p99, 1000};
  s.late_p99_us = {late99, 1000};
  s.backlog_end = backlog;
  return s;
}

TEST(LadderTest, StepRule) {
  const double limit = 1000;  // us
  EXPECT_TRUE(StepMeetsLimit(Step(100'000, 900, 10, 50), limit));
  EXPECT_FALSE(StepMeetsLimit(Step(100'000, 1100, 10, 50), limit));
  // The generator fell behind: a miss even though latency looks fine.
  EXPECT_FALSE(StepMeetsLimit(Step(100'000, 900, 600, 50), limit));
  // Backlog beyond rate x limit (100 requests at 100k/s and 1 ms) grows.
  EXPECT_TRUE(StepMeetsLimit(Step(100'000, 900, 10, 100), limit));
  EXPECT_FALSE(StepMeetsLimit(Step(100'000, 900, 10, 101), limit));
  StepResult failed = Step(100'000, 900, 10, 0);
  failed.failed = 1;
  EXPECT_FALSE(StepMeetsLimit(failed, limit));
  StepResult empty = Step(100'000, 0, 0, 0);
  empty.p99_us.samples = 0;
  EXPECT_FALSE(StepMeetsLimit(empty, limit));
}

int Search(size_t rungs, const std::function<bool(size_t, int)>& passes,
           int* steps) {
  LadderSearch search(rungs);
  *steps = 0;
  while (!search.done()) search.Report(passes(search.next(), (*steps)++));
  return search.best();
}

TEST(LadderTest, BisectionFindsTheKnee) {
  for (int knee = -1; knee < 20; ++knee) {
    int steps = 0;
    EXPECT_EQ(Search(20, [&](size_t i, int) { return int(i) <= knee; }, &steps),
              knee);
    // ceil(log2(21)) probes, each failing one run twice.
    EXPECT_LE(steps, 10);
  }
  int steps = 0;
  EXPECT_EQ(Search(0, [](size_t, int) { return true; }, &steps), -1);
  EXPECT_EQ(steps, 0);
}

TEST(LadderTest, OneSpuriousFailureIsRetried) {
  // Knee at rung 14; the first probe of rung 9 fails once by accident.
  int steps = 0;
  bool stalled = false;
  const int found = Search(
      20,
      [&](size_t i, int) {
        if (i == 9 && !stalled) {
          stalled = true;
          return false;
        }
        return i <= 14;
      },
      &steps);
  EXPECT_TRUE(stalled);
  EXPECT_EQ(found, 14);
}

TEST(PercentileTest, WindowedMedianIgnoresOneStalledWindow) {
  std::vector<std::vector<double>> windows(5);
  for (auto& w : windows) {
    for (int i = 1; i <= 100; ++i) w.push_back(i);
  }
  for (double& v : windows[2]) v *= 1000;  // one stalled window
  const Percentile p99 = WindowedPercentile(windows, 0.99, 100);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.samples, 500u);
  windows.push_back({1, 2, 3});  // too few samples to count
  EXPECT_EQ(WindowedPercentile(windows, 0.99, 100).samples, 500u);
}

TEST(DigestTest, OrderAndCountSensitive) {
  Digest a, b, c;
  a.Add(true);
  a.Add(false);
  b.Add(false);
  b.Add(true);
  c.Add(true);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  c.Add(false);
  EXPECT_TRUE(a == c);
}

// Runs a live engine over a short stream, then checks the oracle accepts
// the true digests and rejects them after one decision is flipped.
TEST(OracleTest, CatchesOneFlippedDecision) {
  auto catalog = BuildCatalog(false);
  const auto warmup = WarmupPool(*catalog);
  const auto blobs = PolicyBlobs(*catalog, 2);
  auto live = MakeEngine(*catalog, blobs[0], warmup);
  const std::vector<std::string> names = {"a", "b", "c"};
  const uint64_t n = 3000;
  auto request = [&](uint64_t k, size_t* p, const fdc::cq::ConjunctiveQuery** q) {
    *p = (k * 7) % names.size();
    *q = &warmup[(k * 13) % warmup.size()];
  };
  std::vector<bool> decisions;
  std::vector<size_t> principal_of;
  auto loaded = fdc::artifact::LoadPolicyBlob(blobs[1]);
  ASSERT_TRUE(loaded.ok());
  for (uint64_t k = 0; k < n; ++k) {
    if (k == n / 2) ASSERT_TRUE(live->UpdatePolicy(loaded.value()).ok());
    size_t p = 0;
    const fdc::cq::ConjunctiveQuery* q = nullptr;
    request(k, &p, &q);
    decisions.push_back(live->Submit(names[p], *q));
    principal_of.push_back(p);
  }
  auto digests_with_flip = [&](int64_t flip) {
    std::vector<Digest> out(names.size());
    for (uint64_t k = 0; k < n; ++k) {
      const bool d = decisions[k] != (static_cast<int64_t>(k) == flip);
      out[principal_of[k]].Add(d);
    }
    return out;
  };
  auto run = [&](const std::vector<Digest>& observed) {
    std::vector<OracleJob> jobs(1);
    jobs[0].make_engine = [&] { return MakeEngine(*catalog, blobs[0], warmup); };
    jobs[0].principals = &names;
    jobs[0].count = n;
    jobs[0].next = request;
    jobs[0].swap_at = {n / 2};
    jobs[0].swap_blobs = {&blobs[1]};
    jobs[0].observed = &observed;
    return RunOracle(jobs, 1);
  };
  const auto truth = digests_with_flip(-1);
  const OracleReport ok = run(truth);
  EXPECT_EQ(ok.mismatched, 0u);
  EXPECT_EQ(ok.replayed, n);
  EXPECT_EQ(ok.principals, names.size());
  const auto flipped = digests_with_flip(1234);
  const OracleReport bad = run(flipped);
  EXPECT_EQ(bad.mismatched, 1u);
  EXPECT_EQ(bad.first_mismatch, names[principal_of[1234]]);
}

}  // namespace
}  // namespace perfbench
