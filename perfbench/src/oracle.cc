#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "artifact/policy_blob.h"
#include "env.h"

namespace perfbench {

namespace {

struct JobOutcome {
  uint64_t replayed = 0;
  uint64_t principals = 0;
  uint64_t mismatched = 0;
  std::string first_mismatch;
};

JobOutcome ReplayJob(OracleJob& job) {
  JobOutcome out;
  auto engine = job.make_engine();
  std::vector<Digest> expected(job.principals->size());
  size_t next_swap = 0;
  for (uint64_t k = 0; k < job.count; ++k) {
    while (next_swap < job.swap_at.size() && job.swap_at[next_swap] == k) {
      auto loaded = fdc::artifact::LoadPolicyBlob(*job.swap_blobs[next_swap]);
      if (!loaded.ok() || !engine->UpdatePolicy(loaded.value()).ok()) {
        Die("oracle: installing policy blob failed");
      }
      ++next_swap;
    }
    size_t principal = 0;
    const fdc::cq::ConjunctiveQuery* query = nullptr;
    job.next(k, &principal, &query);
    expected[principal].Add(
        engine->Submit((*job.principals)[principal], *query));
  }
  out.replayed = job.count;
  for (size_t p = 0; p < expected.size(); ++p) {
    const Digest& seen = (*job.observed)[p];
    if (expected[p].count == 0 && seen.count == 0) continue;
    ++out.principals;
    if (!(expected[p] == seen)) {
      if (out.mismatched++ == 0) out.first_mismatch = (*job.principals)[p];
    }
  }
  return out;
}

}  // namespace

OracleReport RunOracle(std::vector<OracleJob>& jobs, int max_threads) {
  std::vector<JobOutcome> outcomes(jobs.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const int n = std::max(1, std::min<int>(max_threads, static_cast<int>(jobs.size())));
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&] {
      for (size_t j = next++; j < jobs.size(); j = next++) {
        outcomes[j] = ReplayJob(jobs[j]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  OracleReport report;
  for (const JobOutcome& o : outcomes) {
    report.replayed += o.replayed;
    report.principals += o.principals;
    if (o.mismatched != 0 && report.mismatched == 0) {
      report.first_mismatch = o.first_mismatch;
    }
    report.mismatched += o.mismatched;
  }
  return report;
}

}  // namespace perfbench
