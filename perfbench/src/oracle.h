// The decision oracle that runs on every benchmark run.
//
// Each job is one independent request sequence (a wire connection's
// principal, or one embedded caller thread's principals) replayed in order
// through DisclosureEngine::Submit on a fresh engine whose principal map is
// unbounded, installing the same policy blobs at the same positions. The
// replay's per-principal decision digests must equal the digests observed
// during the measured run; a digest covers order and count, so a flipped,
// missing, extra or reordered decision all show as a mismatch. Jobs run in
// parallel, one fresh engine each: their principals are disjoint, so each
// principal's decisions depend only on its own job.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cq/query.h"
#include "engine/disclosure_engine.h"
#include "stats.h"

namespace perfbench {

struct OracleJob {
  std::function<std::unique_ptr<fdc::engine::DisclosureEngine>()> make_engine;
  /// Principal names, indexed by the ids `next` yields.
  const std::vector<std::string>* principals = nullptr;
  /// Requests to replay.
  uint64_t count = 0;
  /// Yields request k (called for k = 0, 1, ... in order).
  std::function<void(uint64_t k, size_t* principal,
                     const fdc::cq::ConjunctiveQuery** query)>
      next;
  /// Policy installs: before request swap_at[j], install swap_blobs[j].
  std::vector<uint64_t> swap_at;
  std::vector<const std::vector<uint8_t>*> swap_blobs;
  /// Digests observed during the run, indexed like `principals`.
  const std::vector<Digest>* observed = nullptr;
};

struct OracleReport {
  uint64_t replayed = 0;         // decisions replayed
  uint64_t principals = 0;       // principals compared
  uint64_t mismatched = 0;       // principals whose digests differ
  std::string first_mismatch;    // name of one, for the failure message
};

/// Runs every job (one thread per job, at most `max_threads` at a time).
OracleReport RunOracle(std::vector<OracleJob>& jobs, int max_threads);

}  // namespace perfbench
