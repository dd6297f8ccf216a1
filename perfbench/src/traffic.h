// Seeded heavy-tailed traffic shared by the workloads and the oracle.
//
// Every per-principal request sequence is a pure function of the run seed
// and the principal's stream index, independent of timing, so the oracle
// can regenerate exactly what a connection or caller thread sent.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "cq/query.h"
#include "env.h"
#include "stats.h"

namespace perfbench {

/// A stream of queries whose canonical structures are pairwise distinct
/// and distinct from a set of already-known queries (the warmup pool), so
/// each item is a structure the labeler has never seen. Only the Datalog
/// text is kept (it is what travels on the wire; the oracle parses it).
class DistinctQueries {
 public:
  /// The first `fixed_count` items come from `fixed_seed` (the repeated
  /// texts: part of the workload's configuration, the same on every run);
  /// the rest (the never-seen stream) from `seed`.
  DistinctQueries(const Catalog* catalog,
                  const std::vector<fdc::cq::ConjunctiveQuery>& known,
                  size_t fixed_count, uint64_t fixed_seed, uint64_t seed);
  /// Generates items until at least `n` exist.
  void Ensure(size_t n);
  size_t size() const { return texts_.size(); }
  const std::string& text(size_t i) const { return texts_[i]; }

 private:
  const Catalog* catalog_;
  size_t fixed_count_;
  MixedQueryGenerator fixed_generator_;
  MixedQueryGenerator generator_;
  std::unordered_set<uint64_t> seen_;  // hashes of canonical keys
  std::vector<std::string> texts_;
};

/// One request of a wire connection's stream.
struct WireRequest {
  bool text = false;       // kSubmitText (novel_wire) vs kSubmit
  uint32_t template_id = 0;  // kSubmit: the connection's template id
  size_t query = 0;        // kSubmitText: index into DistinctQueries
  bool novel = false;      // a never-seen structure
};

/// Shape of the wire traffic (constants of the benchmark). The skews and
/// the novel share are assumptions, not values read off a published
/// figure; the README's "Traffic shape" section gives why each was picked.
/// Runs print the shares they produce, and claims cite those.
struct WireTrafficShape {
  int connections = 4;
  int templates_per_connection = 64;
  double template_zipf = 1.1;   // assumed: a hot head, every template used
  size_t popular_texts = 1024;  // repeated texts (novel_wire)
  double popular_zipf = 1.0;    // assumed
  // Assumed: small enough that the labeler overlay never saturates in a
  // run (stateless fallbacks stay 0), large enough that misses dominate
  // labeling cost.
  double novel_share = 0.05;
};

/// Per-connection deterministic request stream.
class WireStream {
 public:
  WireStream(const WireTrafficShape* shape, const ZipfSampler* templates,
             const ZipfSampler* popular, bool novel_workload, int connection,
             uint64_t seed);
  WireRequest Next();

 private:
  const WireTrafficShape* shape_;
  const ZipfSampler* templates_;
  const ZipfSampler* popular_;
  bool novel_workload_;
  int connection_;
  uint64_t novel_issued_ = 0;
  fdc::Rng rng_;
};

/// Counts for the measured input shares every workload prints.
struct ShareCounter {
  std::vector<uint64_t> per_item;       // requests per template/text
  std::vector<uint8_t> principal_seen;  // per principal
  uint64_t requests = 0;
  uint64_t revisits = 0;                // requests by an already-seen principal
  uint64_t novel = 0;

  void Count(size_t item, size_t principal, bool is_novel);
  void Merge(const ShareCounter& other);
  /// Share of requests that went to the 10 most requested items.
  double TopTenShare() const;
  double RevisitShare() const {
    return requests == 0 ? 0 : static_cast<double>(revisits) / requests;
  }
  double NovelShare() const {
    return requests == 0 ? 0 : static_cast<double>(novel) / requests;
  }
};

}  // namespace perfbench
