// The engine's shared labeling front end: frozen tier + guarded overlay.
//
// LabelingPipeline memoizes aggressively but is single-threaded by design;
// duplicating one per serving thread duplicates exactly the state interning
// exists to share. ConcurrentLabeler is the thread-safe replacement. Labels
// live in two tiers, each with a raw level (queries byte-identical to a
// stored form, found by one structural hash) and a canonical level
// (queries equal up to renaming and atom order, found by cq::CanonicalKey):
//
//   * the FrozenCatalog warmup tier — an immutable interner + label table,
//     read lock-free by any number of threads;
//   * a *dynamic overlay* of structures labeled since: an interner + label
//     memo behind a reader/writer lock. Each overlay level probes the
//     interner (QueryInterner::FindRaw / FindCanonical) and the memo under
//     the shared (reader) side; only a novel structure takes the exclusive
//     side, to intern and memoize it.
//
// Probe order — raw levels first, then one canonical key:
//
//   1. frozen raw;
//   2. overlay raw (interner + memo under the reader lock);
//   3. cq::Canonicalize and cq::CanonicalFormKey, once;
//   4. frozen canonical;
//   5. overlay canonical;
//   6. writer pass: label, then QueryInterner::TryIntern with step 3's
//      canonical form and key under the exclusive side, and memoize.
//
// A byte-identical repeat of a frozen or memoized structure therefore
// computes no canonical form, and a novel one computes exactly one
// (Stats::canonicalizations). The order changes no result: the overlay
// interns a structure only after the frozen tier missed it at both levels,
// so no raw form the overlay holds can also be frozen.
//
// Per-atom ℓ+ masks come from the frozen tier's CompiledCatalogMatcher (one
// allocation-free pass per atom, read lock-free), computed before the
// writer lock is taken. When the overlay interner saturates
// (principal-controlled input must not grow memory without bound), novel
// structures are labeled but not memoized — a pure function, no locks.
//
// This saturation bound is the labeling-side twin of the principal map's
// capacity/TTL lifecycle (engine/principal_map.h): both cap the only two
// engine tiers that grow with untrusted traffic. Labels are pure functions
// of the query, so overlay saturation merely costs recomputation; monitor
// state is *not* recomputable, which is why the principal map needs its
// residual store where the labeler can simply fall back.
//
// Labels produced here are byte-identical to LabelingPipeline::Label on
// the same catalog — including which relations ride packed vs wide atoms:
// every path evaluates the same Dissect + single-atom rewritability
// decision (the compiled matcher is property-tested mask-for-mask against
// the per-view loop, across the packed 32-view edge), so the engine path
// is decision-equivalent to the seed path. On packed-only catalogs that
// also coincides with LabelerPipeline::LabelPacked.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/locks.h"
#include "cq/interned.h"
#include "cq/query.h"
#include "engine/snapshot.h"
#include "label/compressed_label.h"
#include "label/pipeline.h"

namespace fdc::engine {

/// Namespace-scope (not nested) so it can brace-default in signatures.
struct ConcurrentLabelerOptions {
  /// Overlay interner growth bound (see LabelingOptions).
  size_t max_interned_queries = 1 << 20;
  /// Overlay whole-query label memo entries kept before a reset.
  size_t max_label_cache = 1 << 20;
};

class ConcurrentLabeler {
 public:
  using Options = ConcurrentLabelerOptions;

  struct Stats {
    uint64_t frozen_hits = 0;    // resolved by the lock-free frozen tier
    uint64_t overlay_hits = 0;   // resolved by the shared overlay memo
    uint64_t overlay_misses = 0; // labeled from scratch into the overlay
    uint64_t stateless_fallbacks = 0;  // overlay saturated; pure compute
    uint64_t compiled_mask_evals = 0;  // per-atom masks from the matcher
    // Of those, evaluations over relations beyond the packed view capacity
    // (multi-word wide atoms).
    uint64_t wide_mask_evals = 0;
    // Of those, masks evaluated through the batch-structured kernel
    // (LabelBatch's per-relation buckets via MatchMaskBatch).
    uint64_t batch_mask_evals = 0;
    // Always 0: the batch kernel has no vector variant. Kept so existing
    // readers of this field keep compiling.
    uint64_t simd_lanes_used = 0;
    // Per-view rewritability tests the seed kernel would have run for
    // those masks.
    uint64_t per_view_tests_avoided = 0;
    // Always 0: the overlay has no published chunk tier. Kept so existing
    // readers of these fields keep compiling.
    uint64_t overlay_chunk_hits = 0;
    uint64_t overlay_chunk_publishes = 0;
    // Reader-side (shared) acquisitions of the overlay lock: one per
    // overlay level probed. Frozen-tier hits take none.
    uint64_t overlay_reader_locks = 0;
    // Queries canonicalized because both raw levels missed (at most once
    // per query): byte-identical repeats of frozen or overlay structures
    // cost none.
    uint64_t canonicalizations = 0;
  };

  explicit ConcurrentLabeler(std::shared_ptr<const FrozenCatalog> frozen,
                             Options options = {});

  /// Thread-safe label; agrees with LabelingPipeline::Label (and with
  /// LabelerPipeline::LabelPacked on packed-only catalogs).
  label::DisclosureLabel Label(const cq::ConjunctiveQuery& query);

  /// Labels a batch; each distinct novel structure is computed once, through
  /// the batch-structured frozen-tier kernel: every query first goes through
  /// Label's read-side tiers, a first writer section interns and dedupes,
  /// the heavy compute (Dissect + per-relation MatchMaskBatch buckets via
  /// label::LabelQueriesBatched) runs with no lock held, and a second
  /// writer section memoizes.
  std::vector<label::DisclosureLabel> LabelBatch(
      std::span<const cq::ConjunctiveQuery> queries);

  /// Same batched labeling over non-contiguous queries (one pointer per
  /// query). This is the serving front end's shape: the coalescing layer
  /// gathers requests that point at per-connection interned templates, so
  /// the batch is naturally a pointer span — labeling must not force a
  /// copy of every query per wake.
  std::vector<label::DisclosureLabel> LabelBatch(
      std::span<const cq::ConjunctiveQuery* const> queries);

  Stats stats() const;
  cq::QueryInterner::Stats interner_stats() const;
  const FrozenCatalog& frozen() const { return *frozen_; }

 private:
  /// One query's trip through the tiers: its raw hash, and — once both raw
  /// levels missed — its one canonical form and key, which the writer pass
  /// hands to TryIntern instead of canonicalizing again.
  struct Probe {
    uint64_t raw_hash = 0;
    cq::ConjunctiveQuery canonical;
    std::string key;
  };

  /// The read-side tiers in their one order (see the file comment): frozen
  /// raw, overlay raw, then Canonicalize once, frozen canonical, overlay
  /// canonical. True with *out set on a hit; false leaves `probe` ready for
  /// InternLocked. Shared by Label and LabelBatch.
  bool ProbeReadTiers(const cq::ConjunctiveQuery& query, Probe* probe,
                      label::DisclosureLabel* out);

  /// One overlay level: `find()` (an interner probe) plus the memo under
  /// the shared side of mu_. Counts the lock and the hit.
  template <typename Find>
  bool ProbeOverlay(Find&& find, label::DisclosureLabel* out);

  /// TryIntern with the probe's canonical form and key (consumed); mu_ held
  /// exclusively.
  const cq::InternedQuery* InternLocked(const cq::ConjunctiveQuery& query,
                                        Probe* probe);
  /// Dissect + compiled-matcher evaluation: pure reads of frozen state plus
  /// relaxed counter bumps, safe from any thread with no locks held.
  label::DisclosureLabel LabelCompiled(const cq::ConjunctiveQuery& query);

  std::shared_ptr<const FrozenCatalog> frozen_;
  Options options_;
  // Dynamic overlay: QueryInterner::FindRaw/FindCanonical + memo probes
  // under shared_lock, interning and memoizing of novel structures under
  // unique_lock. The mutex type counts shared acquisitions so tests can
  // check that only overlay probes take reader-side locks.
  mutable locks::CountedSharedMutex mu_;
  cq::QueryInterner interner_;
  std::unordered_map<int, label::DisclosureLabel> label_by_query_;

  // Per-call counters, bumped by every caller thread. They start a cache
  // line of their own (and the alignment rounds the labeler's size to whole
  // lines), so neither the read-mostly members above nor an owner's members
  // after the labeler share a line with them, whatever the member sizes.
  alignas(64) std::atomic<uint64_t> frozen_hits_{0};
  std::atomic<uint64_t> overlay_hits_{0};
  std::atomic<uint64_t> overlay_misses_{0};
  std::atomic<uint64_t> stateless_fallbacks_{0};
  std::atomic<uint64_t> compiled_mask_evals_{0};
  std::atomic<uint64_t> wide_mask_evals_{0};
  std::atomic<uint64_t> batch_mask_evals_{0};
  std::atomic<uint64_t> per_view_tests_avoided_{0};
  std::atomic<uint64_t> overlay_reader_locks_{0};
  std::atomic<uint64_t> canonicalizations_{0};
};

}  // namespace fdc::engine
