// End-to-end multi-atom labeling pipeline (§5.2 + §6.1), in the three
// variants benchmarked in Figure 5:
//
//   * Baseline        — LabelGen adapted directly from §4.2: for every
//                       dissected atom, scan the *entire* security-view
//                       catalog and collect ℓ+ as a sorted id set.
//   * Hashed          — partition views by base relation (hashtable); scan
//                       only the bucket of the atom's relation.
//   * Hashed+Bitvector— bucket scan + packed 64-bit ℓ+ masks (§6.1); no
//                       per-query allocation beyond the output label.
//
// All variants share Dissect (folding included), so measured differences
// isolate the lookup/representation optimizations, matching the paper's
// experimental design.
#pragma once

#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "cq/interned.h"
#include "cq/query.h"
#include "label/compiled_matcher.h"
#include "label/compressed_label.h"
#include "label/dissect.h"
#include "label/view_catalog.h"
#include "rewriting/containment_cache.h"

namespace fdc::label {

/// Set-based label: per dissected atom, the catalog ids of views in ℓ+ as a
/// genuine set container — this is the §4.2 representation that the §6.1
/// bit vectors replace, kept as an honest comparison point (Figure 5's
/// "baseline" and "hashing only" series) and for analysis tooling.
struct SetLabel {
  std::vector<std::set<int>> per_atom;
  bool top = false;  // some atom matched no view

  /// ⪯ in the label lattice (mirrors DisclosureLabel::Leq).
  bool Leq(const SetLabel& other) const;
};

class LabelerPipeline {
 public:
  explicit LabelerPipeline(const ViewCatalog* catalog,
                           DissectOptions dissect_options = {})
      : catalog_(catalog), dissect_options_(dissect_options) {}

  /// Figure 5 series "baseline".
  SetLabel LabelBaseline(const cq::ConjunctiveQuery& query) const;

  /// Figure 5 series "hashing only".
  SetLabel LabelHashed(const cq::ConjunctiveQuery& query) const;

  /// Figure 5 series "bit vectors + hashing" — the seed packed path.
  /// Packed masks carry kPackedViewCapacity (32) views per relation; views
  /// with bit ≥ 32 are excluded (labels strictly higher — fail-safe). The
  /// production LabelingPipeline has no such edge: its compiled matcher
  /// emits wide atoms for relations beyond the packed capacity.
  DisclosureLabel LabelPacked(const cq::ConjunctiveQuery& query) const;

  /// Every atom in multi-word form via the raw per-view AtomRewritable loop
  /// (ablation A2); no per-relation view-count limit. This is the seed
  /// oracle the wide compiled kernel is property-tested against.
  WideLabel LabelWide(const cq::ConjunctiveQuery& query) const;

  const ViewCatalog& catalog() const { return *catalog_; }

 private:
  const ViewCatalog* catalog_;
  DissectOptions dissect_options_;
};

/// ℓ+ mask of one normalized single-atom pattern against `catalog`,
/// memoizing per-(pattern, view) rewritability decisions in `cache` under
/// kCatalogRewritable, keyed by `pattern_id` from `interner`. This is the
/// *seed per-view kernel*: since PR 3 the production paths evaluate the
/// CompiledCatalogMatcher instead (one pass, no interner, no cache), and
/// this loop remains as the ablation baseline and property-test oracle —
/// tests/compiled_matcher_test.cc pins the two mask-for-mask.
///
/// Packed masks hold kPackedViewCapacity (32) views per relation; views
/// with bit ≥ 32 are excluded here rather than shifted out of range (which
/// was UB) — labels over such catalogs are strictly higher (stricter,
/// fail-safe). The production matcher path has no such cap: relations
/// beyond the packed capacity get exact multi-word masks
/// (CompiledCatalogMatcher::MatchMaskWords feeding WideAtomLabel entries),
/// so this kernel is the *packed* oracle only.
PackedAtomLabel ComputePatternMask(const ViewCatalog& catalog,
                                   const cq::QueryInterner& interner,
                                   rewriting::ContainmentCache& cache,
                                   int pattern_id,
                                   const cq::AtomPattern& pattern);

/// Working state for LabelQueriesBatched, reusable across calls: the
/// dissected atoms, their relation-bucketed order, the bucket mask buffer
/// hoisted out of the bucket loop (sized once per call by
/// CompiledCatalogMatcher::max_mask_words() × the largest bucket), and the
/// matcher's BatchScratch. A warm scratch makes the whole bucket/kernel
/// phase allocation-free; confine an instance to one thread.
struct BatchLabelScratch {
  std::vector<cq::AtomPattern> atoms;
  std::vector<int32_t> atom_query;  // atoms[i] dissected from query atom_query[i]
  std::vector<int32_t> order;       // atom indices, bucketed by relation
  std::vector<const cq::AtomPattern*> bucket;  // current bucket's patterns
  std::vector<uint64_t> masks;      // hoisted per-bucket mask rows
  BatchScratch kernel;
};

/// Counters LabelQueriesBatched accumulates for the caller's stats.
struct BatchLabelCounters {
  uint64_t batch_mask_evals = 0;        // masks evaluated through the kernel
  uint64_t wide_mask_evals = 0;         // of those, wide-relation masks
  uint64_t per_view_tests_avoided = 0;  // seed per-view tests replaced
};

/// The batched labeling core shared by LabelingPipeline::LabelBatch and
/// engine::ConcurrentLabeler::LabelBatch: dissects every query, buckets the
/// dissected atoms per relation, evaluates each bucket in one
/// CompiledCatalogMatcher::MatchMaskBatch call, and scatters the mask rows
/// into one Sealed DisclosureLabel per query — identical output to the
/// per-query LabelViaMatcher/LabelCompiled paths (the batch kernel is
/// bit-identical to per-atom MatchMaskWords). Pure reads of `matcher`;
/// thread-safe given a per-thread scratch.
void LabelQueriesBatched(const CompiledCatalogMatcher& matcher,
                         DissectOptions dissect_options,
                         std::span<const cq::ConjunctiveQuery* const> queries,
                         BatchLabelScratch* scratch,
                         std::vector<DisclosureLabel>* labels,
                         BatchLabelCounters* counters);

/// The production labeling front end: intern → index → memoize → batch.
///
/// Layered on LabelerPipeline::LabelPacked (which itself benefits from the
/// indexed homomorphism engine inside Dissect's folding step):
///   1. queries are canonicalized once and hash-consed by a QueryInterner,
///      so structurally repeated queries share one interned id;
///   2. whole-query labels are memoized by interned id — the §7.2
///      repeated-template workload turns into one hash probe per query;
///   3. per-atom ℓ+ masks come from the CompiledCatalogMatcher — one
///      allocation-free pass per dissected atom, no interner probes, no
///      cache probes, no per-view tests — so even fully novel queries pay
///      O(arity) per atom. Relations with more views than a packed mask
///      carries get exact multi-word masks (wide label atoms); narrow
///      relations keep the packed representation. The seed variant
///      (patterns interned, masks memoized, per-view tests through the
///      shared ContainmentCache under kCatalogRewritable, packed-only) is
///      kept behind `ablate_compiled_matcher`;
///   4. LabelBatch buckets a whole batch by interned id and computes each
///      distinct label exactly once; the novel structures' dissected atoms
///      are then bucketed per relation and evaluated through the
///      batch-structured kernel (MatchMaskBatch — see
///      LabelQueriesBatched), with the per-atom loop kept behind
///      `ablate_batch_kernel`.
///
/// `ablate_interning` (baseline mode, kept for the Figure-style benchmark
/// ablation) bypasses all of the above and calls LabelPacked per query.
///
/// Sharing contract: this class is the *single-threaded* labeling front end
/// — every method (including the memo-warming ones) mutates unguarded
/// state, so an instance must be confined to one thread; it remains the
/// seed/ablation oracle and the right choice for one-shot tools. Serving
/// threads share labeling state through engine::ConcurrentLabeler instead,
/// which layers a lock-free frozen tier and a reader/writer-guarded overlay
/// over the same algorithm (identical labels, property-tested). The
/// ContainmentCache it is handed may be shared freely (that class is
/// internally sharded and thread-safe); the QueryInterner may not, unless
/// frozen (see interned.h).
struct LabelingOptions {
  /// Baseline mode: no interning, no memoization (bench ablation).
  bool ablate_interning = false;
  /// Seed-kernel mode: per-atom ℓ+ masks come from the per-view
  /// ComputePatternMask loop (pattern interning + ContainmentCache) instead
  /// of the CompiledCatalogMatcher. Kept as the ablation baseline and the
  /// *packed* oracle the compiled matcher is property-tested against —
  /// on catalogs beyond the packed view capacity it over-labels (bit ≥ 32
  /// excluded), while the compiled path stays exact via wide atoms.
  bool ablate_compiled_matcher = false;
  /// Batch ablation: LabelBatch labels each novel structure through the
  /// per-atom MatchMaskWords loop (the pre-batch code shape) instead of
  /// bucketing atoms per relation through MatchMaskBatch. Labels are
  /// identical either way (property-tested); this isolates the batch
  /// kernel's contribution in benchmarks.
  bool ablate_batch_kernel = false;
  /// Whole-query label memo entries kept before the memo is reset.
  size_t max_label_cache = 1 << 20;
  /// Interner growth bound: once this many distinct structures are
  /// interned, novel ones are labeled statelessly (LabelPacked) instead of
  /// being interned — queries are principal-controlled, so the interner
  /// must not grow without bound under adversarial distinct-structure
  /// streams. Known structures keep hitting their memoized labels.
  size_t max_interned_queries = 1 << 20;
};

class LabelingPipeline {
 public:
  using Options = LabelingOptions;

  struct Stats {
    uint64_t label_hits = 0;    // whole-query label memo hits
    uint64_t label_misses = 0;  // labels computed from scratch
    uint64_t mask_hits = 0;     // per-pattern ℓ+ mask memo hits (seed path)
    uint64_t mask_misses = 0;
    uint64_t compiled_mask_evals = 0;  // masks answered by the compiled net
    // Of those, evaluations over relations beyond the packed view capacity
    // (the compiled net produced a multi-word wide atom).
    uint64_t wide_mask_evals = 0;
    // Of those, masks evaluated through the batch-structured kernel
    // (LabelBatch's per-relation buckets via MatchMaskBatch).
    uint64_t batch_mask_evals = 0;
    // Per-view rewritability tests the seed loop would have run for those
    // masks (the work the compiled matcher replaces outright).
    uint64_t per_view_tests_avoided = 0;
  };

  /// `interner` and `cache` may be null (private ones are created). When
  /// shared, the cache's kCatalogRewritable kind must only carry this
  /// (interner, catalog) pair's ids. `matcher`, when non-null, must be
  /// compiled from `catalog` and outlive the pipeline (engine::FrozenCatalog
  /// shares its compiled artifact this way); when null and neither ablation
  /// flag is set, the pipeline compiles and owns one.
  LabelingPipeline(const ViewCatalog* catalog,
                   cq::QueryInterner* interner = nullptr,
                   rewriting::ContainmentCache* cache = nullptr,
                   DissectOptions dissect_options = {},
                   LabelingOptions options = {},
                   const CompiledCatalogMatcher* matcher = nullptr);

  /// Interned + memoized packed label; agrees with LabelPacked.
  DisclosureLabel Label(const cq::ConjunctiveQuery& query);

  /// Labels a batch, computing each distinct structure once.
  std::vector<DisclosureLabel> LabelBatch(
      std::span<const cq::ConjunctiveQuery> queries);

  cq::QueryInterner& interner() { return *interner_; }
  /// The shared decision cache (created on first use when none was
  /// injected — the compiled-matcher path never probes one itself).
  rewriting::ContainmentCache& cache() { return EnsureCache(); }
  const Stats& stats() const { return stats_; }
  const ViewCatalog& catalog() const { return inner_.catalog(); }
  /// The compiled matcher in use, or nullptr when ablated.
  const CompiledCatalogMatcher* matcher() const { return matcher_; }

 private:
  /// Lazily creates the private cache when none was injected.
  rewriting::ContainmentCache& EnsureCache();
  /// ℓ+ mask of one interned pattern (memoized).
  PackedAtomLabel MaskFor(int pattern_id, const cq::AtomPattern& pattern);
  /// Dissect + one compiled-net evaluation per atom; requires matcher_.
  DisclosureLabel LabelViaMatcher(const cq::ConjunctiveQuery& query);
  /// Stateless label for uninterned queries (interner saturated): the
  /// compiled net when available, else the seed LabelPacked loop.
  DisclosureLabel LabelStateless(const cq::ConjunctiveQuery& query);
  DisclosureLabel ComputeLabel(const cq::ConjunctiveQuery& canonical);

  LabelerPipeline inner_;
  DissectOptions dissect_options_;
  Options options_;
  cq::QueryInterner* interner_;
  rewriting::ContainmentCache* cache_;
  const CompiledCatalogMatcher* matcher_ = nullptr;
  std::unique_ptr<cq::QueryInterner> owned_interner_;
  std::unique_ptr<rewriting::ContainmentCache> owned_cache_;
  std::unique_ptr<CompiledCatalogMatcher> owned_matcher_;
  std::unordered_map<int, DisclosureLabel> label_by_query_;
  std::unordered_map<int, PackedAtomLabel> mask_by_pattern_;
  // LabelBatch's bucket/kernel scratch, reused across batches (warm batches
  // allocate nothing in the bucket loop).
  BatchLabelScratch batch_scratch_;
  Stats stats_;
};

}  // namespace fdc::label
