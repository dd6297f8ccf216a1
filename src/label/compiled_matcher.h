// Compiled view-catalog matcher: the catalog-side dual of AtomRewritable.
//
// The labeling hot path needs, for every dissected atom pattern v, the full
// per-relation ℓ+ mask { i : AtomRewritable(v, w_i) } over the catalog's
// views w_i. The seed kernel answers that with one AtomRewritable call per
// (pattern, view) pair — a ContainmentCache probe and, on miss, a fresh
// position-class analysis per view. Because catalog views are single-atom
// patterns (ViewCatalog enforces this), the whole per-relation test can be
// *compiled once* at catalog-freeze time into a discrimination net over
// constant positions/values and class structure, and then evaluated for any
// incoming pattern in one pass over its positions:
//
//   * per-position view bitmasks (const_at / dist_at / not_const_at) fold
//     conditions C1/C3/C4 of the rewriting test into AND-masks;
//   * per-position constant-value tables (flat, sorted, string probes)
//     resolve "which views select exactly this constant here" in one
//     binary search;
//   * view-side equality constraints (C2) are precompiled into a short list
//     of (q, p, mask) requirements shared by all views imposing them;
//   * pattern-side equality constraints (C5) are answered by a precomputed
//     position×position same-class mask plus the distinguished masks.
//
// Mask width: every per-view mask in the net is an array of uint64_t words
// whose count is fixed per relation at compile time (MaskWords(relation) =
// ceil(view count / 64), minimum 1) — a MaskSpan threaded through the whole
// SoA layout. MatchMaskWords therefore evaluates C1–C5 for *any* number of
// views per relation in one allocation-free pass; there is no 32-view
// capacity cliff in the compiled kernel. One-word relations (the common
// case) run a specialized single-word loop with exactly the pre-wide code
// shape. Whether a relation's ℓ+ rides in packed or wide label atoms is a
// catalog property exposed as UsesWideMask(relation) (view count >
// kPackedViewCapacity); MatchMask/MatchLabel keep the packed 32-bit
// contract — the low 32 bits of the full mask, identical to the seed
// ComputePatternMask guard — for consumers and oracles that stay packed.
//
// Batch kernel: MatchMaskBatch evaluates one relation's net over N
// dissected atoms at once. Each pattern still runs the fused per-atom loop
// shape — the running mask stays hot (a register word for one-word
// relations, W cache-resident words for wide ones) and dies early — because
// staging per-position operands through memory loses to that shape at every
// real mask width. What the batch adds:
//
//   * a batch-level constant-probe memo (BatchScratch::ProbeMemo): C1/C3
//     value lookups are the kernel's dominant cost, and batches repeat
//     constants heavily, so each (position, value) pair pays its binary
//     search once per batch and resolves O(1) afterwards — for values of
//     ≤ 8 bytes a hit needs no string access at all (the prefix key plus
//     length is the full content);
//   * precomputed single-AND rows for every condition (nc/ncd complements,
//     value∨dist, same-class∨dist), so the fused loop never composes masks
//     at eval time;
//   * cross-pattern prefetch of the next atom's term array.
//
// There is one scalar kernel per mask width and no vector variant: a §6.1
// label is a plain AND-able bit mask, and a decision folds on average about
// a third of one 64-bit word through the wide loops — too little for
// AVX2/NEON ANDs to pay (they measured within noise of the scalar loops,
// often behind). Two-word relations get a register-resident loop.
//
// The per-atom MatchMaskWords stays the property-test oracle: the batch
// kernel is bit-identical to it by construction and by the randomized
// differential suite (tests/batch_kernel_property_test.cc).
//
// MatchMask/MatchMaskWords are allocation-free, touch no interner and no
// cache, and are pure/immutable after Compile — any number of threads may
// evaluate concurrently (MatchMaskBatch too, given per-thread scratch).
// Equivalence with the seed per-view loop is property-tested over the
// packed range (tests/compiled_matcher_test.cc) and across the
// 31/32/33/63/64/65/128 view boundaries
// (tests/wide_matcher_property_test.cc); the seed loop is kept behind the
// `ablate_compiled_matcher` labeling option as the oracle.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cq/pattern.h"
#include "label/compressed_label.h"
#include "label/view_catalog.h"

namespace fdc::label {

class CompiledCatalogMatcher;

/// Reusable working state for MatchMaskBatch: the constant-probe memo. A
/// warm scratch (memo grown to the largest arity seen) makes MatchMaskBatch
/// allocation-free; one scratch serves any number of sequential batches
/// over any relations but must not be shared across threads concurrently.
class BatchScratch {
 private:
  friend class CompiledCatalogMatcher;

  /// Direct-mapped constant-probe memo, indexed by (position, hashed value
  /// key). Batches repeat constants heavily — a catalog's selection values
  /// form a small set — so after the first binary search for a value, every
  /// other pattern in the batch probing the same (position, value) resolves
  /// in O(1). Entries are validated by epoch so nothing is cleared between
  /// batches (a batch of one pattern must not pay a table wipe). Only
  /// values of ≤ 8 bytes are memoized: for those the prefix key plus the
  /// length IS the full value, so a hit needs no string dereference at all;
  /// longer values always take the binary search (they are rare as
  /// selection constants, and correctness never depends on the memo).
  struct ProbeMemo {
    uint64_t key = 0;
    uint64_t epoch = 0;
    const uint64_t* row = nullptr;
    uint32_t size = 0;
  };
  static constexpr int kProbeMemoBits = 6;  // 64 slots per position
  std::vector<ProbeMemo> memo_;             // arity << kProbeMemoBits slots
  uint64_t epoch_ = 0;
};

class CompiledCatalogMatcher {
 public:
  /// Largest pattern arity the discrimination net compiles for. Covers
  /// every real schema (the widest Facebook relation, User, has 34
  /// columns); wider relations fall back to the seed per-view loop inside
  /// MatchMask*, so results never change.
  static constexpr int kMaxCompiledArity = 64;

  CompiledCatalogMatcher() = default;

  /// Compiles `catalog` (one pass over its views). The catalog must outlive
  /// the matcher and must not be mutated afterwards — the matcher is a
  /// frozen artifact, rebuilt whenever the catalog is.
  static CompiledCatalogMatcher Compile(const ViewCatalog& catalog);

  /// Packed ℓ+ mask of `pattern` against its relation's views: bit i set
  /// iff AtomRewritable(pattern, i-th view of the relation) and
  /// i < kPackedViewCapacity — i.e. the low 32 bits of the full wide mask,
  /// matching the seed ComputePatternMask guard exactly. `pattern` must be
  /// normalized (class ids by first occurrence), which
  /// Dissect/AtomPattern::FromAtom guarantee. Zero allocation; lock-free.
  uint32_t MatchMask(const cq::AtomPattern& pattern) const;

  /// MatchMask wrapped in the packed per-atom label. Whole-query labeling
  /// (Dissect + one MatchLabel per atom) lives with the consumers —
  /// LabelingPipeline::LabelViaMatcher and ConcurrentLabeler::LabelCompiled
  /// — which layer their own counters over this kernel.
  PackedAtomLabel MatchLabel(const cq::AtomPattern& pattern) const {
    return PackedAtomLabel(static_cast<uint32_t>(pattern.relation),
                           MatchMask(pattern));
  }

  /// Mask words per view-set of `relation` (ceil(view count / 64), minimum
  /// 1 — also 1 for unknown relations). The stride of every wide-mask
  /// buffer a caller hands to MatchMaskWords.
  int MaskWords(int relation) const {
    const RelationNet* net = NetFor(relation);
    return net != nullptr ? net->words : 1;
  }

  /// Largest MaskWords over the catalog (1 for an empty catalog): size a
  /// single scratch buffer once and it fits every relation.
  int max_mask_words() const { return max_words_; }

  /// True iff `relation` has more views than a packed atom mask can carry,
  /// so its ℓ+ belongs in WideAtomLabel entries.
  bool UsesWideMask(int relation) const {
    const RelationNet* net = NetFor(relation);
    return net != nullptr && net->num_views > kPackedViewCapacity;
  }

  /// Full ℓ+ mask of `pattern` over *all* of its relation's views — no
  /// packed capacity, bit b of view b lives in out[b / 64]. Writes exactly
  /// MaskWords(pattern.relation) words into `out`. Zero allocation;
  /// lock-free; same C1–C5 evaluation as MatchMask.
  void MatchMaskWords(const cq::AtomPattern& pattern, uint64_t* out) const;

  /// MatchMaskWords into a reusable WideAtomLabel: sets the relation, fills
  /// the mask words, and normalizes (trims trailing zero words). Reuses
  /// `out->mask`'s storage, so a warm caller-owned label makes this
  /// allocation-free too.
  void MatchWideAtom(const cq::AtomPattern& pattern, WideAtomLabel* out) const;

  /// Batch-structured MatchMaskWords: evaluates this relation's net over
  /// all of `patterns` at once through the fused memoized kernel (see the
  /// header comment for the kernel structure). Every pattern must name the
  /// same relation (`patterns[0].relation`); consumers bucket per relation
  /// first. Writes patterns.size() rows of MaskWords(relation) words each
  /// into `out_masks` (row i = pattern i), bit-identical to calling
  /// MatchMaskWords per pattern — arity mismatches zero their row,
  /// fallback relations run the per-view loop per pattern. Allocation-free
  /// once `scratch` is warm; lock-free over the frozen net.
  void MatchMaskBatch(std::span<const cq::AtomPattern> patterns,
                      uint64_t* out_masks, BatchScratch* scratch) const;

  /// Pointer-batch overload for consumers whose bucketed atoms are not
  /// contiguous (LabelBatch buckets dissected atoms from many queries by
  /// relation without copying them). Identical contract otherwise.
  void MatchMaskBatch(std::span<const cq::AtomPattern* const> patterns,
                      uint64_t* out_masks, BatchScratch* scratch) const;

  /// Per-view rewritability tests the seed kernel would run for an atom
  /// over `relation` that a compiled evaluation does NOT run: the
  /// relation's full view count — or 0 for fallback relations, where the
  /// compiled path itself executes the per-view loop. Feeds the
  /// per_view_tests_avoided observability counters.
  int AvoidedPerViewTests(int relation) const {
    const RelationNet* net = NetFor(relation);
    return (net == nullptr || net->use_fallback) ? 0 : net->num_views;
  }

 private:
  /// One relation's compiled net, flat SoA: every mask is `words`
  /// consecutive uint64_t (the relation's MaskSpan width); per-position
  /// masks share one stride-`arity×words` layout, value tables one sorted
  /// (pos, value) span list with `words`-stride mask rows.
  struct RelationNet {
    int arity = 0;
    int words = 1;      // mask words per view-set: ceil(num_views / 64), ≥ 1
    int num_views = 0;  // total views of the relation (all representable)
    bool use_fallback = false;  // arity > kMaxCompiledArity: per-view loop
    // Per-position masks (arity × words each).
    std::vector<uint64_t> all_views;     // words: every compiled view
    std::vector<uint64_t> const_at;      // views with a constant at p
    std::vector<uint64_t> dist_at;       // views with a distinguished var
    // same_class[(q * arity + p) * words + w]: views with the same variable
    // class at positions q and p (both non-const).
    std::vector<uint64_t> same_class;
    // Constant-value table: values sorted within each position's span
    // [value_begin[p], value_begin[p + 1]); mask rows parallel to values.
    std::vector<int> value_begin;        // length arity + 1
    std::vector<std::string> values;
    std::vector<uint64_t> value_masks;   // values.size() × words
    // 8-byte big-endian prefix keys parallel to `values`. Key order is a
    // coarsening of the span's lexicographic order, so lookups binary-search
    // the integer keys and only touch strings to break prefix ties.
    std::vector<uint64_t> value_keys;
    // C2: view-side equalities. Views in the mask row require the incoming
    // pattern to imply equality between positions q and p.
    struct EqRequirement {
      uint16_t q = 0;
      uint16_t p = 0;
      uint32_t mask_row = 0;  // row index into eq_masks (× words)
    };
    std::vector<EqRequirement> eq_requirements;
    std::vector<uint64_t> eq_masks;      // eq_requirements.size() × words
    // Derived rows for the batch kernel: every per-position condition as a
    // single AND-able row, so classification never composes masks at eval
    // time. All precomputed from the rows above at compile time.
    std::vector<uint64_t> nc_at;         // arity × words: all_views & ~const_at
    std::vector<uint64_t> ncd_at;        // arity × words: nc_at & dist_at
    // value_masks row | dist_at of its position (parallel to value_masks).
    std::vector<uint64_t> value_or_dist;
    // (q·arity + p) rows: same_class | (dist_at[q] & dist_at[p]).
    std::vector<uint64_t> same_or_dist;
  };

  const RelationNet* NetFor(int relation) const {
    if (relation < 0 || static_cast<size_t>(relation) >= nets_.size()) {
      return nullptr;
    }
    return &nets_[static_cast<size_t>(relation)];
  }

  /// Mask row of views at `pattern.relation` selecting exactly `value` at
  /// position p, or nullptr when no view does. Wraps LookupRow over the
  /// value_masks rows.
  static const uint64_t* LookupValue(const RelationNet& net, int p,
                                     const std::string& value);

  /// Row index of `value` in position p's span of the flat value table
  /// (prefix-key binary search + string tie-break), or -1 when absent.
  /// `key` must be ValueKey(value).
  static int LookupRow(const RelationNet& net, int p, uint64_t key,
                       const std::string& value);

  /// The single-word kernel (net.words == 1): today's exact code shape, one
  /// uint64_t accumulator, no scratch.
  static uint64_t MatchWordNarrow(const RelationNet& net,
                                  const cq::AtomPattern& v);

  /// Shared body of the single-word kernel, parameterized over how C1/C3
  /// constant probes resolve: MatchWordNarrow passes the plain binary
  /// search; the batch kernel passes the BatchScratch probe memo. `lookup`
  /// gets (position, prefix key, value) and returns the row to AND — the
  /// value_or_dist row on a table hit, the dist row otherwise.
  template <typename Lookup>
  static uint64_t MatchNarrowImpl(const RelationNet& net,
                                  const cq::AtomPattern& v, Lookup lookup);

  /// The width-generic kernel (any net.words): accumulates into `out`.
  static void MatchWordsWide(const RelationNet& net, const cq::AtomPattern& v,
                             uint64_t* out);

  /// Per-view AtomRewritable loop for fallback relations, full bit range.
  void FallbackMaskWords(int relation, const cq::AtomPattern& v,
                         uint64_t* out, int words) const;

  /// Batch kernel core, generic over how the batch is stored (`at(i)` must
  /// yield the i-th cq::AtomPattern). Both public overloads forward here.
  template <typename Access>
  void MatchMaskBatchImpl(Access at, int n_patterns, uint64_t* out,
                          BatchScratch* scratch) const;

  const ViewCatalog* catalog_ = nullptr;
  std::vector<RelationNet> nets_;  // indexed by relation id
  int max_words_ = 1;
};

}  // namespace fdc::label
