#include "label/pipeline.h"

#include <algorithm>

#include "rewriting/atom_rewriting.h"

namespace fdc::label {

bool SetLabel::Leq(const SetLabel& other) const {
  if (other.top) return true;
  if (top) return false;
  for (const std::set<int>& a : per_atom) {
    bool bounded = false;
    for (const std::set<int>& b : other.per_atom) {
      // ℓ+(a) ⊇ ℓ+(b).
      bounded = std::includes(a.begin(), a.end(), b.begin(), b.end());
      if (bounded) break;
    }
    if (!bounded) return false;
  }
  return true;
}

SetLabel LabelerPipeline::LabelBaseline(
    const cq::ConjunctiveQuery& query) const {
  SetLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    std::set<int> plus;
    // Deliberately scan every view in the catalog: views over other
    // relations fail inside AtomRewritable. This is the §4.2 algorithm
    // without the §6 optimizations.
    for (const SecurityView& view : catalog_->views()) {
      if (rewriting::AtomRewritable(atom, view.pattern)) {
        plus.insert(view.id);
      }
    }
    if (plus.empty()) label.top = true;
    label.per_atom.push_back(std::move(plus));
  }
  return label;
}

SetLabel LabelerPipeline::LabelHashed(const cq::ConjunctiveQuery& query) const {
  SetLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    std::set<int> plus;
    for (int view_id : catalog_->ViewsOfRelation(atom.relation)) {
      if (rewriting::AtomRewritable(atom, catalog_->view(view_id).pattern)) {
        plus.insert(view_id);
      }
    }
    if (plus.empty()) label.top = true;
    label.per_atom.push_back(std::move(plus));
  }
  return label;
}

DisclosureLabel LabelerPipeline::LabelPacked(
    const cq::ConjunctiveQuery& query) const {
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    uint32_t mask = 0;
    for (int view_id : catalog_->ViewsOfRelation(atom.relation)) {
      const SecurityView& view = catalog_->view(view_id);
      // Packed masks hold kPackedViewCapacity views per relation; views
      // beyond that are excluded (labels get strictly higher — fail-safe),
      // never shifted out of range. The matcher path carries such
      // relations exactly, as wide atoms.
      if (view.bit < kPackedViewCapacity &&
          rewriting::AtomRewritable(atom, view.pattern)) {
        mask |= (1u << view.bit);
      }
    }
    label.Add(PackedAtomLabel(static_cast<uint32_t>(atom.relation), mask));
  }
  label.Seal();
  return label;
}

LabelingPipeline::LabelingPipeline(const ViewCatalog* catalog,
                                   cq::QueryInterner* interner,
                                   rewriting::ContainmentCache* cache,
                                   DissectOptions dissect_options,
                                   Options options,
                                   const CompiledCatalogMatcher* matcher)
    : inner_(catalog, dissect_options),
      dissect_options_(dissect_options),
      options_(options),
      interner_(interner),
      cache_(cache),
      matcher_(matcher) {
  if (interner_ == nullptr) {
    owned_interner_ = std::make_unique<cq::QueryInterner>();
    interner_ = owned_interner_.get();
  }
  if (options_.ablate_compiled_matcher) {
    matcher_ = nullptr;  // seed kernel is the whole point of the ablation
    // The seed kernel probes the cache on its hot path — build it up
    // front. On the compiled path nothing probes it, so a private cache
    // is created lazily on first use (EnsureCache) instead of paying
    // ~1.5 MB per pipeline (e.g. once per FrozenCatalog build).
    EnsureCache();
  } else if (matcher_ == nullptr && !options_.ablate_interning) {
    // ablate_interning routes every query through LabelPacked (the seed
    // benchmark baseline), which never consults the matcher — skip the
    // compile rather than build a dead artifact.
    owned_matcher_ = std::make_unique<CompiledCatalogMatcher>(
        CompiledCatalogMatcher::Compile(*catalog));
    matcher_ = owned_matcher_.get();
  }
}

PackedAtomLabel ComputePatternMask(const ViewCatalog& catalog,
                                   const cq::QueryInterner& interner,
                                   rewriting::ContainmentCache& cache,
                                   int pattern_id,
                                   const cq::AtomPattern& pattern) {
  uint32_t mask = 0;
  for (int view_id : catalog.ViewsOfRelation(pattern.relation)) {
    const SecurityView& view = catalog.view(view_id);
    // OutOfRange guard at the kernel: packed masks carry
    // kPackedViewCapacity views per relation, and shifting by bit ≥ 32 is
    // UB (the seed only asserted one level up, in ComputeLabel, and the
    // assert vanishes under NDEBUG). Excess views are excluded — labels
    // get strictly higher (stricter, fail-safe) — identically to
    // CompiledCatalogMatcher::MatchMask and LabelPacked, so the packed
    // kernels stay mask-for-mask equivalent; the wide matcher path is the
    // one that represents such views exactly.
    if (view.bit < kPackedViewCapacity &&
        cache.RewritableCached(interner, pattern_id, view_id, pattern,
                               view.pattern)) {
      mask |= (1u << view.bit);
    }
  }
  return PackedAtomLabel(static_cast<uint32_t>(pattern.relation), mask);
}

void LabelQueriesBatched(const CompiledCatalogMatcher& matcher,
                         DissectOptions dissect_options,
                         std::span<const cq::ConjunctiveQuery* const> queries,
                         BatchLabelScratch* scratch,
                         std::vector<DisclosureLabel>* labels,
                         BatchLabelCounters* counters) {
  labels->clear();
  labels->resize(queries.size());
  if (queries.empty()) return;

  // Dissect every query into one flat atom pool (folding included — the
  // same Dissect the per-query paths run).
  scratch->atoms.clear();
  scratch->atom_query.clear();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (cq::AtomPattern& atom : Dissect(*queries[qi], dissect_options)) {
      scratch->atoms.push_back(std::move(atom));
      scratch->atom_query.push_back(static_cast<int32_t>(qi));
    }
  }
  const int total = static_cast<int>(scratch->atoms.size());
  scratch->order.resize(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) scratch->order[static_cast<size_t>(i)] = i;
  // Bucket by relation, arrival order within a bucket (deterministic and
  // stable without std::stable_sort's temporary buffer).
  std::sort(scratch->order.begin(), scratch->order.end(),
            [scratch](int32_t a, int32_t b) {
              const int ra = scratch->atoms[static_cast<size_t>(a)].relation;
              const int rb = scratch->atoms[static_cast<size_t>(b)].relation;
              if (ra != rb) return ra < rb;
              return a < b;
            });

  // Hoisted bucket mask buffer: max bucket length × max words covers every
  // bucket, sized once per call (and only grown across calls).
  int max_bucket = 0;
  for (int i = 0; i < total;) {
    const int relation = scratch->atoms[scratch->order[i]].relation;
    int j = i + 1;
    while (j < total && scratch->atoms[scratch->order[j]].relation == relation)
      ++j;
    max_bucket = std::max(max_bucket, j - i);
    i = j;
  }
  const size_t masks_needed =
      static_cast<size_t>(max_bucket) * matcher.max_mask_words();
  if (scratch->masks.size() < masks_needed) scratch->masks.resize(masks_needed);

  for (int i = 0; i < total;) {
    const int relation = scratch->atoms[scratch->order[i]].relation;
    int j = i + 1;
    while (j < total && scratch->atoms[scratch->order[j]].relation == relation)
      ++j;
    const int len = j - i;
    scratch->bucket.clear();
    for (int k = i; k < j; ++k) {
      scratch->bucket.push_back(&scratch->atoms[scratch->order[k]]);
    }
    const int W = matcher.MaskWords(relation);
    matcher.MatchMaskBatch(
        std::span<const cq::AtomPattern* const>(scratch->bucket),
        scratch->masks.data(), &scratch->kernel);
    counters->batch_mask_evals += static_cast<uint64_t>(len);
    counters->per_view_tests_avoided +=
        static_cast<uint64_t>(len) *
        static_cast<uint64_t>(matcher.AvoidedPerViewTests(relation));
    const bool wide = matcher.UsesWideMask(relation);
    if (wide) counters->wide_mask_evals += static_cast<uint64_t>(len);
    for (int k = i; k < j; ++k) {
      DisclosureLabel& label =
          (*labels)[static_cast<size_t>(scratch->atom_query[scratch->order[k]])];
      const uint64_t* row =
          scratch->masks.data() + static_cast<size_t>(k - i) * W;
      if (wide) {
        WideAtomLabel atom;
        atom.relation = relation;
        atom.mask.assign(row, row + W);
        label.AddWide(std::move(atom));
      } else {
        label.Add(PackedAtomLabel(static_cast<uint32_t>(relation),
                                  static_cast<uint32_t>(row[0])));
      }
    }
    i = j;
  }
  for (DisclosureLabel& label : *labels) label.Seal();
}

rewriting::ContainmentCache& LabelingPipeline::EnsureCache() {
  if (cache_ == nullptr) {
    owned_cache_ = std::make_unique<rewriting::ContainmentCache>();
    cache_ = owned_cache_.get();
  }
  return *cache_;
}

PackedAtomLabel LabelingPipeline::MaskFor(int pattern_id,
                                          const cq::AtomPattern& pattern) {
  auto it = mask_by_pattern_.find(pattern_id);
  if (it != mask_by_pattern_.end()) {
    ++stats_.mask_hits;
    return it->second;
  }
  ++stats_.mask_misses;
  const PackedAtomLabel packed = ComputePatternMask(
      inner_.catalog(), *interner_, EnsureCache(), pattern_id, pattern);
  mask_by_pattern_.emplace(pattern_id, packed);
  return packed;
}

DisclosureLabel LabelingPipeline::LabelViaMatcher(
    const cq::ConjunctiveQuery& query) {
  // Compiled path: one net evaluation per atom — no pattern interning
  // (which builds a key string), no mask memo, no cache probes. The net
  // evaluation is cheaper than the memo probe it would feed. Relations
  // beyond the packed view capacity get exact multi-word wide atoms; the
  // rest keep the packed representation (same kernel, one word).
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    ++stats_.compiled_mask_evals;
    stats_.per_view_tests_avoided +=
        static_cast<uint64_t>(matcher_->AvoidedPerViewTests(atom.relation));
    if (matcher_->UsesWideMask(atom.relation)) {
      ++stats_.wide_mask_evals;
      WideAtomLabel wide;
      matcher_->MatchWideAtom(atom, &wide);
      label.AddWide(std::move(wide));
    } else {
      label.Add(matcher_->MatchLabel(atom));
    }
  }
  label.Seal();
  return label;
}

DisclosureLabel LabelingPipeline::LabelStateless(
    const cq::ConjunctiveQuery& query) {
  if (matcher_ != nullptr) return LabelViaMatcher(query);
  return inner_.LabelPacked(query);
}

DisclosureLabel LabelingPipeline::ComputeLabel(
    const cq::ConjunctiveQuery& canonical) {
  if (matcher_ != nullptr) return LabelViaMatcher(canonical);
  DisclosureLabel label;
  for (const cq::AtomPattern& atom : Dissect(canonical, dissect_options_)) {
    label.Add(MaskFor(interner_->InternPattern(atom), atom));
  }
  label.Seal();
  return label;
}

DisclosureLabel LabelingPipeline::Label(const cq::ConjunctiveQuery& query) {
  if (options_.ablate_interning) return inner_.LabelPacked(query);
  const cq::InternedQuery* handle =
      interner_->TryIntern(query, options_.max_interned_queries);
  if (handle == nullptr) return LabelStateless(query);  // saturated
  const cq::InternedQuery& interned = *handle;
  auto it = label_by_query_.find(interned.id());
  if (it != label_by_query_.end()) {
    ++stats_.label_hits;
    return it->second;
  }
  ++stats_.label_misses;
  if (label_by_query_.size() >= options_.max_label_cache) {
    label_by_query_.clear();
  }
  DisclosureLabel label = ComputeLabel(interned.query());
  label_by_query_.emplace(interned.id(), label);
  return label;
}

std::vector<DisclosureLabel> LabelingPipeline::LabelBatch(
    std::span<const cq::ConjunctiveQuery> queries) {
  std::vector<DisclosureLabel> out;
  out.reserve(queries.size());
  if (options_.ablate_interning) {
    for (const cq::ConjunctiveQuery& query : queries) {
      out.push_back(inner_.LabelPacked(query));
    }
    return out;
  }
  // Bucket by interned id against the persistent memo: the batch's
  // distinct structures are labeled once, duplicates cost one map probe.
  // The capacity check runs only between batches so memo references stay
  // stable within one.
  if (label_by_query_.size() >= options_.max_label_cache) {
    label_by_query_.clear();
  }
  if (matcher_ == nullptr || options_.ablate_batch_kernel) {
    // Pre-batch-kernel shape: each novel structure through the per-atom
    // compiled (or seed) kernel. Kept as the ablation baseline.
    for (const cq::ConjunctiveQuery& query : queries) {
      const cq::InternedQuery* handle =
          interner_->TryIntern(query, options_.max_interned_queries);
      if (handle == nullptr) {
        out.push_back(LabelStateless(query));  // interner saturated
        continue;
      }
      const int id = handle->id();
      auto it = label_by_query_.find(id);
      if (it == label_by_query_.end()) {
        ++stats_.label_misses;
        it = label_by_query_
                 .emplace(id, ComputeLabel(interner_->query(id).query()))
                 .first;
      } else {
        ++stats_.label_hits;
      }
      out.push_back(it->second);
    }
    return out;
  }

  // Batched path: one intern/memo pass marks the novel structures, then
  // their dissected atoms are bucketed per relation and evaluated through
  // the batch kernel (LabelQueriesBatched) — the same labels the per-query
  // path computes, one MatchMaskBatch per relation instead of one
  // MatchMaskWords per atom.
  out.resize(queries.size());
  struct PendingQuery {
    size_t out_index;
    int id;
  };
  std::vector<PendingQuery> pending;
  std::vector<int> novel_ids;
  std::vector<const cq::ConjunctiveQuery*> novel_queries;
  std::unordered_map<int, int32_t> novel_slot;
  for (size_t k = 0; k < queries.size(); ++k) {
    const cq::InternedQuery* handle =
        interner_->TryIntern(queries[k], options_.max_interned_queries);
    if (handle == nullptr) {
      out[k] = LabelStateless(queries[k]);  // interner saturated
      continue;
    }
    const int id = handle->id();
    auto it = label_by_query_.find(id);
    if (it != label_by_query_.end()) {
      ++stats_.label_hits;
      out[k] = it->second;
      continue;
    }
    pending.push_back({k, id});
    if (novel_slot.emplace(id, static_cast<int32_t>(novel_ids.size())).second) {
      ++stats_.label_misses;
      novel_ids.push_back(id);
      novel_queries.push_back(&interner_->query(id).query());
    } else {
      ++stats_.label_hits;  // batch-internal duplicate, as on the memo path
    }
  }
  if (!novel_queries.empty()) {
    std::vector<DisclosureLabel> novel_labels;
    BatchLabelCounters counters;
    LabelQueriesBatched(*matcher_, dissect_options_,
                        std::span<const cq::ConjunctiveQuery* const>(
                            novel_queries),
                        &batch_scratch_, &novel_labels, &counters);
    stats_.compiled_mask_evals += counters.batch_mask_evals;
    stats_.batch_mask_evals += counters.batch_mask_evals;
    stats_.wide_mask_evals += counters.wide_mask_evals;
    stats_.per_view_tests_avoided += counters.per_view_tests_avoided;
    for (size_t s = 0; s < novel_ids.size(); ++s) {
      label_by_query_.emplace(novel_ids[s], std::move(novel_labels[s]));
    }
  }
  for (const PendingQuery& p : pending) {
    out[p.out_index] = label_by_query_.find(p.id)->second;
  }
  return out;
}

WideLabel LabelerPipeline::LabelWide(const cq::ConjunctiveQuery& query) const {
  WideLabel label;
  for (const cq::AtomPattern& atom : Dissect(query, dissect_options_)) {
    WideAtomLabel wide;
    wide.relation = atom.relation;
    for (int view_id : catalog_->ViewsOfRelation(atom.relation)) {
      const SecurityView& view = catalog_->view(view_id);
      if (rewriting::AtomRewritable(atom, view.pattern)) {
        wide.SetBit(view.bit);
      }
    }
    label.Add(std::move(wide));
  }
  return label;
}

}  // namespace fdc::label
