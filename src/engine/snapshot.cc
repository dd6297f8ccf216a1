#include "engine/snapshot.h"

#include "label/pipeline.h"
#include "rewriting/atom_rewriting.h"

namespace fdc::engine {

std::shared_ptr<const FrozenCatalog> FrozenCatalog::Build(
    const label::ViewCatalog* catalog,
    std::span<const cq::ConjunctiveQuery> warmup,
    label::DissectOptions dissect_options) {
  auto frozen = std::shared_ptr<FrozenCatalog>(new FrozenCatalog());
  frozen->catalog_ = catalog;
  frozen->dissect_options_ = dissect_options;
  frozen->matcher_ = label::CompiledCatalogMatcher::Compile(*catalog);

  // Label the views' own defining queries and the warmup workload through
  // one LabelingPipeline sharing the frozen interner (so warmup query ids
  // land in the id space FindRawLabel/FindCanonicalLabel probe) and the
  // compiled matcher (so build-time labels come from the exact artifact the
  // serving tiers evaluate).
  label::LabelingPipeline pipeline(catalog, &frozen->interner_,
                                   /*cache=*/nullptr, dissect_options,
                                   /*options=*/{}, &frozen->matcher_);
  // Freeze-time labeling runs batched: the views' defining queries and the
  // warmup pool each go through LabelBatch, whose per-relation buckets feed
  // the batch-structured mask kernel — the whole table is labeled in a
  // handful of MatchMaskBatch calls instead of one net pass per atom.
  const int n = catalog->size();
  frozen->view_labels_.reserve(n);
  std::vector<cq::ConjunctiveQuery> view_queries;
  view_queries.reserve(n);
  for (int v = 0; v < n; ++v) {
    view_queries.push_back(catalog->view(v).pattern.ToQuery("V"));
  }
  std::vector<label::DisclosureLabel> view_labels =
      pipeline.LabelBatch(view_queries);
  for (int v = 0; v < n; ++v) {
    const cq::InternedQuery& interned =
        frozen->interner_.Intern(view_queries[static_cast<size_t>(v)]);
    frozen->label_by_query_.emplace(interned.id(),
                                    view_labels[static_cast<size_t>(v)]);
    frozen->view_labels_.push_back(
        std::move(view_labels[static_cast<size_t>(v)]));
  }

  // Rewriting-order closure over catalog views: one bit per ordered pair.
  // O(n²) AtomRewritable calls at build time — fine for real catalogs
  // (tens of views); consumed by explain/analysis tooling and the
  // equivalence tests, not the per-request hot path, so it is paid once
  // here rather than lazily under a lock.
  frozen->closure_stride_ = (static_cast<size_t>(n) + 63) / 64;
  frozen->closure_.assign(static_cast<size_t>(n) * frozen->closure_stride_,
                          0);
  for (int v = 0; v < n; ++v) {
    for (int w = 0; w < n; ++w) {
      if (rewriting::AtomRewritable(catalog->view(v).pattern,
                                    catalog->view(w).pattern)) {
        frozen->closure_[static_cast<size_t>(v) * frozen->closure_stride_ +
                         (static_cast<size_t>(w) >> 6)] |=
            (uint64_t{1} << (static_cast<size_t>(w) & 63));
      }
    }
  }

  // Frozen warmup tier: the whole pool labeled in one batch (LabelBatch
  // computes each distinct structure once; duplicates are memo probes).
  std::vector<label::DisclosureLabel> warmup_labels =
      pipeline.LabelBatch(warmup);
  for (size_t i = 0; i < warmup.size(); ++i) {
    const cq::InternedQuery& interned = frozen->interner_.Intern(warmup[i]);
    auto it = frozen->label_by_query_.find(interned.id());
    if (it == frozen->label_by_query_.end()) {
      frozen->label_by_query_.emplace(interned.id(),
                                      std::move(warmup_labels[i]));
    }
  }
  return frozen;
}

const label::DisclosureLabel* FrozenCatalog::LabelOf(
    const cq::InternedQuery* interned) const {
  if (interned == nullptr) return nullptr;
  auto it = label_by_query_.find(interned->id());
  if (it == label_by_query_.end()) return nullptr;
  return &it->second;
}

const label::DisclosureLabel* FrozenCatalog::FindRawLabel(
    const cq::ConjunctiveQuery& query, uint64_t raw_hash) const {
  return LabelOf(interner_.FindRaw(query, raw_hash));
}

const label::DisclosureLabel* FrozenCatalog::FindCanonicalLabel(
    const std::string& key) const {
  return LabelOf(interner_.FindCanonical(key));
}

}  // namespace fdc::engine
