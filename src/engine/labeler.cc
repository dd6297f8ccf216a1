#include "engine/labeler.h"

#include <mutex>
#include <string>
#include <utility>

#include "cq/canonical.h"
#include "label/dissect.h"

namespace fdc::engine {

ConcurrentLabeler::ConcurrentLabeler(
    std::shared_ptr<const FrozenCatalog> frozen, Options options)
    : frozen_(std::move(frozen)), options_(options) {}

label::DisclosureLabel ConcurrentLabeler::LabelCompiled(
    const cq::ConjunctiveQuery& query) {
  // One matcher evaluation per atom against the frozen artifact — no
  // pattern interning, no mask memo, no cache probes, no locks. Relations
  // beyond the packed view capacity get exact multi-word wide atoms.
  label::DisclosureLabel label;
  const label::CompiledCatalogMatcher& matcher = frozen_->matcher();
  for (const cq::AtomPattern& atom :
       label::Dissect(query, frozen_->dissect_options())) {
    compiled_mask_evals_.fetch_add(1, std::memory_order_relaxed);
    per_view_tests_avoided_.fetch_add(
        static_cast<uint64_t>(matcher.AvoidedPerViewTests(atom.relation)),
        std::memory_order_relaxed);
    if (matcher.UsesWideMask(atom.relation)) {
      wide_mask_evals_.fetch_add(1, std::memory_order_relaxed);
      label::WideAtomLabel wide;
      matcher.MatchWideAtom(atom, &wide);
      label.AddWide(std::move(wide));
    } else {
      label.Add(matcher.MatchLabel(atom));
    }
  }
  label.Seal();
  return label;
}

template <typename Find>
bool ConcurrentLabeler::ProbeOverlay(Find&& find,
                                     label::DisclosureLabel* out) {
  std::shared_lock<locks::CountedSharedMutex> lock(mu_);
  overlay_reader_locks_.fetch_add(1, std::memory_order_relaxed);
  const cq::InternedQuery* interned = find();
  if (interned == nullptr) return false;
  auto it = label_by_query_.find(interned->id());
  if (it == label_by_query_.end()) return false;
  overlay_hits_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second;
  return true;
}

bool ConcurrentLabeler::ProbeReadTiers(const cq::ConjunctiveQuery& query,
                                       Probe* probe,
                                       label::DisclosureLabel* out) {
  // Raw levels first: a byte-identical repeat resolves with one structural
  // hash and no canonicalization. The order cannot change a result — the
  // overlay interns a structure only after the frozen tier missed it at
  // both levels, so a raw form the overlay holds is never frozen.
  probe->raw_hash = cq::QueryInterner::RawHash(query);
  if (const label::DisclosureLabel* hit =
          frozen_->FindRawLabel(query, probe->raw_hash)) {
    frozen_hits_.fetch_add(1, std::memory_order_relaxed);
    *out = *hit;
    return true;
  }
  if (ProbeOverlay([&] { return interner_.FindRaw(query, probe->raw_hash); },
                   out)) {
    return true;
  }

  // Canonical levels: the query's one canonicalization, kept in `probe`
  // for the writer pass.
  probe->canonical = cq::Canonicalize(query);
  probe->key = cq::CanonicalFormKey(probe->canonical);
  canonicalizations_.fetch_add(1, std::memory_order_relaxed);
  if (const label::DisclosureLabel* hit =
          frozen_->FindCanonicalLabel(probe->key)) {
    frozen_hits_.fetch_add(1, std::memory_order_relaxed);
    *out = *hit;
    return true;
  }
  return ProbeOverlay([&] { return interner_.FindCanonical(probe->key); },
                      out);
}

const cq::InternedQuery* ConcurrentLabeler::InternLocked(
    const cq::ConjunctiveQuery& query, Probe* probe) {
  return interner_.TryIntern(query, probe->raw_hash,
                             std::move(probe->canonical),
                             std::move(probe->key),
                             options_.max_interned_queries);
}

label::DisclosureLabel ConcurrentLabeler::Label(
    const cq::ConjunctiveQuery& query) {
  Probe probe;
  label::DisclosureLabel label;
  if (ProbeReadTiers(query, &probe, &label)) return label;

  // Writer pass: label, intern, memoize. The label is computed *before*
  // the writer lock — LabelCompiled only reads frozen state, so N threads
  // labeling distinct novel structures (Dissect, folding's hom searches,
  // the net evaluations) proceed in parallel and the exclusive section
  // shrinks to TryIntern + one memo insert. Labels are pure functions of
  // the structure, so a racing duplicate compute stores the identical
  // value.
  label = LabelCompiled(query);
  std::unique_lock<locks::CountedSharedMutex> lock(mu_);
  const cq::InternedQuery* interned = InternLocked(query, &probe);
  if (interned == nullptr) {
    // Overlay saturated; the label is already stateless.
    lock.unlock();
    stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return label;
  }
  auto it = label_by_query_.find(interned->id());
  if (it != label_by_query_.end()) {
    overlay_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  overlay_misses_.fetch_add(1, std::memory_order_relaxed);
  if (label_by_query_.size() >= options_.max_label_cache) {
    label_by_query_.clear();
  }
  label_by_query_.emplace(interned->id(), label);
  return label;
}

std::vector<label::DisclosureLabel> ConcurrentLabeler::LabelBatch(
    std::span<const cq::ConjunctiveQuery> queries) {
  // Forward to the pointer-span core (the serving front end's shape).
  std::vector<const cq::ConjunctiveQuery*> ptrs;
  ptrs.reserve(queries.size());
  for (const cq::ConjunctiveQuery& query : queries) ptrs.push_back(&query);
  return LabelBatch(std::span<const cq::ConjunctiveQuery* const>(ptrs));
}

std::vector<label::DisclosureLabel> ConcurrentLabeler::LabelBatch(
    std::span<const cq::ConjunctiveQuery* const> queries) {
  // Read-side tiers per query, in Label's order; the misses keep their
  // probe (raw hash + the one canonical form) for the writer passes.
  std::vector<label::DisclosureLabel> out(queries.size());
  std::vector<size_t> unresolved;
  std::vector<Probe> probes;  // parallel to `unresolved`
  {
    // One probe reused across the loop: ProbeReadTiers overwrites every
    // field it later reads, so a moved-from probe needs no reset.
    Probe probe;
    for (size_t k = 0; k < queries.size(); ++k) {
      if (ProbeReadTiers(*queries[k], &probe, &out[k])) continue;
      unresolved.push_back(k);
      probes.push_back(std::move(probe));
    }
  }
  if (unresolved.empty()) return out;

  // Writer pass 1: intern the misses and dedupe the batch's novel
  // structures (racing threads may have labeled some since the reader
  // probe — those resolve here). Saturated-interner queries get compute
  // slots too; they are just never memoized.
  constexpr int32_t kResolved = -1;
  std::vector<int32_t> slot_of(unresolved.size(), kResolved);
  std::vector<int> slot_id;  // interned id per slot, -1 = stateless
  std::vector<const cq::ConjunctiveQuery*> slot_query;
  std::unordered_map<int, int32_t> first_slot;
  {
    std::unique_lock<locks::CountedSharedMutex> lock(mu_);
    for (size_t u = 0; u < unresolved.size(); ++u) {
      const size_t k = unresolved[u];
      const cq::InternedQuery* interned = InternLocked(*queries[k], &probes[u]);
      if (interned == nullptr) {
        stateless_fallbacks_.fetch_add(1, std::memory_order_relaxed);
        slot_of[u] = static_cast<int32_t>(slot_id.size());
        slot_id.push_back(-1);
        slot_query.push_back(queries[k]);
        continue;
      }
      const int id = interned->id();
      auto it = label_by_query_.find(id);
      if (it != label_by_query_.end()) {
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        out[k] = it->second;
        continue;
      }
      auto fit = first_slot.find(id);
      if (fit != first_slot.end()) {
        overlay_hits_.fetch_add(1, std::memory_order_relaxed);
        slot_of[u] = fit->second;  // batch-internal duplicate structure
        continue;
      }
      const int32_t slot = static_cast<int32_t>(slot_id.size());
      first_slot.emplace(id, slot);
      slot_of[u] = slot;
      slot_id.push_back(id);
      slot_query.push_back(queries[k]);
    }
  }

  // Heavy compute with no lock held: Dissect + the per-relation
  // MatchMaskBatch buckets over every distinct novel structure at once.
  // Labels are pure functions of the (raw) query — exactly what the
  // per-query compiled path evaluates — so per-thread scratch suffices.
  if (!slot_query.empty()) {
    thread_local label::BatchLabelScratch scratch;
    std::vector<label::DisclosureLabel> computed;
    label::BatchLabelCounters counters;
    label::LabelQueriesBatched(
        frozen_->matcher(), frozen_->dissect_options(),
        std::span<const cq::ConjunctiveQuery* const>(slot_query), &scratch,
        &computed, &counters);
    compiled_mask_evals_.fetch_add(counters.batch_mask_evals,
                                   std::memory_order_relaxed);
    batch_mask_evals_.fetch_add(counters.batch_mask_evals,
                                std::memory_order_relaxed);
    wide_mask_evals_.fetch_add(counters.wide_mask_evals,
                               std::memory_order_relaxed);
    per_view_tests_avoided_.fetch_add(counters.per_view_tests_avoided,
                                      std::memory_order_relaxed);

    // Writer pass 2: memoize the genuinely novel structures. A racing
    // duplicate insert loses harmlessly — labels of one structure are
    // identical by purity.
    {
      std::unique_lock<locks::CountedSharedMutex> lock(mu_);
      for (size_t s = 0; s < slot_id.size(); ++s) {
        if (slot_id[s] < 0) continue;  // stateless: never memoized
        overlay_misses_.fetch_add(1, std::memory_order_relaxed);
        if (label_by_query_.size() >= options_.max_label_cache) {
          label_by_query_.clear();
        }
        label_by_query_.emplace(slot_id[s], computed[s]);
      }
    }
    for (size_t u = 0; u < unresolved.size(); ++u) {
      if (slot_of[u] != kResolved) {
        out[unresolved[u]] = computed[static_cast<size_t>(slot_of[u])];
      }
    }
  }
  return out;
}

ConcurrentLabeler::Stats ConcurrentLabeler::stats() const {
  Stats stats;
  stats.frozen_hits = frozen_hits_.load(std::memory_order_relaxed);
  stats.overlay_hits = overlay_hits_.load(std::memory_order_relaxed);
  stats.overlay_misses = overlay_misses_.load(std::memory_order_relaxed);
  stats.stateless_fallbacks =
      stateless_fallbacks_.load(std::memory_order_relaxed);
  stats.compiled_mask_evals =
      compiled_mask_evals_.load(std::memory_order_relaxed);
  stats.wide_mask_evals = wide_mask_evals_.load(std::memory_order_relaxed);
  stats.batch_mask_evals = batch_mask_evals_.load(std::memory_order_relaxed);
  stats.per_view_tests_avoided =
      per_view_tests_avoided_.load(std::memory_order_relaxed);
  stats.overlay_reader_locks =
      overlay_reader_locks_.load(std::memory_order_relaxed);
  stats.canonicalizations =
      canonicalizations_.load(std::memory_order_relaxed);
  return stats;
}

cq::QueryInterner::Stats ConcurrentLabeler::interner_stats() const {
  std::shared_lock<locks::CountedSharedMutex> lock(mu_);
  return interner_.stats();
}

}  // namespace fdc::engine
