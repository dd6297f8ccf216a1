#include "rewriting/containment_cache.h"

#include <bit>

#include "rewriting/atom_rewriting.h"
#include "rewriting/containment.h"
#include "rewriting/homomorphism.h"

namespace fdc::rewriting {

ContainmentCache::ContainmentCache(size_t capacity, size_t shards) {
  if (shards < 1) shards = 1;
  num_shards_ = std::bit_ceil(shards);
  if (capacity < 2 * num_shards_) capacity = 2 * num_shards_;
  slots_per_shard_ = std::bit_ceil(capacity) / num_shards_;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    shards_[s].entries = std::make_unique<Entry[]>(slots_per_shard_);
  }
}

uint64_t ContainmentCache::HashFor(Kind kind, uint64_t key) {
  // splitmix64-style finalizer over the key and kind; the full key is still
  // compared on lookup, so this only affects distribution, not correctness.
  // High bits pick the shard, low bits the slot within it.
  uint64_t h = key + 0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(kind) + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::optional<bool> ContainmentCache::Lookup(Kind kind, int a, int b) {
  const uint64_t key = MakeKey(a, b);
  const uint64_t hash = HashFor(kind, key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const Entry& entry = shard.entries[SlotFor(hash)];
  if (entry.kind == static_cast<uint32_t>(kind) && entry.key == key) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return entry.value;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ContainmentCache::Insert(Kind kind, int a, int b, bool value) {
  const uint64_t key = MakeKey(a, b);
  const uint64_t hash = HashFor(kind, key);
  Shard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  Entry& entry = shard.entries[SlotFor(hash)];
  if (entry.kind != 0 &&
      (entry.kind != static_cast<uint32_t>(kind) || entry.key != key)) {
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  entry = Entry{key, static_cast<uint32_t>(kind), value};
  shard.insertions.fetch_add(1, std::memory_order_relaxed);
}

bool ContainmentCache::Contained(const cq::InternedQuery& a,
                                 const cq::InternedQuery& b) {
  if (auto cached = Lookup(Kind::kQueryContainment, a.id(), b.id())) {
    return *cached;
  }
  // Computed outside any shard lock: a racing thread may duplicate the work,
  // but both store the same pure-function result.
  bool result;
  const cq::QueryDigest& da = a.digest();
  const cq::QueryDigest& db = b.digest();
  if (da.head_arity != db.head_arity) {
    result = false;  // incomparable, as in IsContainedIn
  } else if (!cq::MayHaveHomomorphismInto(db, da)) {
    // a ⊆ b needs a homomorphism b → a; some relation of b is absent from a.
    result = false;
  } else {
    // One scratch arena per thread (Contained runs outside shard locks, so
    // concurrent callers each need their own): after the first search on a
    // thread, containment compute makes zero heap allocations.
    static thread_local HomScratch scratch;
    if (scratch.uses > 0) {
      hom_scratch_reuses_.fetch_add(1, std::memory_order_relaxed);
    }
    result = IsContainedIn(a.query(), b.query(), &scratch);
  }
  Insert(Kind::kQueryContainment, a.id(), b.id(), result);
  return result;
}

bool ContainmentCache::RewritableCached(const cq::QueryInterner& interner,
                                        int pattern_id, int view_id,
                                        const cq::AtomPattern& v,
                                        const cq::AtomPattern& w) {
  uint64_t bound = 0;
  // Bind to the first interner's uid; losers of the race observe the
  // winner's uid in `bound`.
  if (!pattern_id_space_uid_.compare_exchange_strong(
          bound, interner.uid(), std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    if (bound != interner.uid()) {
      // Foreign interner: its pattern ids would alias the bound id space.
      return AtomRewritable(v, w);
    }
  }
  if (auto cached = Lookup(Kind::kCatalogRewritable, pattern_id, view_id)) {
    return *cached;
  }
  const bool result = AtomRewritable(v, w);
  Insert(Kind::kCatalogRewritable, pattern_id, view_id, result);
  return result;
}

ContainmentCache::Stats ContainmentCache::stats() const {
  Stats total;
  for (size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.insertions += shard.insertions.load(std::memory_order_relaxed);
    total.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  total.hom_scratch_reuses =
      hom_scratch_reuses_.load(std::memory_order_relaxed);
  return total;
}

void ContainmentCache::Clear() {
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = 0; i < slots_per_shard_; ++i) shard.entries[i] = Entry{};
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.insertions.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
  }
  pattern_id_space_uid_.store(0, std::memory_order_release);
  hom_scratch_reuses_.store(0, std::memory_order_relaxed);
}

}  // namespace fdc::rewriting
