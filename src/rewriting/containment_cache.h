// A sized, sharded, thread-safe memoization table for pairwise query
// decisions.
//
// The seed memoized {v} ⪯ {w} results in an ad-hoc unordered_map private to
// RewritingOrder, so GlbLabeler, DisclosureLattice, and the overprivilege
// analysis each re-derived the same pairs when they held different order
// objects, and the map grew without bound. ContainmentCache replaces it
// with a transposition-table design shared across all consumers:
//
//   * fixed capacity (power of two), zero allocation after construction;
//   * direct-mapped: a colliding insert evicts the previous occupant, so
//     memory stays bounded under adversarial workloads while the repeated-
//     structure common case (§7.2) stays ~100% hit;
//   * exact keys: the full (kind, a, b) triple is stored and compared, so
//     distinct pairs never alias — including negative or INT_MAX ids (the
//     seed's LeqPair key had no such guard; see containment_cache_test.cc);
//   * per-kind namespaces so different id spaces (universe view ids,
//     catalog view ids, interned query/pattern ids) share one table without
//     cross-talk.
//
// Sharing contract: the table is split into mutex-striped shards selected
// by key hash, so one instance is safe for any number of concurrent
// callers. Lookup and Insert each hold exactly one shard mutex for the
// probe or the store, and never while computing a decision (a racing pair
// may both compute the same value; both inserts store the identical
// decision, so the race is benign).
//
// stats() sums the per-shard counters (relaxed atomics) and may interleave
// with updates, so it is a consistent-enough snapshot for observability,
// not an exact linearizable count. Clear() is the one exception to the
// concurrency contract: it requires quiescence (no in-flight
// Lookup/Insert/Contained/RewritableCached) — it locks shards one at a time
// and resets the interner-uid binding, so a concurrent RewritableCached
// caller that passed the uid check pre-clear could insert a stale
// pattern-id entry that survives into a rebinding to a different interner.
// Decisions cached here must be pure functions of the id pair; callers pick
// the Kind matching their id space.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "cq/interned.h"

namespace fdc::rewriting {

class ContainmentCache {
 public:
  /// Id-space namespaces. One cache instance may serve several kinds, but a
  /// kind must only ever be used with one id space (e.g. one universe).
  enum class Kind : uint32_t {
    kUniverseRewritable = 1,  // (universe view id, universe view id)
    kCatalogRewritable = 2,   // (interned pattern id, catalog view id)
    kQueryContainment = 3,    // (interned query id, interned query id)
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    /// Homomorphism searches (Contained misses) served by an already-warm
    /// thread-local HomScratch — i.e. containment decisions computed with
    /// zero steady-state heap allocation.
    uint64_t hom_scratch_reuses = 0;
  };

  /// `capacity` (total, across shards) is rounded up to a power of two;
  /// default fits ~64K pair decisions in ~1.5 MB. `shards` is rounded to a
  /// power of two too; the default is plenty of stripes for any realistic
  /// serving-thread count.
  explicit ContainmentCache(size_t capacity = 1 << 16, size_t shards = 64);

  /// Cached decision for (kind, a, b), or nullopt on miss.
  std::optional<bool> Lookup(Kind kind, int a, int b);

  /// Records a decision, evicting any colliding entry.
  void Insert(Kind kind, int a, int b, bool value);

  /// Memoized a ⊆ b (IsContainedIn) on interned queries, with digest-level
  /// fast rejects before the homomorphism search. Misses that do reach the
  /// search run it inside a thread-local HomScratch, so steady-state
  /// containment compute allocates nothing.
  bool Contained(const cq::InternedQuery& a, const cq::InternedQuery& b);

  /// Memoized AtomRewritable(v, w) under kCatalogRewritable, keyed by
  /// (interned pattern id, catalog view id). The single shared entry point
  /// for the labeling pipeline and the overprivilege audit, so the key
  /// scheme cannot drift between them. The cache binds to the uid of the
  /// first `interner` it sees (uids are process-unique and never reused,
  /// unlike addresses): pattern ids from a *different* interner would
  /// alias, so calls with another interner compute without touching the
  /// cache (correct, just uncached) — misuse cannot poison label
  /// decisions. Clear() drops the binding along with the entries.
  bool RewritableCached(const cq::QueryInterner& interner, int pattern_id,
                        int view_id, const cq::AtomPattern& v,
                        const cq::AtomPattern& w);

  /// Per-shard counters summed; see the header comment for the (weak)
  /// consistency of this snapshot under concurrency.
  Stats stats() const;

  size_t capacity() const { return num_shards_ * slots_per_shard_; }
  size_t num_shards() const { return num_shards_; }
  void Clear();

 private:
  // Guarded by the owning shard's mutex.
  struct Entry {
    uint64_t key = 0;   // (a << 32) | b, both cast via uint32_t
    uint32_t kind = 0;  // 0 = empty slot
    bool value = false;
  };

  struct Shard {
    std::mutex mu;
    std::unique_ptr<Entry[]> entries;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
  };

  // Injective over all (int, int) pairs: int -> uint32_t is a bijection.
  static uint64_t MakeKey(int a, int b) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
           static_cast<uint32_t>(b);
  }
  static uint64_t HashFor(Kind kind, uint64_t key);
  Shard& ShardFor(uint64_t hash) {
    return shards_[(hash >> 32) & (num_shards_ - 1)];
  }
  size_t SlotFor(uint64_t hash) const {
    return static_cast<size_t>(hash) & (slots_per_shard_ - 1);
  }

  size_t num_shards_;
  size_t slots_per_shard_;
  std::unique_ptr<Shard[]> shards_;
  // uid of the interner whose pattern ids populate kCatalogRewritable
  // entries (bound by the first RewritableCached call; 0 = unbound).
  std::atomic<uint64_t> pattern_id_space_uid_{0};
  std::atomic<uint64_t> hom_scratch_reuses_{0};
};

}  // namespace fdc::rewriting
