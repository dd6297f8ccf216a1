#include "cq/interned.h"

#include <algorithm>
#include <atomic>
#include <limits>

namespace fdc::cq {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t FnvMix(uint64_t h, uint64_t byte) { return (h ^ byte) * kFnvPrime; }

uint64_t HashBytes(uint64_t h, const std::string& s) {
  for (unsigned char c : s) h = FnvMix(h, c);
  return FnvMix(h, 0xff);  // length delimiter
}

// splitmix64 finalizer: turns a relation id into a well-spread word so the
// multiset hash (a commutative sum) doesn't collapse for small ids.
uint64_t SpreadId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

AtomSignature ComputeAtomSignature(const Atom& atom) {
  AtomSignature sig;
  sig.relation = atom.relation;
  sig.arity = atom.arity();
  for (int p = 0; p < atom.arity() && p < 64; ++p) {
    if (atom.terms[p].is_const()) sig.const_positions |= (1ULL << p);
  }
  return sig;
}

QueryDigest ComputeQueryDigest(const ConjunctiveQuery& query) {
  QueryDigest digest;
  digest.num_atoms = query.size();
  digest.max_var = query.MaxVarId();
  digest.head_arity = static_cast<int>(query.head().size());
  for (const Atom& atom : query.atoms()) {
    digest.relation_set |= (1ULL << (static_cast<uint32_t>(atom.relation) & 63));
    // Commutative combine keeps the hash independent of atom order while
    // still counting multiplicity.
    digest.predicate_multiset_hash +=
        SpreadId(static_cast<uint64_t>(static_cast<uint32_t>(atom.relation)));
  }
  return digest;
}

InternedQuery::InternedQuery(int id, ConjunctiveQuery canonical)
    : id_(id), query_(std::move(canonical)) {
  digest_ = ComputeQueryDigest(query_);
  atom_signatures_.reserve(query_.atoms().size());
  for (const Atom& atom : query_.atoms()) {
    atom_signatures_.push_back(ComputeAtomSignature(atom));
  }
}

namespace {

std::atomic<uint64_t> g_next_interner_uid{1};

// Rough resident-size estimate of a stored query: term slots plus constant
// payloads. Feeds the interner's byte budget; precision is unnecessary,
// only the order of magnitude matters.
size_t ApproxQueryBytes(const ConjunctiveQuery& query) {
  size_t bytes = sizeof(ConjunctiveQuery);
  auto term_bytes = [](const Term& t) {
    return sizeof(Term) + (t.is_const() ? t.value().capacity() : 0);
  };
  for (const Term& t : query.head()) bytes += term_bytes(t);
  for (const Atom& atom : query.atoms()) {
    bytes += sizeof(Atom);
    for (const Term& t : atom.terms) bytes += term_bytes(t);
  }
  return bytes;
}

// Structural hash of a query exactly as written (variable names and atom
// order sensitive) — the raw-equality fast path's probe key.
uint64_t HashRawQuery(const ConjunctiveQuery& query) {
  uint64_t h = kFnvOffset;
  auto mix_term = [&h](const Term& t) {
    if (t.is_var()) {
      h = FnvMix(h, 0x1);
      h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(t.var())));
    } else {
      h = FnvMix(h, 0x2);
      h = HashBytes(h, t.value());
    }
  };
  for (const Term& t : query.head()) mix_term(t);
  h = FnvMix(h, 0x3);
  for (const Atom& atom : query.atoms()) {
    h = FnvMix(h, static_cast<uint64_t>(static_cast<uint32_t>(atom.relation)));
    for (const Term& t : atom.terms) mix_term(t);
    h = FnvMix(h, 0x4);
  }
  return h;
}

}  // namespace

uint64_t QueryInterner::RawHash(const ConjunctiveQuery& query) {
  return HashRawQuery(query);
}

QueryInterner::QueryInterner()
    : uid_(g_next_interner_uid.fetch_add(1, std::memory_order_relaxed)) {}

const InternedQuery* QueryInterner::FindRaw(const ConjunctiveQuery& query,
                                            uint64_t raw_hash) const {
  auto it = raw_buckets_.find(raw_hash);
  if (it == raw_buckets_.end()) return nullptr;
  for (const auto& [raw, id] : it->second) {
    if (raw == query) return &queries_[id];
  }
  return nullptr;
}

const InternedQuery* QueryInterner::FindCanonical(
    const std::string& key) const {
  auto it = query_by_key_.find(key);
  if (it == query_by_key_.end()) return nullptr;
  return &queries_[it->second];
}

const InternedQuery* QueryInterner::TryIntern(const ConjunctiveQuery& query,
                                              size_t max_queries) {
  const uint64_t raw_hash = HashRawQuery(query);
  if (const InternedQuery* hit = FindRaw(query, raw_hash)) {
    ++stats_.query_hits;
    ++stats_.raw_hits;
    return hit;
  }
  ConjunctiveQuery canonical = Canonicalize(query);
  std::string key = CanonicalFormKey(canonical);
  return TryIntern(query, raw_hash, std::move(canonical), std::move(key),
                   max_queries);
}

const InternedQuery* QueryInterner::TryIntern(const ConjunctiveQuery& query,
                                              uint64_t raw_hash,
                                              ConjunctiveQuery canonical,
                                              std::string key,
                                              size_t max_queries) {
  // Level 1: exact raw form. Re-probed because another writer may have
  // registered this form since the caller's own (lock-free) raw probe.
  if (const InternedQuery* hit = FindRaw(query, raw_hash)) {
    ++stats_.query_hits;
    ++stats_.raw_hits;
    return hit;
  }

  // Level 2: canonical form.
  int id;
  auto it = query_by_key_.find(key);
  if (it != query_by_key_.end()) {
    ++stats_.query_hits;
    id = it->second;
  } else {
    if (queries_.size() >= max_queries || approx_bytes_ >= kMaxApproxBytes) {
      return nullptr;  // saturated (entry count or byte budget)
    }
    ++stats_.query_misses;
    id = static_cast<int>(queries_.size());
    queries_.push_back(InternedQuery(id, std::move(canonical)));
    approx_bytes_ += ApproxQueryBytes(queries_.back().query()) + key.size();
    query_by_key_.emplace(std::move(key), id);
    // Make the canonical form itself level-1 findable: a caller that
    // canonicalizes once up front (e.g. template registration) then probes
    // with the canonical object never pays CanonicalKey again.
    const ConjunctiveQuery& stored = queries_.back().query();
    if (!(stored == query) && raw_entries_ < kMaxRawEntries &&
        approx_bytes_ < kMaxApproxBytes) {
      approx_bytes_ += ApproxQueryBytes(stored);
      raw_buckets_[HashRawQuery(stored)].emplace_back(stored, id);
      ++raw_entries_;
    }
  }
  if (raw_entries_ < kMaxRawEntries && approx_bytes_ < kMaxApproxBytes) {
    approx_bytes_ += ApproxQueryBytes(query);
    raw_buckets_[raw_hash].emplace_back(query, id);
    ++raw_entries_;
  }
  return &queries_[id];
}

const InternedQuery& QueryInterner::Intern(const ConjunctiveQuery& query) {
  const InternedQuery* interned =
      TryIntern(query, std::numeric_limits<size_t>::max());
  return *interned;  // never null: no cap
}

int QueryInterner::InternPattern(const AtomPattern& pattern) {
  std::string key = pattern.Key();
  auto it = pattern_by_key_.find(key);
  if (it != pattern_by_key_.end()) {
    ++stats_.pattern_hits;
    return it->second;
  }
  ++stats_.pattern_misses;
  const int id = static_cast<int>(patterns_.size());
  patterns_.push_back(pattern);
  approx_bytes_ += sizeof(AtomPattern) +
                   pattern.terms.size() * sizeof(PatTerm) + key.size();
  pattern_by_key_.emplace(std::move(key), id);
  return id;
}

}  // namespace fdc::cq
