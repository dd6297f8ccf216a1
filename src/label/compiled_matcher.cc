#include "label/compiled_matcher.h"

#include <algorithm>
#include <tuple>

#include "rewriting/atom_rewriting.h"

namespace fdc::label {

namespace {

using cq::AtomPattern;
using cq::PatTerm;

// "v implies position q ≡ position p": equal constants or the same variable
// class — exactly the implication test AtomRewritable runs for C2.
inline bool ImpliesEquality(const PatTerm& a, const PatTerm& b) {
  if (a.is_const != b.is_const) return false;
  if (a.is_const) return a.value == b.value;
  return a.cls == b.cls;
}

// 8-byte big-endian prefix of `s`, zero-padded: integer key order is a
// coarsening of lexicographic order (shorter prefixes sort below any
// continuation because the pad byte 0 is the minimum), so sorted-by-key
// probe runs line up with the sorted value table and ties only need a
// string comparison to resolve.
inline uint64_t ValueKey(const std::string& s) {
  const size_t n = s.size() < 8 ? s.size() : 8;
  uint64_t key = 0;
  for (size_t i = 0; i < n; ++i) {
    key |= static_cast<uint64_t>(static_cast<unsigned char>(s[i]))
           << (56 - 8 * i);
  }
  return key;
}

// ---- Fused wide batch kernels -----------------------------------------
//
// The batch kernel evaluates each pattern through a fused loop that keeps
// the running W-word mask hot (the per-atom code shape — every C1–C5
// condition is an AND against a precomputed net row, with early exit the
// moment the mask dies), while the batch-level win comes from the shared
// constant-probe memo threaded in via `lookup`. The kernels are templates
// over the (private) RelationNet so they can live outside the class.
//
// Each position contributes up to two operand rows: op1 is the C1/C3 value
// row (constants) or the C1-converse/C4 row nc/ncd (variables), op2 the C5
// same_or_dist row for repeated variables. AndRowAcc applies both in one
// pass and OR-accumulates the surviving words so a dead mask exits the
// position loop, exactly like the per-atom kernel.

inline uint64_t AndRowAcc(uint64_t* out, const uint64_t* a,
                          const uint64_t* b, int w_count) {
  uint64_t acc = 0;
  if (b == nullptr) {
    for (int w = 0; w < w_count; ++w) {
      out[w] &= a[w];
      acc |= out[w];
    }
  } else {
    for (int w = 0; w < w_count; ++w) {
      out[w] &= a[w] & b[w];
      acc |= out[w];
    }
  }
  return acc;
}

// Resolves the (up to two) operand rows position p contributes for pattern
// term vt; returns op1, sets *op2 for C5 repeats. Identical classification
// to the per-atom kernels.
template <typename Net, typename Lookup>
inline const uint64_t* WideOperands(const Net& net, const PatTerm& vt, int p,
                                    int* first_pos, int* next_class,
                                    Lookup& lookup, const uint64_t** op2) {
  const int n = net.arity;
  const int W = net.words;
  *op2 = nullptr;
  if (vt.is_const) {
    return lookup(p, ValueKey(vt.value), vt.value);
  }
  const uint64_t* op1 = vt.distinguished
                            ? &net.ncd_at[static_cast<size_t>(p) * W]
                            : &net.nc_at[static_cast<size_t>(p) * W];
  if (vt.cls == *next_class) {
    first_pos[(*next_class)++] = p;
  } else {
    *op2 = &net.same_or_dist[(static_cast<size_t>(first_pos[vt.cls]) * n + p) *
                             W];
  }
  return op1;
}

// C2 epilogue of the W-word kernel: hit-check against the masked
// words, then clear the requirement's views when the pattern does not
// imply the equality — the per-atom shape exactly.
template <typename Net>
inline void WideEqEpilogue(const Net& net, const AtomPattern& v,
                           uint64_t* out) {
  const int W = net.words;
  for (const auto& req : net.eq_requirements) {
    const uint64_t* req_mask =
        &net.eq_masks[static_cast<size_t>(req.mask_row) * W];
    uint64_t hit = 0;
    for (int w = 0; w < W; ++w) hit |= out[w] & req_mask[w];
    if (hit != 0 && !ImpliesEquality(v.terms[req.q], v.terms[req.p])) {
      for (int w = 0; w < W; ++w) out[w] &= ~req_mask[w];
    }
  }
}

// Two-word relations (65–128 views) are the common wide case, so they get
// a register-resident specialization: the mask pair lives in two registers
// across the whole position loop, and memory only sees the final store.

template <typename Net, typename Lookup>
void MatchW2Fused(const Net& net, const AtomPattern& v, Lookup& lookup,
                  uint64_t* out) {
  const int n = net.arity;
  uint64_t m0 = net.all_views[0];
  uint64_t m1 = net.all_views[1];
  int first_pos[CompiledCatalogMatcher::kMaxCompiledArity];
  int next_class = 0;
  for (int p = 0; p < n && (m0 | m1) != 0; ++p) {
    const uint64_t* op2;
    const uint64_t* op1 =
        WideOperands(net, v.terms[p], p, first_pos, &next_class, lookup, &op2);
    m0 &= op1[0];
    m1 &= op1[1];
    if (op2 != nullptr) {
      m0 &= op2[0];
      m1 &= op2[1];
    }
  }
  if ((m0 | m1) != 0) {
    for (const auto& req : net.eq_requirements) {
      const uint64_t* r = &net.eq_masks[static_cast<size_t>(req.mask_row) * 2];
      if (((m0 & r[0]) | (m1 & r[1])) != 0 &&
          !ImpliesEquality(v.terms[req.q], v.terms[req.p])) {
        m0 &= ~r[0];
        m1 &= ~r[1];
      }
    }
  }
  out[0] = m0;
  out[1] = m1;
}

template <typename Net, typename Lookup>
void MatchWideFused(const Net& net, const AtomPattern& v, Lookup& lookup,
                    uint64_t* out) {
  const int n = net.arity;
  const int W = net.words;
  std::copy(net.all_views.begin(), net.all_views.end(), out);
  int first_pos[CompiledCatalogMatcher::kMaxCompiledArity];
  int next_class = 0;
  uint64_t acc = 1;
  for (int p = 0; p < n && acc != 0; ++p) {
    const uint64_t* op2;
    const uint64_t* op1 =
        WideOperands(net, v.terms[p], p, first_pos, &next_class, lookup, &op2);
    acc = AndRowAcc(out, op1, op2, W);
  }
  if (acc != 0) WideEqEpilogue(net, v, out);
}


}  // namespace

CompiledCatalogMatcher CompiledCatalogMatcher::Compile(
    const ViewCatalog& catalog) {
  CompiledCatalogMatcher matcher;
  matcher.catalog_ = &catalog;

  int max_relation = -1;
  for (const SecurityView& view : catalog.views()) {
    max_relation = std::max(max_relation, view.relation);
  }
  matcher.nets_.resize(static_cast<size_t>(max_relation + 1));

  for (int relation = 0; relation <= max_relation; ++relation) {
    const std::vector<int>& view_ids = catalog.ViewsOfRelation(relation);
    if (view_ids.empty()) continue;
    RelationNet& net = matcher.nets_[static_cast<size_t>(relation)];
    net.num_views = static_cast<int>(view_ids.size());
    net.words = MaskWordsFor(net.num_views);
    matcher.max_words_ = std::max(matcher.max_words_, net.words);
    net.arity = catalog.view(view_ids.front()).pattern.arity();
    if (net.arity > kMaxCompiledArity) {
      // Pathological arity: MatchMask* runs the per-view loop instead. The
      // net stays empty but the relation is still answered correctly.
      net.use_fallback = true;
      continue;
    }
    const int n = net.arity;
    const int W = net.words;
    net.all_views.assign(static_cast<size_t>(W), 0);
    net.const_at.assign(static_cast<size_t>(n) * W, 0);
    net.dist_at.assign(static_cast<size_t>(n) * W, 0);
    net.same_class.assign(static_cast<size_t>(n) * n * W, 0);

    // (pos, value, view bit) triples, sorted into the flat table below.
    std::vector<std::tuple<int, std::string, int>> constants;
    // (q * n + p) -> requirement mask words, merged across views.
    std::vector<uint64_t> eq_mask(static_cast<size_t>(n) * n * W, 0);

    for (int view_id : view_ids) {
      const SecurityView& view = catalog.view(view_id);
      const size_t bit_word = static_cast<size_t>(view.bit) / 64;
      const uint64_t bit = uint64_t{1} << (view.bit % 64);
      const AtomPattern& w = view.pattern;
      // Mixed-arity views over one relation cannot come from a validated
      // schema; a mismatch would make every per-position mask meaningless.
      if (w.arity() != n) {
        net.use_fallback = true;
        break;
      }
      net.all_views[bit_word] |= bit;
      // class -> first position, for C2 requirement extraction.
      int first_pos[kMaxCompiledArity];
      std::fill(first_pos, first_pos + n, -1);
      for (int p = 0; p < n; ++p) {
        const PatTerm& wt = w.terms[p];
        if (wt.is_const) {
          net.const_at[static_cast<size_t>(p) * W + bit_word] |= bit;
          constants.emplace_back(p, wt.value, view.bit);
          continue;
        }
        if (wt.distinguished) {
          net.dist_at[static_cast<size_t>(p) * W + bit_word] |= bit;
        }
        const int q = first_pos[wt.cls];
        if (q < 0) {
          first_pos[wt.cls] = p;
        } else {
          // The view imposes q ≡ p (via the class representative, exactly
          // as AtomRewritable checks it).
          eq_mask[(static_cast<size_t>(q) * n + p) * W + bit_word] |= bit;
        }
        // Same-class masks for every earlier position of the class (C5
        // probes arbitrary (first, later) pairs of the *incoming* pattern's
        // classes, so all pairs are needed, not just representatives).
        for (int r = 0; r < p; ++r) {
          const PatTerm& wr = w.terms[r];
          if (!wr.is_const && wr.cls == wt.cls) {
            net.same_class[(static_cast<size_t>(r) * n + p) * W + bit_word] |=
                bit;
            net.same_class[(static_cast<size_t>(p) * n + r) * W + bit_word] |=
                bit;
          }
        }
      }
    }
    if (net.use_fallback) continue;

    for (int q = 0; q < n; ++q) {
      for (int p = 0; p < n; ++p) {
        const uint64_t* row = &eq_mask[(static_cast<size_t>(q) * n + p) * W];
        bool any = false;
        for (int w = 0; w < W; ++w) any = any || row[w] != 0;
        if (any) {
          net.eq_requirements.push_back(
              {static_cast<uint16_t>(q), static_cast<uint16_t>(p),
               static_cast<uint32_t>(net.eq_masks.size() / W)});
          net.eq_masks.insert(net.eq_masks.end(), row, row + W);
        }
      }
    }

    // Flat sorted constant-value table with per-position spans.
    std::sort(constants.begin(), constants.end(),
              [](const auto& a, const auto& b) {
                if (std::get<0>(a) != std::get<0>(b)) {
                  return std::get<0>(a) < std::get<0>(b);
                }
                return std::get<1>(a) < std::get<1>(b);
              });
    net.value_begin.assign(static_cast<size_t>(n) + 1, 0);
    for (size_t i = 0; i < constants.size();) {
      const int pos = std::get<0>(constants[i]);
      const std::string& value = std::get<1>(constants[i]);
      const size_t row = net.values.size();
      net.value_masks.insert(net.value_masks.end(), static_cast<size_t>(W), 0);
      size_t j = i;  // merge the run of views selecting `value` at `pos`
      while (j < constants.size() && std::get<0>(constants[j]) == pos &&
             std::get<1>(constants[j]) == value) {
        const int view_bit = std::get<2>(constants[j]);
        net.value_masks[row * W + static_cast<size_t>(view_bit) / 64] |=
            uint64_t{1} << (view_bit % 64);
        ++j;
      }
      net.values.push_back(value);
      net.value_begin[static_cast<size_t>(pos) + 1] =
          static_cast<int>(net.values.size());
      i = j;
    }
    // Positions without constants inherit the previous offset, so every
    // span [value_begin[p], value_begin[p+1]) is well-formed.
    for (int p = 1; p <= n; ++p) {
      net.value_begin[p] = std::max(net.value_begin[p], net.value_begin[p - 1]);
    }

    // Prefix keys parallel to the (lexicographically sorted, hence
    // key-sorted) value spans: lookups binary-search integers and only
    // compare strings on prefix ties.
    net.value_keys.reserve(net.values.size());
    for (const std::string& value : net.values) {
      net.value_keys.push_back(ValueKey(value));
    }

    // Derived rows for the batch kernel: each per-position condition folded
    // into one AND-able row so batch classification never composes masks.
    net.nc_at.resize(net.const_at.size());
    net.ncd_at.resize(net.const_at.size());
    for (int p = 0; p < n; ++p) {
      for (int w = 0; w < W; ++w) {
        const size_t k = static_cast<size_t>(p) * W + w;
        net.nc_at[k] = net.all_views[static_cast<size_t>(w)] & ~net.const_at[k];
        net.ncd_at[k] = net.nc_at[k] & net.dist_at[k];
      }
    }
    net.value_or_dist.resize(net.value_masks.size());
    for (int p = 0; p < n; ++p) {
      for (int row = net.value_begin[p]; row < net.value_begin[p + 1]; ++row) {
        for (int w = 0; w < W; ++w) {
          net.value_or_dist[static_cast<size_t>(row) * W + w] =
              net.value_masks[static_cast<size_t>(row) * W + w] |
              net.dist_at[static_cast<size_t>(p) * W + w];
        }
      }
    }
    net.same_or_dist.resize(net.same_class.size());
    for (int q = 0; q < n; ++q) {
      for (int p = 0; p < n; ++p) {
        for (int w = 0; w < W; ++w) {
          const size_t k = (static_cast<size_t>(q) * n + p) * W + w;
          net.same_or_dist[k] = net.same_class[k] |
                                (net.dist_at[static_cast<size_t>(q) * W + w] &
                                 net.dist_at[static_cast<size_t>(p) * W + w]);
        }
      }
    }
  }
  return matcher;
}

int CompiledCatalogMatcher::LookupRow(const RelationNet& net, int p,
                                      uint64_t key, const std::string& value) {
  const uint64_t* keys = net.value_keys.data();
  const int begin = net.value_begin[p];
  const int end = net.value_begin[p + 1];
  int idx = static_cast<int>(std::lower_bound(keys + begin, keys + end, key) -
                             keys);
  // Entries sharing the 8-byte prefix form a tiny lexicographically sorted
  // run; resolve it with full comparisons.
  for (; idx < end && keys[idx] == key; ++idx) {
    if (net.values[static_cast<size_t>(idx)] == value) return idx;
  }
  return -1;
}

const uint64_t* CompiledCatalogMatcher::LookupValue(const RelationNet& net,
                                                    int p,
                                                    const std::string& value) {
  const int row = LookupRow(net, p, ValueKey(value), value);
  if (row < 0) return nullptr;
  return &net.value_masks[static_cast<size_t>(row) * net.words];
}

// Forced inline: left to the compiler's heuristics, the batch kernel's
// narrow loop calls this out of line once per pattern, which measured
// about 16% slower on fig_matcher's one-word batch series (64 views per
// relation, batch 512).
template <typename Lookup>
__attribute__((always_inline)) inline uint64_t
CompiledCatalogMatcher::MatchNarrowImpl(const RelationNet& net,
                                                 const AtomPattern& v,
                                                 Lookup lookup) {
  // One-word relations: the pre-wide code shape — a single accumulator,
  // no scratch, indexes collapse because words == 1.
  const int n = net.arity;
  uint64_t mask = net.all_views[0];
  // class -> first position of the *incoming* pattern (normalized classes
  // are numbered by first occurrence, so `cls == next_class` detects one).
  int first_pos[kMaxCompiledArity];
  int next_class = 0;
  for (int p = 0; p < n && mask != 0; ++p) {
    const PatTerm& vt = v.terms[p];
    if (vt.is_const) {
      // C1: views selecting a constant here must select this value.
      // C3: views exposing the column instead can filter on it. The
      // resolved row is value_or_dist (value hit) or dist (miss) — both
      // already include the C3 disjunct.
      mask &= lookup(p, ValueKey(vt.value), vt.value)[0];
      continue;
    }
    // C1 (converse): views selecting any constant here miss tuples v needs.
    mask &= ~net.const_at[p];
    // C4: columns v outputs must be exposed.
    if (vt.distinguished) mask &= net.dist_at[p];
    // C5: equalities v imposes must be imposed by the view or checkable
    // from its output (both positions distinguished). Representative
    // pairing against the class's first occurrence, as in AtomRewritable.
    if (vt.cls == next_class) {
      first_pos[next_class++] = p;
    } else {
      const int q = first_pos[vt.cls];
      mask &= net.same_class[static_cast<size_t>(q) * n + p] |
              (net.dist_at[q] & net.dist_at[p]);
    }
  }
  if (mask == 0) return 0;
  // C2: equalities views impose must be implied by v.
  for (const RelationNet::EqRequirement& req : net.eq_requirements) {
    const uint64_t req_mask = net.eq_masks[req.mask_row];
    if ((mask & req_mask) != 0 &&
        !ImpliesEquality(v.terms[req.q], v.terms[req.p])) {
      mask &= ~req_mask;
    }
  }
  return mask;
}

uint64_t CompiledCatalogMatcher::MatchWordNarrow(const RelationNet& net,
                                                 const AtomPattern& v) {
  return MatchNarrowImpl(
      net, v,
      [&net](int p, uint64_t key, const std::string& value) -> const uint64_t* {
        const int row = LookupRow(net, p, key, value);
        return row < 0 ? &net.dist_at[static_cast<size_t>(p)]
                       : &net.value_or_dist[static_cast<size_t>(row)];
      });
}

void CompiledCatalogMatcher::MatchWordsWide(const RelationNet& net,
                                            const AtomPattern& v,
                                            uint64_t* out) {
  // The width-generic kernel: identical C1–C5 structure, each AND applied
  // word-wise against the relation's MaskSpan rows; `acc` ORs the surviving
  // words so a dead mask still exits early.
  const int n = net.arity;
  const int W = net.words;
  std::copy(net.all_views.begin(), net.all_views.end(), out);
  int first_pos[kMaxCompiledArity];
  int next_class = 0;
  uint64_t acc = 1;
  for (int p = 0; p < n && acc != 0; ++p) {
    const PatTerm& vt = v.terms[p];
    const uint64_t* dist_p = &net.dist_at[static_cast<size_t>(p) * W];
    acc = 0;
    if (vt.is_const) {
      const uint64_t* value_row = LookupValue(net, p, vt.value);
      for (int w = 0; w < W; ++w) {
        out[w] &= (value_row != nullptr ? value_row[w] : 0) | dist_p[w];
        acc |= out[w];
      }
      continue;
    }
    const uint64_t* const_p = &net.const_at[static_cast<size_t>(p) * W];
    if (vt.distinguished) {
      for (int w = 0; w < W; ++w) out[w] &= ~const_p[w] & dist_p[w];
    } else {
      for (int w = 0; w < W; ++w) out[w] &= ~const_p[w];
    }
    if (vt.cls == next_class) {
      first_pos[next_class++] = p;
    } else {
      const int q = first_pos[vt.cls];
      const uint64_t* same =
          &net.same_class[(static_cast<size_t>(q) * n + p) * W];
      const uint64_t* dist_q = &net.dist_at[static_cast<size_t>(q) * W];
      for (int w = 0; w < W; ++w) out[w] &= same[w] | (dist_q[w] & dist_p[w]);
    }
    for (int w = 0; w < W; ++w) acc |= out[w];
  }
  if (acc == 0) return;  // every word already zero
  for (const RelationNet::EqRequirement& req : net.eq_requirements) {
    const uint64_t* req_mask = &net.eq_masks[static_cast<size_t>(req.mask_row) * W];
    uint64_t hit = 0;
    for (int w = 0; w < W; ++w) hit |= out[w] & req_mask[w];
    if (hit != 0 && !ImpliesEquality(v.terms[req.q], v.terms[req.p])) {
      for (int w = 0; w < W; ++w) out[w] &= ~req_mask[w];
    }
  }
}

void CompiledCatalogMatcher::FallbackMaskWords(int relation,
                                               const AtomPattern& v,
                                               uint64_t* out, int words) const {
  std::fill(out, out + words, 0);
  for (int view_id : catalog_->ViewsOfRelation(relation)) {
    const SecurityView& view = catalog_->view(view_id);
    if (rewriting::AtomRewritable(v, view.pattern)) {
      out[static_cast<size_t>(view.bit) / 64] |= uint64_t{1} << (view.bit % 64);
    }
  }
}

uint32_t CompiledCatalogMatcher::MatchMask(const cq::AtomPattern& v) const {
  const RelationNet* net = NetFor(v.relation);
  if (net == nullptr) return 0;  // no views over this relation
  if (net->use_fallback) {
    // Seed per-view loop for pathological relations; packed bits only, so
    // views beyond the packed capacity are not even tested.
    uint32_t mask = 0;
    for (int view_id : catalog_->ViewsOfRelation(v.relation)) {
      const SecurityView& view = catalog_->view(view_id);
      if (view.bit < kPackedViewCapacity &&
          rewriting::AtomRewritable(v, view.pattern)) {
        mask |= uint32_t{1} << view.bit;
      }
    }
    return mask;
  }
  if (v.arity() != net->arity) return 0;  // never rewritable (arity mismatch)
  if (net->words == 1) {
    // The packed contract is the low 32 bits of the full mask — views with
    // bit ≥ kPackedViewCapacity are excluded (labels strictly higher —
    // fail-safe), mirroring the guard in label::ComputePatternMask.
    return static_cast<uint32_t>(MatchWordNarrow(*net, v));
  }
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < static_cast<size_t>(net->words)) {
    scratch.resize(static_cast<size_t>(net->words));
  }
  MatchWordsWide(*net, v, scratch.data());
  return static_cast<uint32_t>(scratch[0]);
}

void CompiledCatalogMatcher::MatchMaskWords(const cq::AtomPattern& v,
                                            uint64_t* out) const {
  const RelationNet* net = NetFor(v.relation);
  if (net == nullptr) {
    out[0] = 0;  // MaskWords == 1 for unknown relations
    return;
  }
  if (net->use_fallback) {
    FallbackMaskWords(v.relation, v, out, net->words);
    return;
  }
  if (v.arity() != net->arity) {
    std::fill(out, out + net->words, 0);
    return;
  }
  if (net->words == 1) {
    out[0] = MatchWordNarrow(*net, v);
    return;
  }
  MatchWordsWide(*net, v, out);
}

void CompiledCatalogMatcher::MatchWideAtom(const cq::AtomPattern& pattern,
                                           WideAtomLabel* out) const {
  out->relation = pattern.relation;
  const size_t words = static_cast<size_t>(MaskWords(pattern.relation));
  out->mask.resize(words);
  MatchMaskWords(pattern, out->mask.data());
  out->Normalize();
}

template <typename Access>
void CompiledCatalogMatcher::MatchMaskBatchImpl(Access at, int n_patterns,
                                                uint64_t* out,
                                                BatchScratch* s) const {
  if (n_patterns <= 0) return;
  const int relation = at(0).relation;
  const RelationNet* net = NetFor(relation);
  if (net == nullptr) {
    std::fill(out, out + n_patterns, 0);  // MaskWords == 1 for unknown
    return;
  }
  const int W = net->words;
  if (net->use_fallback) {
    for (int i = 0; i < n_patterns; ++i) {
      FallbackMaskWords(relation, at(i), out + static_cast<size_t>(i) * W, W);
    }
    return;
  }
  const int n = net->arity;
  const int N = n_patterns;

  // Constant-probe memo for this batch: one epoch bump invalidates every
  // prior batch's entries, so nothing is cleared. Only grown, never shrunk
  // — warm batches allocate nothing.
  const size_t memo_slots = static_cast<size_t>(n)
                            << BatchScratch::kProbeMemoBits;
  if (s->memo_.size() < memo_slots) s->memo_.resize(memo_slots);
  ++s->epoch_;
  const auto memo_lookup =
      [net, s, W](int p, uint64_t key,
                  const std::string& value) -> const uint64_t* {
    const uint32_t size = static_cast<uint32_t>(value.size());
    BatchScratch::ProbeMemo& m =
        s->memo_[(static_cast<size_t>(p) << BatchScratch::kProbeMemoBits) +
                 ((key * uint64_t{0x9E3779B97F4A7C15}) >>
                  (64 - BatchScratch::kProbeMemoBits))];
    if (m.epoch == s->epoch_ && m.key == key && m.size == size &&
        size <= 8) {
      return m.row;
    }
    const int row = LookupRow(*net, p, key, value);
    const uint64_t* resolved =
        row < 0 ? &net->dist_at[static_cast<size_t>(p) * W]
                : &net->value_or_dist[static_cast<size_t>(row) * W];
    m = {key, s->epoch_, resolved, size};
    return resolved;
  };

  if (W == 1) {
    // Narrow relations: the batch win is the fused per-atom loop (mask
    // lives in a register, early exit on death) plus the shared probe memo
    // replacing per-pattern binary searches.
    for (int i = 0; i < N; ++i) {
      if (i + 1 < N) {
        // Each pattern's term array is its own heap block; start the next
        // one's load while this one computes.
        __builtin_prefetch(at(i + 1).terms.data());
      }
      const AtomPattern& v = at(i);
      out[i] = v.arity() == n ? MatchNarrowImpl(*net, v, memo_lookup) : 0;
    }
    return;
  }

  // Wide relations: the same fused shape, W-word mask rows instead of a
  // register word.
  for (int i = 0; i < N; ++i) {
    if (i + 1 < N) {
      __builtin_prefetch(at(i + 1).terms.data());
    }
    const AtomPattern& v = at(i);
    uint64_t* row = out + static_cast<size_t>(i) * W;
    if (v.arity() != n) {
      std::fill(row, row + W, 0);  // never rewritable (arity mismatch)
    } else if (W == 2) {
      MatchW2Fused(*net, v, memo_lookup, row);
    } else {
      MatchWideFused(*net, v, memo_lookup, row);
    }
  }
}

void CompiledCatalogMatcher::MatchMaskBatch(
    std::span<const cq::AtomPattern> patterns, uint64_t* out_masks,
    BatchScratch* scratch) const {
  const cq::AtomPattern* data = patterns.data();
  MatchMaskBatchImpl(
      [data](int i) -> const AtomPattern& { return data[i]; },
      static_cast<int>(patterns.size()), out_masks, scratch);
}

void CompiledCatalogMatcher::MatchMaskBatch(
    std::span<const cq::AtomPattern* const> patterns, uint64_t* out_masks,
    BatchScratch* scratch) const {
  const cq::AtomPattern* const* data = patterns.data();
  MatchMaskBatchImpl(
      [data](int i) -> const AtomPattern& { return *data[i]; },
      static_cast<int>(patterns.size()), out_masks, scratch);
}

}  // namespace fdc::label
