#include "cq/canonical.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

namespace fdc::cq {

namespace {

// Appends the structural key of an atom under a partial variable renaming
// (renaming[v] < 0 = not yet renamed): unrenamed variables print as "?", so
// the key refines as the renaming grows.
void AppendAtomKey(std::string* key, const Atom& atom,
                   const std::vector<int>& renaming,
                   const std::vector<bool>& is_distinguished) {
  *key += std::to_string(atom.relation);
  key->push_back('(');
  for (const Term& t : atom.terms) {
    if (t.is_const()) {
      AppendQuotedConstant(key, t.value());
    } else {
      const int renamed = renaming[t.var()];
      if (renamed >= 0) {
        key->push_back('v');
        *key += std::to_string(renamed);
      } else {
        key->push_back('?');
      }
      key->push_back(is_distinguished[t.var()] ? 'd' : 'e');
    }
    key->push_back(',');
  }
  key->push_back(')');
}

std::vector<bool> DistinguishedMask(const ConjunctiveQuery& query) {
  std::vector<bool> dist(static_cast<size_t>(query.MaxVarId() + 1), false);
  for (int v : query.DistinguishedVars()) dist[v] = true;
  return dist;
}

}  // namespace

ConjunctiveQuery Canonicalize(const ConjunctiveQuery& query) {
  const std::vector<bool> dist = DistinguishedMask(query);

  // Greedy refinement: repeatedly pick the not-yet-placed atom with the
  // smallest key under the current renaming, then extend the renaming with
  // its unseen variables in position order.
  std::vector<bool> placed(query.atoms().size(), false);
  std::vector<int> renaming(static_cast<size_t>(query.MaxVarId() + 1), -1);
  int next_var = 0;
  auto rename = [&](const Term& t) {
    if (t.is_var() && renaming[t.var()] < 0) renaming[t.var()] = next_var++;
  };
  std::vector<int> order;
  order.reserve(query.atoms().size());
  std::string key;
  std::string best_key;
  for (size_t round = 0; round < query.atoms().size(); ++round) {
    int best = -1;
    for (size_t i = 0; i < query.atoms().size(); ++i) {
      if (placed[i]) continue;
      key.clear();
      AppendAtomKey(&key, query.atoms()[i], renaming, dist);
      if (best == -1 || key < best_key) {
        best = static_cast<int>(i);
        std::swap(best_key, key);
      }
    }
    placed[best] = true;
    order.push_back(best);
    for (const Term& t : query.atoms()[best].terms) rename(t);
  }
  // Any head-only variables would be unsafe; Validate rejects them, but be
  // defensive and number them last.
  for (const Term& t : query.head()) rename(t);

  auto rename_term = [&](const Term& t) -> Term {
    if (t.is_const()) return t;
    return Term::Var(renaming[t.var()]);
  };
  std::vector<Atom> atoms;
  atoms.reserve(order.size());
  for (int idx : order) {
    const Atom& a = query.atoms()[idx];
    std::vector<Term> ts;
    ts.reserve(a.terms.size());
    for (const Term& t : a.terms) ts.push_back(rename_term(t));
    atoms.emplace_back(a.relation, std::move(ts));
  }
  // Canonical head: sorted distinguished variables (head order carries no
  // information for disclosure comparisons).
  std::vector<int> head_vars;
  for (const Term& t : query.head()) {
    if (t.is_var()) head_vars.push_back(renaming[t.var()]);
  }
  std::sort(head_vars.begin(), head_vars.end());
  head_vars.erase(std::unique(head_vars.begin(), head_vars.end()),
                  head_vars.end());
  std::vector<Term> head;
  head.reserve(head_vars.size());
  for (int v : head_vars) head.push_back(Term::Var(v));
  return ConjunctiveQuery(query.name(), std::move(head), std::move(atoms));
}

std::string CanonicalFormKey(const ConjunctiveQuery& canonical) {
  const std::vector<bool> dist = DistinguishedMask(canonical);
  std::vector<int> identity(static_cast<size_t>(canonical.MaxVarId() + 1));
  std::iota(identity.begin(), identity.end(), 0);
  std::string key;
  for (const Atom& a : canonical.atoms()) {
    AppendAtomKey(&key, a, identity, dist);
    key.push_back(';');
  }
  return key;
}

std::string CanonicalKey(const ConjunctiveQuery& query) {
  return CanonicalFormKey(Canonicalize(query));
}

ConjunctiveQuery CompactVariables(const ConjunctiveQuery& query) {
  std::unordered_map<int, int> renaming;
  auto visit = [&](const Term& t) {
    if (t.is_var()) {
      renaming.try_emplace(t.var(), static_cast<int>(renaming.size()));
    }
  };
  for (const Atom& a : query.atoms()) {
    for (const Term& t : a.terms) visit(t);
  }
  for (const Term& t : query.head()) visit(t);

  std::vector<Term> mapping(static_cast<size_t>(query.MaxVarId() + 1));
  for (int v = 0; v <= query.MaxVarId(); ++v) {
    auto it = renaming.find(v);
    mapping[v] = it == renaming.end() ? Term::Var(v) : Term::Var(it->second);
  }
  return query.Substitute(mapping);
}

ConjunctiveQuery ShiftVariables(const ConjunctiveQuery& query, int offset) {
  std::vector<Term> mapping(static_cast<size_t>(query.MaxVarId() + 1));
  for (int v = 0; v <= query.MaxVarId(); ++v) {
    mapping[v] = Term::Var(v + offset);
  }
  return query.Substitute(mapping);
}

}  // namespace fdc::cq
