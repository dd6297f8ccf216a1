#include "cq/printer.h"

namespace fdc::cq {

namespace {

std::string RelationName(int id, const Schema& schema) {
  const RelationDef* rel = schema.FindById(id);
  return rel != nullptr ? rel->name : ("R" + std::to_string(id));
}

std::string VarName(int v) { return "v" + std::to_string(v); }

// A constant as ParseDatalog reads it back: '...', or "..." when the value
// holds a ' (the grammar has no escapes, so a value holding both quote
// kinds has no Datalog spelling).
std::string DatalogConstant(const std::string& value) {
  const char quote = value.find('\'') == std::string::npos ? '\'' : '"';
  return quote + value + quote;
}

}  // namespace

std::string ToDatalog(const ConjunctiveQuery& query, const Schema& schema) {
  std::string out = query.name().empty() ? "Q" : query.name();
  out += "(";
  for (size_t i = 0; i < query.head().size(); ++i) {
    if (i > 0) out += ", ";
    const Term& t = query.head()[i];
    out += t.is_var() ? VarName(t.var()) : DatalogConstant(t.value());
  }
  out += ") :- ";
  for (size_t i = 0; i < query.atoms().size(); ++i) {
    if (i > 0) out += ", ";
    const Atom& a = query.atoms()[i];
    out += RelationName(a.relation, schema) + "(";
    for (size_t j = 0; j < a.terms.size(); ++j) {
      if (j > 0) out += ", ";
      const Term& t = a.terms[j];
      out += t.is_var() ? VarName(t.var()) : DatalogConstant(t.value());
    }
    out += ")";
  }
  return out;
}

std::string ToTaggedBody(const ConjunctiveQuery& query, const Schema& schema) {
  std::string out = "[";
  for (size_t i = 0; i < query.atoms().size(); ++i) {
    if (i > 0) out += ", ";
    const Atom& a = query.atoms()[i];
    out += RelationName(a.relation, schema) + "(";
    for (size_t j = 0; j < a.terms.size(); ++j) {
      if (j > 0) out += ", ";
      const Term& t = a.terms[j];
      if (t.is_const()) {
        out += "'" + t.value() + "'";
      } else {
        out += VarName(t.var()) +
               (query.IsDistinguished(t.var()) ? "_d" : "_e");
      }
    }
    out += ")";
  }
  out += "]";
  return out;
}

std::string PatternToString(const AtomPattern& pattern, const Schema& schema) {
  std::string out = RelationName(pattern.relation, schema) + "(";
  for (size_t i = 0; i < pattern.terms.size(); ++i) {
    if (i > 0) out += ", ";
    const PatTerm& pt = pattern.terms[i];
    if (pt.is_const) {
      out += "'" + pt.value + "'";
    } else {
      out += "x" + std::to_string(pt.cls) + (pt.distinguished ? "_d" : "_e");
    }
  }
  out += ")";
  return out;
}

}  // namespace fdc::cq
