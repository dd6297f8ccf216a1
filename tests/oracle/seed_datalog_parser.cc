#include "oracle/seed_datalog_parser.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "common/string_utils.h"

namespace fdc::test::oracle {

namespace {

using cq::Atom;
using cq::ConjunctiveQuery;
using cq::RelationDef;
using cq::Schema;
using cq::Term;

// At most 64 bytes of `text` around `pos`, with "..." where it is cut.
std::string Excerpt(std::string_view text, size_t pos) {
  constexpr size_t kExcerptBytes = 64;
  if (text.size() <= kExcerptBytes) return std::string(text);
  size_t begin = pos > kExcerptBytes / 2 ? pos - kExcerptBytes / 2 : 0;
  begin = std::min(begin, text.size() - kExcerptBytes);
  std::string out = begin > 0 ? "..." : "";
  out.append(text.substr(begin, kExcerptBytes));
  if (begin + kExcerptBytes < text.size()) out += "...";
  return out;
}

/// Minimal hand-rolled tokenizer/parser. No exceptions; errors carry the
/// offending position.
class Parser {
 public:
  Parser(std::string_view text, const Schema& schema)
      : text_(text), schema_(schema) {}

  Result<ConjunctiveQuery> Parse() {
    SkipSpace();
    // Head: Name ( args )
    std::string head_name;
    if (!ReadIdentifier(&head_name)) {
      return Error("expected head predicate name");
    }
    std::vector<Term> head;
    auto head_status = ParseTermList(&head, /*in_head=*/true);
    if (!head_status.ok()) return head_status;
    SkipSpace();
    if (!Consume(":-") && !Consume(":−")) {
      return Error("expected ':-' after head");
    }
    // Body: atom (, atom)*
    std::vector<Atom> atoms;
    for (;;) {
      SkipSpace();
      std::string rel_name;
      if (!ReadIdentifier(&rel_name)) {
        return Error("expected relation name in body");
      }
      const RelationDef* rel = schema_.Find(rel_name);
      if (rel == nullptr) {
        return Status::ParseError("unknown relation '" +
                                  Excerpt(rel_name, 0) + "'");
      }
      std::vector<Term> terms;
      auto st = ParseTermList(&terms, /*in_head=*/false);
      if (!st.ok()) return st;
      if (static_cast<int>(terms.size()) != rel->arity()) {
        return Status::ParseError(
            "relation '" + rel_name + "' expects " +
            std::to_string(rel->arity()) + " arguments, got " +
            std::to_string(terms.size()));
      }
      atoms.emplace_back(rel->id, std::move(terms));
      SkipSpace();
      if (!Consume(",") && !Consume("∧") && !ConsumeWord("AND")) break;
    }
    SkipSpace();
    Consume(".");  // optional trailing period
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    ConjunctiveQuery query(head_name, std::move(head), std::move(atoms));
    Status valid = query.Validate(schema_);
    if (!valid.ok()) return valid;
    return query;
  }

 private:
  Status Error(const std::string& what) {
    return Status::ParseError(what + " at offset " + std::to_string(pos_) +
                              " in \"" + Excerpt(text_, pos_) + "\"");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    size_t save = pos_;
    std::string ident;
    if (!ReadIdentifier(&ident)) return false;
    if (EqualsIgnoreCase(ident, word)) return true;
    pos_ = save;
    return false;
  }

  bool ReadIdentifier(std::string* out) {
    SkipSpace();
    if (pos_ >= text_.size() || !IsIdentStart(text_[pos_])) return false;
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    *out = std::string(text_.substr(start, pos_ - start));
    return true;
  }

  // Parses "( term, term, ... )" (possibly empty). Variables share ids via
  // name across the whole rule.
  Status ParseTermList(std::vector<Term>* out, bool in_head) {
    SkipSpace();
    if (!Consume("(")) return Error("expected '('");
    SkipSpace();
    if (Consume(")")) return Status::OK();
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated argument list");
      char c = text_[pos_];
      if (c == '\'' || c == '"') {
        std::string value;
        Status st = ReadQuoted(&value);
        if (!st.ok()) return st;
        if (in_head) {
          return Error("constants are not allowed in query heads");
        }
        out->push_back(Term::Const(std::move(value)));
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
        size_t start = pos_;
        if (c == '-') ++pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          ++pos_;
        }
        if (in_head) {
          return Error("constants are not allowed in query heads");
        }
        out->push_back(
            Term::Const(std::string(text_.substr(start, pos_ - start))));
      } else if (IsIdentStart(c)) {
        std::string name;
        ReadIdentifier(&name);
        auto [it, inserted] =
            vars_.try_emplace(name, static_cast<int>(vars_.size()));
        out->push_back(Term::Var(it->second));
      } else {
        return Error(std::string("unexpected character '") + c +
                     "' in argument list");
      }
      SkipSpace();
      if (Consume(")")) return Status::OK();
      if (!Consume(",")) return Error("expected ',' or ')'");
    }
  }

  Status ReadQuoted(std::string* out) {
    const char quote = text_[pos_];
    ++pos_;
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      value += text_[pos_];
      ++pos_;
    }
    if (pos_ >= text_.size()) return Error("unterminated string literal");
    ++pos_;  // closing quote
    *out = std::move(value);
    return Status::OK();
  }

  std::string_view text_;
  const Schema& schema_;
  size_t pos_ = 0;
  std::unordered_map<std::string, int> vars_;
};

}  // namespace

Result<ConjunctiveQuery> SeedParseDatalog(std::string_view text,
                                          const Schema& schema) {
  return Parser(text, schema).Parse();
}

}  // namespace fdc::test::oracle
