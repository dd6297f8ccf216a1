#include "cq/datalog_parser.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/string_utils.h"

namespace fdc::cq {

namespace {

// Reservations sized by counting ahead in the text are capped, so a hostile
// text cannot buy a large allocation before it fails to parse; past the cap
// a vector grows as usual.
constexpr size_t kMaxReserve = 64;

// At most 64 bytes of `text` around `pos`, with "..." where it is cut: an
// error quotes a bounded excerpt, never a whole (up to 1 MiB) frame.
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

// Variable ids by name, numbered by first appearance; names are views into
// the parsed text. Open addressing with linear probing over power-of-two
// slots kept at most half full. The first 64 names and their slots live
// inline, so a typical rule allocates nothing here; past that the table
// doubles on the heap, and a rule with many variables still costs O(1)
// expected per lookup.
class VarTable {
 public:
  VarTable() = default;
  VarTable(const VarTable&) = delete;
  VarTable& operator=(const VarTable&) = delete;

  int size() const { return size_; }

  /// The id of `name`; a name not seen before gets the next id.
  int Intern(std::string_view name) {
    const uint64_t h = Hash(name);
    size_t i = h >> shift_;
    for (uint32_t slot; (slot = slots_[i]) != 0; i = (i + 1) & mask_) {
      const Name& n = names_[slot - 1];
      if (n.size == name.size() &&
          std::memcmp(n.data, name.data(), n.size) == 0) {
        return static_cast<int>(slot - 1);
      }
    }
    if (static_cast<size_t>(size_) == capacity_) {
      Grow();
      for (i = h >> shift_; slots_[i] != 0; i = (i + 1) & mask_) {
      }
    }
    names_[size_] = Name{name.data(), name.size(), false};
    slots_[i] = static_cast<uint32_t>(++size_);
    return size_ - 1;
  }

  /// Marks variable `id` as used in the body; true the first time.
  bool MarkInBody(int id) {
    const bool first = !names_[id].in_body;
    names_[id].in_body = true;
    return first;
  }

 private:
  struct Name {
    const char* data = nullptr;
    size_t size = 0;
    bool in_body = false;
  };
  static constexpr size_t kInlineNames = 64;

  // FNV-1a, then a multiplicative mix whose top bits index the slots.
  static uint64_t Hash(std::string_view s) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h * 0x9e3779b97f4a7c15ULL;
  }

  void Grow() {
    const size_t capacity = 2 * capacity_;
    auto names = std::make_unique<Name[]>(capacity);
    auto slots = std::make_unique<uint32_t[]>(2 * capacity);
    std::copy(names_, names_ + size_, names.get());
    --shift_;
    mask_ = 2 * capacity - 1;
    for (int id = 0; id < size_; ++id) {
      size_t i = Hash({names[id].data, names[id].size}) >> shift_;
      while (slots[i] != 0) i = (i + 1) & mask_;
      slots[i] = static_cast<uint32_t>(id + 1);
    }
    heap_names_ = std::move(names);
    heap_slots_ = std::move(slots);
    names_ = heap_names_.get();
    slots_ = heap_slots_.get();
    capacity_ = capacity;
  }

  Name inline_names_[kInlineNames] = {};
  uint32_t inline_slots_[2 * kInlineNames] = {};  // id + 1; 0 = empty
  std::unique_ptr<Name[]> heap_names_;
  std::unique_ptr<uint32_t[]> heap_slots_;
  Name* names_ = inline_names_;
  uint32_t* slots_ = inline_slots_;
  size_t capacity_ = kInlineNames;
  size_t mask_ = 2 * kInlineNames - 1;
  int shift_ = 64 - 7;  // log2(2 * kInlineNames) == 7
  int size_ = 0;
};

/// One forward recursive-descent pass. Identifiers are views into the text;
/// the only allocations are the AST's own vectors and long strings. No
/// exceptions; errors carry the offending position and an excerpt.
class Parser {
 public:
  Parser(std::string_view text, const Schema& schema)
      : text_(text), schema_(schema) {}

  Result<ConjunctiveQuery> Parse() {
    SkipSpace();
    // Head: Name ( args )
    std::string_view head_name;
    if (!ReadIdentifier(&head_name)) {
      return Error("expected head predicate name");
    }
    std::vector<Term> head;
    if (Status st = ParseTermList(&head, /*rel=*/nullptr); !st.ok()) {
      return st;
    }
    head_vars_ = vars_.size();
    SkipSpace();
    if (!Consume(":-") && !Consume(":−")) {
      return Error("expected ':-' after head");
    }
    // Body: atom (, atom)*. Each atom opens one '(' (quoted constants may
    // add more, which only over-reserves).
    std::vector<Atom> atoms;
    atoms.reserve(std::min<size_t>(
        std::count(text_.begin() + pos_, text_.end(), '('), kMaxReserve));
    for (;;) {
      SkipSpace();
      std::string_view rel_name;
      if (!ReadIdentifier(&rel_name)) {
        return Error("expected relation name in body");
      }
      const RelationDef* rel = schema_.Find(rel_name);
      if (rel == nullptr) {
        return Status::ParseError("unknown relation '" +
                                  Excerpt(rel_name, 0) + "'");
      }
      Atom& atom = atoms.emplace_back();
      atom.relation = rel->id;
      if (Status st = ParseTermList(&atom.terms, rel); !st.ok()) return st;
      if (atom.arity() != rel->arity()) {
        return Status::ParseError(
            "relation '" + rel->name + "' expects " +
            std::to_string(rel->arity()) + " arguments, got " +
            std::to_string(atom.arity()));
      }
      SkipSpace();
      if (!Consume(",") && !Consume("∧") && !ConsumeWord("AND")) break;
    }
    SkipSpace();
    Consume(".");  // optional trailing period
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    // ConjunctiveQuery::Validate's checks hold by construction (known
    // relations, matching arities, variable-only heads) except safety. The
    // head's variables are exactly ids [0, head_vars_), so the head is safe
    // iff the body marked all of them.
    if (head_vars_in_body_ != head_vars_) {
      return Status::InvalidArgument("head variable does not appear in body");
    }
    return ConjunctiveQuery(std::string(head_name), std::move(head),
                            std::move(atoms));
  }

 private:
  Status Error(std::string_view what) const {
    std::string message(what);
    message += " at offset ";
    message += std::to_string(pos_);
    message += " in \"";
    message += Excerpt(text_, pos_);
    message += '"';
    return Status::ParseError(std::move(message));
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (!AtEnd() && IsAsciiSpace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Consume(std::string_view token) {
    if (!text_.substr(pos_).starts_with(token)) return false;
    pos_ += token.size();
    return true;
  }

  // Consumes `word` (any case) when it is a whole identifier.
  bool ConsumeWord(std::string_view word) {
    if (AtEnd() || !IsIdentStart(text_[pos_])) return false;
    const size_t save = pos_;
    if (EqualsIgnoreCase(ScanIdentifier(), word)) return true;
    pos_ = save;
    return false;
  }

  // Precondition: IsIdentStart(text_[pos_]).
  std::string_view ScanIdentifier() {
    const size_t start = pos_;
    while (!AtEnd() && IsIdentChar(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  bool ReadIdentifier(std::string_view* out) {
    SkipSpace();
    if (AtEnd() || !IsIdentStart(text_[pos_])) return false;
    *out = ScanIdentifier();
    return true;
  }

  // Upper bound on the head's terms: its commas before the first ')'.
  size_t HeadTermBound() const {
    const size_t close = std::min(text_.find(')', pos_), text_.size());
    return std::min<size_t>(
        std::count(text_.begin() + pos_, text_.begin() + close, ',') + 1,
        kMaxReserve);
  }

  // Parses "( term, term, ... )" (possibly empty) into *out: the terms of a
  // body atom over `rel`, or the head's when `rel` is null. Variables share
  // ids by name across the whole rule.
  Status ParseTermList(std::vector<Term>* out, const RelationDef* rel) {
    const bool in_head = rel == nullptr;
    SkipSpace();
    if (!Consume('(')) return Error("expected '('");
    SkipSpace();
    if (Consume(')')) return Status::OK();
    out->reserve(in_head ? HeadTermBound() : rel->arity());
    for (;;) {
      SkipSpace();
      if (AtEnd()) return Error("unterminated argument list");
      const char c = text_[pos_];
      if (c == '\'' || c == '"') {
        const size_t close = text_.find(c, pos_ + 1);
        if (close == std::string_view::npos) {
          pos_ = text_.size();
          return Error("unterminated string literal");
        }
        const std::string_view value =
            text_.substr(pos_ + 1, close - pos_ - 1);
        pos_ = close + 1;
        if (in_head) {
          return Error("constants are not allowed in query heads");
        }
        out->push_back(Term::Const(std::string(value)));
      } else if (IsAsciiDigit(c) || c == '-') {
        const size_t start = pos_;
        if (c == '-') ++pos_;
        while (!AtEnd() && IsAsciiDigit(text_[pos_])) ++pos_;
        if (in_head) {
          return Error("constants are not allowed in query heads");
        }
        out->push_back(
            Term::Const(std::string(text_.substr(start, pos_ - start))));
      } else if (IsIdentStart(c)) {
        const int id = vars_.Intern(ScanIdentifier());
        if (!in_head && id < head_vars_ && vars_.MarkInBody(id)) {
          ++head_vars_in_body_;
        }
        out->push_back(Term::Var(id));
      } else {
        return Error(std::string("unexpected character '") + c +
                     "' in argument list");
      }
      SkipSpace();
      if (Consume(')')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ')'");
    }
  }

  std::string_view text_;
  const Schema& schema_;
  size_t pos_ = 0;
  VarTable vars_;
  int head_vars_ = 0;          // distinct head variables: ids [0, head_vars_)
  int head_vars_in_body_ = 0;  // of those, how many the body uses
};

}  // namespace

Result<ConjunctiveQuery> ParseDatalog(std::string_view text,
                                      const Schema& schema) {
  return Parser(text, schema).Parse();
}

}  // namespace fdc::cq
