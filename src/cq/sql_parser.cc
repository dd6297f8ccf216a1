#include "cq/sql_parser.h"

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/string_utils.h"

namespace fdc::cq {

namespace {

enum class TokKind { kIdent, kString, kNumber, kSymbol, kEnd };

struct Token {
  TokKind kind;
  std::string text;
  size_t pos;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Lex() {
    std::vector<Token> out;
    size_t pos = 0;
    while (pos < text_.size()) {
      char c = text_[pos];
      if (IsAsciiSpace(c)) {
        ++pos;
        continue;
      }
      if (IsIdentStart(c)) {
        size_t start = pos;
        while (pos < text_.size() && IsIdentChar(text_[pos])) ++pos;
        out.push_back({TokKind::kIdent,
                       std::string(text_.substr(start, pos - start)), start});
        continue;
      }
      if (IsAsciiDigit(c)) {
        size_t start = pos;
        while (pos < text_.size() && IsAsciiDigit(text_[pos])) ++pos;
        out.push_back({TokKind::kNumber,
                       std::string(text_.substr(start, pos - start)), start});
        continue;
      }
      if (c == '\'' || c == '"') {
        size_t start = ++pos;
        while (pos < text_.size() && text_[pos] != c) ++pos;
        if (pos >= text_.size()) {
          return Status::ParseError("unterminated string literal at offset " +
                                    std::to_string(start - 1));
        }
        out.push_back({TokKind::kString,
                       std::string(text_.substr(start, pos - start)), start});
        ++pos;
        continue;
      }
      // Multi-char symbols first.
      if (c == '<' && pos + 1 < text_.size() && text_[pos + 1] == '>') {
        out.push_back({TokKind::kSymbol, "<>", pos});
        pos += 2;
        continue;
      }
      if (c == '!' && pos + 1 < text_.size() && text_[pos + 1] == '=') {
        out.push_back({TokKind::kSymbol, "!=", pos});
        pos += 2;
        continue;
      }
      static constexpr std::string_view kSingles = ".,()=*;";
      if (kSingles.find(c) != std::string_view::npos) {
        out.push_back({TokKind::kSymbol, std::string(1, c), pos});
        ++pos;
        continue;
      }
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at offset " + std::to_string(pos));
    }
    out.push_back({TokKind::kEnd, "", text_.size()});
    return out;
  }

 private:
  std::string_view text_;
};

// A column reference: table instance index + attribute index.
struct ColumnRef {
  int table;  // index into `tables_`
  int column;
};

// Union-find over column slots, carrying an optional constant per class.
class SlotUnion {
 public:
  void Init(int n) {
    parent_.resize(n);
    for (int i = 0; i < n; ++i) parent_[i] = i;
    constant_.assign(n, std::nullopt);
  }

  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Unions two slots; fails on constant conflict.
  Status Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return Status::OK();
    if (constant_[a].has_value() && constant_[b].has_value() &&
        *constant_[a] != *constant_[b]) {
      return Status::ParseError(
          "contradictory equalities: column constrained to both '" +
          *constant_[a] + "' and '" + *constant_[b] + "'");
    }
    if (!constant_[a].has_value()) std::swap(a, b);
    parent_[b] = a;
    return Status::OK();
  }

  /// Binds a slot's class to a constant; fails on conflict.
  Status Bind(int slot, const std::string& value) {
    int root = Find(slot);
    if (constant_[root].has_value() && *constant_[root] != value) {
      return Status::ParseError(
          "contradictory equalities: column constrained to both '" +
          *constant_[root] + "' and '" + value + "'");
    }
    constant_[root] = value;
    return Status::OK();
  }

  const std::optional<std::string>& ConstantOf(int root) const {
    return constant_[root];
  }

 private:
  std::vector<int> parent_;
  std::vector<std::optional<std::string>> constant_;
};

class SqlParser {
 public:
  SqlParser(std::vector<Token> tokens, const Schema& schema)
      : tokens_(std::move(tokens)), schema_(schema) {}

  Result<ConjunctiveQuery> Parse() {
    if (!ConsumeKeyword("SELECT")) return Error("expected SELECT");

    // Select list is resolved after FROM; remember raw items.
    struct SelectItem {
      std::string qualifier;  // alias or empty
      std::string column;     // column name or "*" for star
    };
    std::vector<SelectItem> select_items;
    if (ConsumeSymbol("*")) {
      select_items.push_back({"", "*"});
    } else {
      for (;;) {
        std::string first;
        if (!ConsumeIdent(&first)) return Error("expected column name");
        SelectItem item;
        if (ConsumeSymbol(".")) {
          if (ConsumeSymbol("*")) {
            item = {first, "*"};
          } else {
            std::string col;
            if (!ConsumeIdent(&col)) return Error("expected column after '.'");
            item = {first, col};
          }
        } else {
          item = {"", first};
        }
        select_items.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }

    if (!ConsumeKeyword("FROM")) return Error("expected FROM");
    // Table refs: first, then JOIN ... ON ... or comma-separated.
    Status st = ParseTableRef();
    if (!st.ok()) return st;
    std::vector<std::pair<ColumnRef, ColumnRef>> join_conds;
    for (;;) {
      if (ConsumeKeyword("JOIN") || ConsumeKeyword("INNER")) {
        // Allow "INNER JOIN".
        ConsumeKeyword("JOIN");
        st = ParseTableRef();
        if (!st.ok()) return st;
        if (!ConsumeKeyword("ON")) return Error("expected ON after JOIN");
        st = ParseCondition();
        if (!st.ok()) return st;
        // Additional AND-ed ON conditions.
        while (ConsumeKeyword("AND")) {
          st = ParseCondition();
          if (!st.ok()) return st;
        }
        continue;
      }
      if (ConsumeSymbol(",")) {
        st = ParseTableRef();
        if (!st.ok()) return st;
        continue;
      }
      break;
    }

    if (ConsumeKeyword("WHERE")) {
      st = ParseCondition();
      if (!st.ok()) return st;
      while (ConsumeKeyword("AND")) {
        st = ParseCondition();
        if (!st.ok()) return st;
      }
    }
    ConsumeSymbol(";");
    if (Peek().kind != TokKind::kEnd) return Error("unexpected trailing input");

    // ---- Lowering ----
    slots_.Init(total_slots_);
    for (const auto& [slot_a, slot_b] : pending_slot_eqs_) {
      Status u = slots_.Union(slot_a, slot_b);
      if (!u.ok()) return u;
    }
    for (const auto& [slot, value] : pending_binds_) {
      Status b = slots_.Bind(slot, value);
      if (!b.ok()) return b;
    }

    // Assign a variable per non-constant class.
    std::unordered_map<int, int> class_to_var;
    auto slot_term = [&](int slot) -> Term {
      int root = slots_.Find(slot);
      const auto& constant = slots_.ConstantOf(root);
      if (constant.has_value()) return Term::Const(*constant);
      auto [it, inserted] =
          class_to_var.try_emplace(root, static_cast<int>(class_to_var.size()));
      return Term::Var(it->second);
    };

    std::vector<Atom> atoms;
    for (size_t ti = 0; ti < tables_.size(); ++ti) {
      const RelationDef* rel = schema_.FindById(tables_[ti].relation);
      std::vector<Term> terms;
      terms.reserve(rel->arity());
      for (int c = 0; c < rel->arity(); ++c) {
        terms.push_back(slot_term(SlotOf(static_cast<int>(ti), c)));
      }
      atoms.emplace_back(rel->id, std::move(terms));
    }

    std::vector<Term> head;
    for (const auto& item : select_items) {
      if (item.column == "*") {
        // Expand: all columns of the qualified table, or of all tables.
        for (size_t ti = 0; ti < tables_.size(); ++ti) {
          if (!item.qualifier.empty() &&
              tables_[ti].alias != item.qualifier) {
            continue;
          }
          const RelationDef* rel = schema_.FindById(tables_[ti].relation);
          for (int c = 0; c < rel->arity(); ++c) {
            Term t = slot_term(SlotOf(static_cast<int>(ti), c));
            if (t.is_var()) head.push_back(t);
            // Constant-bound columns are dropped from the head: their value
            // is fixed by the query text and reveals nothing extra.
          }
        }
        continue;
      }
      Result<ColumnRef> ref = Resolve(item.qualifier, item.column);
      if (!ref.ok()) return ref.status();
      Term t = slot_term(SlotOf(ref->table, ref->column));
      if (t.is_const()) {
        // Selecting an equated-to-constant column: no variable to expose.
        continue;
      }
      head.push_back(t);
    }

    ConjunctiveQuery query("Q", std::move(head), std::move(atoms));
    Status valid = query.Validate(schema_);
    if (!valid.ok()) return valid;
    return query;
  }

 private:
  struct TableInstance {
    int relation;
    std::string alias;
    int first_slot;
  };

  const Token& Peek() const { return tokens_[cursor_]; }

  bool ConsumeKeyword(std::string_view kw) {
    if (Peek().kind == TokKind::kIdent && EqualsIgnoreCase(Peek().text, kw)) {
      ++cursor_;
      return true;
    }
    return false;
  }

  bool ConsumeSymbol(std::string_view sym) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == sym) {
      ++cursor_;
      return true;
    }
    return false;
  }

  bool ConsumeIdent(std::string* out) {
    if (Peek().kind == TokKind::kIdent && !IsReserved(Peek().text)) {
      *out = Peek().text;
      ++cursor_;
      return true;
    }
    return false;
  }

  static bool IsReserved(const std::string& word) {
    static constexpr std::string_view kReserved[] = {
        "SELECT", "FROM", "WHERE", "JOIN", "INNER", "ON", "AND", "AS"};
    for (std::string_view kw : kReserved) {
      if (EqualsIgnoreCase(word, kw)) return true;
    }
    return false;
  }

  Status Error(const std::string& what) {
    return Status::ParseError(what + " near offset " +
                              std::to_string(Peek().pos));
  }

  Status ParseTableRef() {
    std::string rel_name;
    if (!ConsumeIdent(&rel_name)) return Error("expected table name");
    const RelationDef* rel = schema_.Find(rel_name);
    if (rel == nullptr) {
      return Status::ParseError("unknown table '" + rel_name + "'");
    }
    ConsumeKeyword("AS");
    std::string alias = rel_name;
    std::string maybe_alias;
    if (ConsumeIdent(&maybe_alias)) alias = maybe_alias;
    for (const TableInstance& t : tables_) {
      if (t.alias == alias) {
        return Status::ParseError("duplicate table alias '" + alias + "'");
      }
    }
    tables_.push_back({rel->id, alias, total_slots_});
    total_slots_ += rel->arity();
    return Status::OK();
  }

  int SlotOf(int table, int column) const {
    return tables_[table].first_slot + column;
  }

  Result<ColumnRef> Resolve(const std::string& qualifier,
                            const std::string& column) {
    if (!qualifier.empty()) {
      for (size_t ti = 0; ti < tables_.size(); ++ti) {
        if (tables_[ti].alias != qualifier) continue;
        const RelationDef* rel = schema_.FindById(tables_[ti].relation);
        int c = rel->AttributeIndex(column);
        if (c < 0) {
          return Status::ParseError("table '" + qualifier +
                                    "' has no column '" + column + "'");
        }
        return ColumnRef{static_cast<int>(ti), c};
      }
      return Status::ParseError("unknown table alias '" + qualifier + "'");
    }
    // Unqualified: must be unambiguous across tables.
    std::optional<ColumnRef> found;
    for (size_t ti = 0; ti < tables_.size(); ++ti) {
      const RelationDef* rel = schema_.FindById(tables_[ti].relation);
      int c = rel->AttributeIndex(column);
      if (c < 0) continue;
      if (found.has_value()) {
        return Status::ParseError("ambiguous column '" + column + "'");
      }
      found = ColumnRef{static_cast<int>(ti), c};
    }
    if (!found.has_value()) {
      return Status::ParseError("unknown column '" + column + "'");
    }
    return *found;
  }

  // cond := colref = colref | colref = literal | literal = colref
  Status ParseCondition() {
    if (Peek().kind == TokKind::kString || Peek().kind == TokKind::kNumber) {
      std::string value = Peek().text;
      ++cursor_;
      if (!ConsumeSymbol("=")) return Error("only '=' comparisons supported");
      Result<ColumnRef> rhs = ParseColumnRef();
      if (!rhs.ok()) return rhs.status();
      pending_binds_.emplace_back(SlotOf(rhs->table, rhs->column), value);
      return Status::OK();
    }
    Result<ColumnRef> lhs = ParseColumnRef();
    if (!lhs.ok()) return lhs.status();
    if (ConsumeSymbol("<>") || ConsumeSymbol("!=")) {
      return Status::Unsupported(
          "inequality predicates are outside the conjunctive fragment");
    }
    if (!ConsumeSymbol("=")) return Error("expected '=' in condition");
    if (Peek().kind == TokKind::kString || Peek().kind == TokKind::kNumber) {
      pending_binds_.emplace_back(SlotOf(lhs->table, lhs->column), Peek().text);
      ++cursor_;
      return Status::OK();
    }
    Result<ColumnRef> rhs = ParseColumnRef();
    if (!rhs.ok()) return rhs.status();
    pending_slot_eqs_.emplace_back(SlotOf(lhs->table, lhs->column),
                                   SlotOf(rhs->table, rhs->column));
    return Status::OK();
  }

  Result<ColumnRef> ParseColumnRef() {
    std::string first;
    if (!ConsumeIdent(&first)) {
      return Status::ParseError("expected column reference near offset " +
                                std::to_string(Peek().pos));
    }
    if (ConsumeSymbol(".")) {
      std::string col;
      if (!ConsumeIdent(&col)) {
        return Status::ParseError("expected column name after '.'");
      }
      return Resolve(first, col);
    }
    return Resolve("", first);
  }

  std::vector<Token> tokens_;
  const Schema& schema_;
  size_t cursor_ = 0;

  std::vector<TableInstance> tables_;
  int total_slots_ = 0;
  SlotUnion slots_;
  std::vector<std::pair<int, int>> pending_slot_eqs_;
  std::vector<std::pair<int, std::string>> pending_binds_;
};

}  // namespace

Result<ConjunctiveQuery> ParseSql(std::string_view text, const Schema& schema) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Lex();
  if (!tokens.ok()) return tokens.status();
  return SqlParser(std::move(tokens).value(), schema).Parse();
}

}  // namespace fdc::cq
