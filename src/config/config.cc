#include "config/config.h"

#include <vector>

#include "common/string_utils.h"
#include "cq/printer.h"

namespace fdc::config {

namespace {

// Splits a comma-separated list of identifiers; empty items are errors.
Result<std::vector<std::string>> SplitIdentList(std::string_view text,
                                                int line_no) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    std::string_view item = comma == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, comma - start);
    item = TrimView(item);
    if (item.empty()) {
      return Status::ParseError("empty identifier in list at line " +
                                std::to_string(line_no));
    }
    out.emplace_back(item);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  return out;
}

// Cuts `line` at its first '#' outside a quoted constant. Quoting follows
// the Datalog grammar (cq::ParseDatalog): a constant opens with ' or " and
// closes at the next matching quote, with no escapes — which is also how
// cq::ToDatalog writes constants, so WriteConfig output round-trips.
std::string_view StripComment(std::string_view line) {
  char quote = 0;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quote != 0) {
      if (c == quote) quote = 0;
    } else if (c == '\'' || c == '"') {
      quote = c;
    } else if (c == '#') {
      return line.substr(0, i);
    }
  }
  return line;
}

struct PendingPolicy {
  std::string name;
  std::vector<policy::Partition> partitions;
};

}  // namespace

const policy::SecurityPolicy* DisclosureConfig::FindPolicy(
    const std::string& name) const {
  for (const auto& [policy_name, policy] : policies) {
    if (policy_name == name) return &policy;
  }
  return nullptr;
}

Result<std::unique_ptr<DisclosureConfig>> ParseConfig(std::string_view text) {
  auto config = std::make_unique<DisclosureConfig>();
  config->schema = std::make_unique<cq::Schema>();
  config->catalog = std::make_unique<label::ViewCatalog>(config->schema.get());

  std::vector<PendingPolicy> pending;
  PendingPolicy* open_policy = nullptr;

  int line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view raw = eol == std::string_view::npos
                               ? text.substr(pos)
                               : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments and whitespace.
    std::string_view line = TrimView(StripComment(raw));
    if (line.empty()) continue;

    auto error = [&](const std::string& what) {
      return Status::ParseError(what + " at line " + std::to_string(line_no));
    };

    if (line == "}") {
      if (open_policy == nullptr) return error("unmatched '}'");
      if (open_policy->partitions.empty()) {
        return error("policy '" + open_policy->name + "' has no partitions");
      }
      open_policy = nullptr;
      continue;
    }

    if (open_policy != nullptr) {
      // Inside a policy block: "partition <name>: v1, v2, ..."
      if (!line.starts_with("partition")) {
        return error("expected 'partition' or '}' inside policy block");
      }
      std::string_view rest = TrimView(line.substr(9));
      size_t colon = rest.find(':');
      if (colon == std::string_view::npos) {
        return error("expected ':' after partition name");
      }
      std::string part_name{TrimView(rest.substr(0, colon))};
      if (part_name.empty()) return error("partition needs a name");
      Result<std::vector<std::string>> names =
          SplitIdentList(rest.substr(colon + 1), line_no);
      if (!names.ok()) return names.status();
      policy::Partition partition;
      partition.name = part_name;
      for (const std::string& view_name : *names) {
        const label::SecurityView* view =
            config->catalog->FindByName(view_name);
        if (view == nullptr) {
          return error("unknown view '" + view_name + "' in partition '" +
                       part_name + "'");
        }
        partition.view_ids.push_back(view->id);
      }
      open_policy->partitions.push_back(std::move(partition));
      continue;
    }

    if (line.starts_with("relation")) {
      // relation Name(attr1, attr2, ...)
      std::string_view rest = TrimView(line.substr(8));
      size_t open = rest.find('(');
      size_t close = rest.rfind(')');
      if (open == std::string_view::npos || close == std::string_view::npos ||
          close < open) {
        return error("malformed relation declaration");
      }
      std::string name{TrimView(rest.substr(0, open))};
      Result<std::vector<std::string>> attrs =
          SplitIdentList(rest.substr(open + 1, close - open - 1), line_no);
      if (!attrs.ok()) return attrs.status();
      Result<int> id = config->schema->AddRelation(name, std::move(*attrs));
      if (!id.ok()) return error(id.status().message());
      continue;
    }

    if (line.starts_with("view")) {
      // view <name>: <datalog>
      std::string_view rest = TrimView(line.substr(4));
      size_t colon = rest.find(':');
      // Beware: the Datalog body contains ":-"; the *first* colon that is
      // not part of ":-" separates name from definition. A name cannot
      // contain ':', so the first colon works iff it is not followed by '-'.
      if (colon == std::string_view::npos ||
          (colon + 1 < rest.size() && rest[colon + 1] == '-')) {
        return error("expected 'view <name>: <definition>'");
      }
      std::string name{TrimView(rest.substr(0, colon))};
      std::string definition{TrimView(rest.substr(colon + 1))};
      Result<int> id = config->catalog->AddViewText(name, definition);
      if (!id.ok()) return error(id.status().message());
      continue;
    }

    if (line.starts_with("policy")) {
      std::string_view rest = TrimView(line.substr(6));
      if (!rest.ends_with("{")) return error("expected '{' after policy name");
      std::string name{TrimView(rest.substr(0, rest.size() - 1))};
      if (name.empty()) return error("policy needs a name");
      for (const PendingPolicy& p : pending) {
        if (p.name == name) return error("duplicate policy '" + name + "'");
      }
      pending.push_back(PendingPolicy{name, {}});
      open_policy = &pending.back();
      continue;
    }

    return error("unrecognized directive '" +
                 std::string(line.substr(0, line.find(' '))) + "'");
  }
  if (open_policy != nullptr) {
    return Status::ParseError("unterminated policy block '" +
                              open_policy->name + "'");
  }

  // Compile policies last (all views known).
  for (PendingPolicy& p : pending) {
    Result<policy::SecurityPolicy> compiled =
        policy::SecurityPolicy::Compile(*config->catalog,
                                        std::move(p.partitions));
    if (!compiled.ok()) return compiled.status();
    config->policies.emplace_back(p.name, std::move(*compiled));
  }
  return config;
}

std::string WriteConfig(const DisclosureConfig& config) {
  std::string out;
  for (const cq::RelationDef& rel : config.schema->relations()) {
    out += "relation " + rel.name + "(" + JoinStrings(rel.attributes, ", ") +
           ")\n";
  }
  out += "\n";
  for (const label::SecurityView& view : config.catalog->views()) {
    cq::ConjunctiveQuery def = view.pattern.ToQuery(view.name);
    out += "view " + view.name + ": " +
           cq::ToDatalog(def, *config.schema) + "\n";
  }
  for (const auto& [name, policy] : config.policies) {
    out += "\npolicy " + name + " {\n";
    for (const policy::Partition& partition : policy.partitions()) {
      std::vector<std::string> names;
      for (int id : partition.view_ids) {
        names.push_back(config.catalog->view(id).name);
      }
      out += "  partition " + partition.name + ": " +
             JoinStrings(names, ", ") + "\n";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace fdc::config
