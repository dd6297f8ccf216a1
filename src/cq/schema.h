// Database schema catalog: relation names, attribute names, arities.
//
// The labeler (§5) and the compressed-label representation (§6.1) both key
// views by relation id, so relations get dense integer ids at registration
// time. Ids are stable for the lifetime of the Schema.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace fdc::cq {

/// Definition of one relation: its name and ordered attribute names.
struct RelationDef {
  int id = -1;
  std::string name;
  std::vector<std::string> attributes;

  int arity() const { return static_cast<int>(attributes.size()); }

  /// Index of an attribute by name, or -1 if absent.
  int AttributeIndex(const std::string& attr) const;
};

/// A catalog of relations. Queries and views are always interpreted against
/// a Schema; atoms refer to relations by id.
class Schema {
 public:
  /// Registers a relation; fails if the name already exists or arity is 0.
  Result<int> AddRelation(std::string name, std::vector<std::string> attrs);

  /// Lookup by name; nullptr if absent. Builds no string.
  const RelationDef* Find(std::string_view name) const;

  /// Lookup by id; nullptr if out of range.
  const RelationDef* FindById(int id) const;

  int NumRelations() const { return static_cast<int>(relations_.size()); }

  const std::vector<RelationDef>& relations() const { return relations_; }

 private:
  std::vector<RelationDef> relations_;
  // Transparent hash and equality: Find probes with a string_view.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>()(name);
    }
  };
  std::unordered_map<std::string, int, NameHash, std::equal_to<>> by_name_;
};

}  // namespace fdc::cq
