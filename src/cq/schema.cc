#include "cq/schema.h"

namespace fdc::cq {

int RelationDef::AttributeIndex(const std::string& attr) const {
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

Result<int> Schema::AddRelation(std::string name,
                                std::vector<std::string> attrs) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (attrs.empty()) {
    return Status::InvalidArgument("relation '" + name +
                                   "' must have at least one attribute");
  }
  if (by_name_.contains(name)) {
    return Status::AlreadyExists("relation '" + name + "' already registered");
  }
  for (size_t i = 0; i < attrs.size(); ++i) {
    for (size_t j = i + 1; j < attrs.size(); ++j) {
      if (attrs[i] == attrs[j]) {
        return Status::InvalidArgument("relation '" + name +
                                       "' has duplicate attribute '" +
                                       attrs[i] + "'");
      }
    }
  }
  const int id = static_cast<int>(relations_.size());
  relations_.push_back(RelationDef{id, name, std::move(attrs)});
  by_name_.emplace(relations_.back().name, id);
  return id;
}

const RelationDef* Schema::Find(std::string_view name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return &relations_[it->second];
}

const RelationDef* Schema::FindById(int id) const {
  if (id < 0 || id >= static_cast<int>(relations_.size())) return nullptr;
  return &relations_[id];
}

}  // namespace fdc::cq
