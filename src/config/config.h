// Disclosure configuration files.
//
// Figure 2's workflow has users (helped by platform developers and privacy
// watchdogs) author security views and policies ahead of time. This module
// gives that artifact a concrete, diffable, reviewable form: a line-oriented
// text format declaring the schema, the security views (in the paper's
// Datalog notation), and named partition policies.
//
//   # Alice's calendar
//   relation Meetings(time, person)
//   relation Contacts(person, email, position)
//
//   view meetings_full: V(x, y) :- Meetings(x, y)
//   view meeting_times: V(x) :- Meetings(x, y)
//   view contacts_full: V(x, y, z) :- Contacts(x, y, z)
//
//   policy alice {
//     partition meetings_side: meetings_full, meeting_times
//     partition contacts_side: contacts_full
//   }
//
// A '#' outside a quoted constant starts a comment that runs to the end of
// the line; inside a constant ('a#b' or "it's #1") it is part of the value.
//
// Parsing validates everything through the same code paths the engine uses
// (schema arity, view safety/single-atom shape, policy compilation), and
// WriteConfig() round-trips.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cq/schema.h"
#include "label/view_catalog.h"
#include "policy/policy.h"

namespace fdc::config {

/// A parsed configuration: owns the schema and catalog (the catalog holds a
/// pointer into the schema, so the pair is heap-allocated and pinned).
struct DisclosureConfig {
  std::unique_ptr<cq::Schema> schema;
  std::unique_ptr<label::ViewCatalog> catalog;
  std::vector<std::pair<std::string, policy::SecurityPolicy>> policies;

  /// Policy lookup by name; nullptr if absent.
  const policy::SecurityPolicy* FindPolicy(const std::string& name) const;
};

/// Parses a configuration document. Errors carry the line number.
Result<std::unique_ptr<DisclosureConfig>> ParseConfig(std::string_view text);

/// Serializes a configuration; ParseConfig(WriteConfig(c)) reproduces the
/// same schema, views (up to variable naming) and policies.
std::string WriteConfig(const DisclosureConfig& config);

}  // namespace fdc::config
