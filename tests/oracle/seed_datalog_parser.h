// The seed Datalog parser, kept as the oracle for the production parser's
// differential fuzz (tests/datalog_parser_fuzz_test.cc). Test-only: nothing
// here links into libfdc.
//
// It is the original recursive-descent parser (std::string tokens, a hash
// map of variable names), changed only in how errors quote the input: a
// bounded excerpt around the offset, exactly as cq::ParseDatalog does.
#pragma once

#include <string_view>

#include "common/result.h"
#include "cq/query.h"
#include "cq/schema.h"

namespace fdc::test::oracle {

/// Same contract as cq::ParseDatalog: same grammar, same AST (variables
/// numbered by first appearance, head first), same error codes and
/// messages.
Result<cq::ConjunctiveQuery> SeedParseDatalog(std::string_view text,
                                              const cq::Schema& schema);

}  // namespace fdc::test::oracle
