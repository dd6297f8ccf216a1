// Parser for the paper's Datalog-style query notation, e.g.
//
//   Q2(x) :- Meetings(x, y), Contacts(y, w, 'Intern')
//
// Conventions: bare identifiers inside parentheses are variables; quoted
// strings ('...' or "...", no escapes) and numeric literals are constants;
// atoms are joined by `,`, `∧` or `AND` (any case), `:−` may stand for `:-`
// and a trailing `.` is allowed. Boolean queries use an empty head:
// `V5() :- Meetings(x, y)`.
#pragma once

#include <string_view>

#include "common/result.h"
#include "cq/query.h"
#include "cq/schema.h"

namespace fdc::cq {

/// Parses one Datalog rule against `schema`. Validates arity and safety.
///
/// Allocation contract (this is the per-request parse of kSubmitText): a
/// rule with n body atoms, at most 64 variables and no name or constant
/// longer than the std::string small-buffer size allocates only the AST —
/// the head, atom and distinguished-variable vectors plus one term vector
/// per atom, n + 3 allocations. Errors quote at most 64 bytes of `text`.
Result<ConjunctiveQuery> ParseDatalog(std::string_view text,
                                      const Schema& schema);

}  // namespace fdc::cq
