#ifndef SCX_TESTING_REFERENCE_EVAL_H_
#define SCX_TESTING_REFERENCE_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "plan/logical_op.h"

namespace scx {

/// Output rows per OUTPUT path, as an execution would report them.
using ReferenceOutputs = std::map<std::string, std::vector<Row>>;

/// Single-machine reference evaluation of a bound logical DAG (the binder's
/// BoundScript::root) — the differential oracle the executor's plans are
/// checked against. It shares nothing physical with the plan under test: no
/// partitions, exchanges, spools, physical properties or key tables. Rows of
/// Extract are synthesized in file order; shared nodes are evaluated once
/// (memoized by pointer); a group-by is evaluated unsplit, grouping keys by
/// Value equality (so every NaN key row is a group of its own, as in the
/// executor). Outputs with an ORDER BY come back sorted on their order keys.
/// Row semantics (predicates, scalar expressions, aggregate state and
/// finalization, synthetic data) are the ones the executor defines.
///
/// Handles every kind the binder emits; optimizer-only kinds (split
/// aggregates, spools) are an InvalidArgument.
Result<ReferenceOutputs> EvaluateReference(const LogicalNodePtr& root);

/// Checks that every OUTPUT path of `root` with an ORDER BY delivered its
/// rows in order: the raw `outputs` of that path must be non-decreasing on
/// the order keys, apart from one restart per additional OUTPUT statement
/// writing the same path (each statement's rows are appended in turn).
/// Returns a description of the first violation, or OK.
Status CheckOutputOrder(const LogicalNodePtr& root,
                        const ReferenceOutputs& outputs);

}  // namespace scx

#endif  // SCX_TESTING_REFERENCE_EVAL_H_
