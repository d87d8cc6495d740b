#ifndef SCX_EXEC_EXEC_DETAIL_H_
#define SCX_EXEC_EXEC_DETAIL_H_

// Row semantics shared by the executor (batch_executor.cc) and the
// reference evaluator (testing/reference_eval.cc): the synthetic data and
// the aggregate state and finalization. The two must agree exactly, so
// these live here once instead of being reimplemented twice.

#include <cstdint>

#include "catalog/catalog.h"
#include "common/value.h"
#include "plan/expr.h"

namespace scx {
namespace exec_detail {

/// Deterministic synthetic cell value for (file, column, row) — the
/// simulated cluster's data generator.
Value SyntheticValue(const FileDef& file, int col_index, int64_t row_index);

/// Running state for one aggregate over one group.
struct AggState {
  double dsum = 0;
  int64_t isum = 0;
  int64_t count = 0;
  Value minv;
  Value maxv;
  bool seen = false;
};

/// The finalized output cell of aggregate `a` from state `s`. `global`
/// merges partial states (the split rule's merge phase); `local` emits the
/// partial (a local Avg emits its partial sum; the partial count is the
/// separate hidden column appended by the caller).
Value FinalizeAggCell(const AggregateDesc& a, const AggState& s, bool global,
                      bool local);

}  // namespace exec_detail
}  // namespace scx

#endif  // SCX_EXEC_EXEC_DETAIL_H_
