#ifndef SCX_EXEC_VECTOR_KERNELS_H_
#define SCX_EXEC_VECTOR_KERNELS_H_

#include <cstdint>
#include <vector>

#include "exec/column_batch.h"
#include "plan/expr.h"
#include "plan/expr_cse.h"

namespace scx {

/// The seed of the per-row HashRowKey chain; exposed so batch kernels can
/// start a hash accumulator identically to HashRowKey.
inline constexpr uint64_t kRowKeySeed = 0x2545f4914f6cdd1dULL;

/// Combines column `col`'s first `n` cells into the per-row hash
/// accumulators `h[0..n)` — one HashCombine link of the HashRowKey chain,
/// typed loops per rep, bit-identical to HashCombine(h[i], ValueAt(i).Hash()).
void HashColumnCells(const ColumnVector& col, size_t n, uint64_t* h);

/// Key hash of every batch row over the `positions` columns — bit-identical
/// to HashRowKey(row, positions) on the source rows. Columns are hashed
/// whole (column-major), typed loops per rep; the per-row HashCombine chain
/// order is the positions order, exactly as the row-at-a-time path.
void HashColumns(const ColumnBatch& batch, const std::vector<int>& positions,
                 std::vector<uint64_t>* hashes);

/// BoundPredicate::Evaluate's comparison on two cells: mixed non-string
/// types compare numerically, otherwise the canonical Value ordering.
/// Used for residual join predicates evaluated per candidate pair.
bool PredicatePassCells(CompareOp op, const Value& l, const Value& r);

/// Applies `lhs op (rhs | literal)` over physical rows [0, rows),
/// narrowing `sel`: when `first`, fills sel with all passing row indices;
/// otherwise keeps only the already selected rows that also pass (so a
/// pre-seeded sel from an upstream filter is intersected, never widened).
/// `rhs == nullptr` selects the literal side. Comparison semantics are
/// exactly BoundPredicate::Evaluate's: mixed int/double compares
/// numerically, otherwise the canonical Value ordering applies.
///
/// The dense (`first`) int64/double paths run a branchless blockwise
/// compare-mask loop the compiler auto-vectorizes (CI guards this — see
/// tools/check_vectorization.py) followed by a branchless index compaction;
/// the selective paths compact in place without branching on the outcome.
void SelectByPredicate(const ColumnVector& lhs, const ColumnVector* rhs,
                       const Value& literal, CompareOp op, size_t rows,
                       bool first, SelectionVector* sel);

/// Applies `pred` over the batch, intersecting into `sel`. Positions are
/// pre-resolved by the caller (rhs_pos < 0 means the literal side). A thin
/// wrapper over SelectByPredicate.
void ApplyPredicate(const ColumnBatch& batch, const BoundPredicate& pred,
                    int lhs_pos, int rhs_pos, bool first,
                    SelectionVector* sel);

/// `v` splatted into an n-cell column (the kLiteral step kernel).
ColumnVector SplatColumn(const Value& v, size_t n);

/// One binary expression step over whole columns, reproducing
/// ScalarExpr::Evaluate's dynamic semantics bit-for-bit: kDiv always yields
/// doubles with the divide-by-zero-is-zero rule; +,-,* stay int64 only when
/// both cells are int64; mixed-rep columns fall back to cell-at-a-time
/// Values.
void EvalBinaryColumns(ScalarExpr::BinOp op, const ColumnVector& l,
                       const ColumnVector& r, size_t n, ColumnVector* out);

/// Evaluated shared-slot schedule: one column per step. kColumn steps
/// borrow the input batch's column; computed steps own their storage in
/// `computed`. Use `cols[step]` to read any step's output.
struct EvaluatedSchedule {
  std::vector<ColumnVector> computed;
  std::vector<const ColumnVector*> cols;
};

/// Runs `sched` over the batch: each step evaluated once, in order, with
/// type-specialized binary kernels reproducing ScalarExpr::Evaluate's
/// dynamic semantics bit-for-bit. `step_pos[i]` is the schema position of a
/// kColumn step, -1 otherwise.
void EvalExprSchedule(const ExprSchedule& sched, const ColumnBatch& batch,
                      const std::vector<int>& step_pos,
                      EvaluatedSchedule* out);

}  // namespace scx

#endif  // SCX_EXEC_VECTOR_KERNELS_H_
