#ifndef SCX_PLAN_EXPR_CSE_H_
#define SCX_PLAN_EXPR_CSE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "plan/expr.h"
#include "plan/scalar.h"

namespace scx {

/// One step of a chain's shared-slot evaluation schedule. Steps are in
/// dependency order (operands always precede their users), so a batch
/// evaluator runs them top to bottom, each step producing one column.
struct ExprStep {
  ScalarExpr::Kind kind = ScalarExpr::Kind::kLiteral;
  ColumnId column = 0;  ///< kColumn: input column to load
  Value literal;        ///< kLiteral: constant to splat
  ScalarExpr::BinOp op = ScalarExpr::BinOp::kAdd;
  int lhs = -1;  ///< kBinary: operand step indices
  int rhs = -1;
};

// Expression-level CSE over pipeline schedules.
//
// A maximal Filter/Compute/Project chain of the physical plan lowers into
// ONE value-numbered step dag shared by every stage: structurally equal
// ScalarExpr subtrees collapse to a single step, evaluated once per batch
// and referenced thereafter — the expression-granularity analogue of the
// optimizer's shared sub-DAG spools (and of DuckDB's
// CommonSubExpressionOptimizer). A later Compute's reference to an earlier
// stage's output column resolves to that stage's step (not a fresh column
// load), so subtrees dedupe across stage boundaries exactly as they do
// within one stage, and a filter's predicates read computed columns
// directly. A single Compute is a one-stage chain.

/// One filter predicate resolved into the step dag: `step(lhs) op
/// (step(rhs) | literal)`. rhs < 0 selects the literal side.
struct PredStep {
  CompareOp op = CompareOp::kEq;
  int lhs = -1;
  int rhs = -1;
  Value literal;
};

/// One stage of a fused operator chain, in execution (bottom-up) order.
/// Filter stages narrow the live selection; compute/project stages reshape
/// the visible schema to `out_steps` and evaluate `eval_steps` (the steps
/// first needed here, dependency-ordered) densely over the live rows.
struct PipelineStage {
  bool is_filter = false;
  std::vector<PredStep> preds;  ///< filter stages
  /// Steps first interned while lowering this stage, dependency order.
  /// kColumn entries are bound from the chain input, not evaluated.
  std::vector<int> eval_steps;
  /// The stage's output schema columns (schema order); compute/project.
  std::vector<int> out_steps;
  /// True when any eval step actually computes (kLiteral/kBinary) — the
  /// executor compacts the live rows before such a stage so expressions are
  /// only ever evaluated on rows the row-at-a-time path evaluates them on.
  bool has_eval = false;
};

/// Sentinel last_use for steps feeding the chain's final output columns.
inline constexpr int kPipelineOutputUse = 1 << 30;

/// A fused schedule for one maximal Filter/Compute/Project chain.
struct PipelineSchedule {
  std::vector<ExprStep> steps;  ///< global value-numbered step dag
  std::vector<PipelineStage> stages;
  /// Per step: the largest stage index that reads the step's column
  /// (kPipelineOutputUse when the chain output does). A compaction at
  /// stage s drops materialized steps with last_use < s.
  std::vector<int> last_use;
  /// The chain's output schema columns — the last reshaping stage's
  /// out_steps. Empty iff the chain is filters only (output = chain input
  /// columns under the final selection).
  std::vector<int> output_steps;
  bool reshaped = false;  ///< any compute/project stage present
  /// Structurally duplicate binary subtrees eliminated, across all stages.
  int64_t duplicates_eliminated = 0;
};

/// One chain stage's payload, in execution (bottom-up) order. Exactly one
/// of the three pointers is set.
struct PipelineStageDesc {
  const std::vector<BoundPredicate>* predicates = nullptr;  ///< kFilter
  const std::vector<ComputeItem>* items = nullptr;          ///< kCompute
  /// kProject: (src, dst) column pairs in output-schema order.
  const std::vector<std::pair<ColumnId, ColumnId>>* project = nullptr;
};

/// Lowers a chain into a fused schedule. Column references resolve through
/// a per-stage scope (stage outputs shadow chain inputs), so only chain
/// *input* columns become kColumn steps; everything else shares the
/// producing step. Value numbering uses the fingerprint hashing idiom
/// (structural hash + full equality check per bucket, so hash collisions
/// can never merge distinct subtrees). Commutative operators (+, *) are
/// canonicalized by ordering their operand steps, which is bit-exact for
/// IEEE-754 add/mul and two's-complement int wraparound, so `B*A` shares
/// `A*B`'s step without changing a single output bit.
PipelineSchedule BuildPipelineSchedule(
    const std::vector<PipelineStageDesc>& stage_descs);

}  // namespace scx

#endif  // SCX_PLAN_EXPR_CSE_H_
