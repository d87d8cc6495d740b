#include "plan/expr_cse.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/hash.h"

namespace scx {

namespace {

/// Value-numbering state: hash buckets of existing step indices, verified
/// by full structural comparison before reuse (the fingerprint idiom), and
/// the column scope of the stage being lowered.
struct PipelineBuilder {
  std::vector<ExprStep>* steps;
  int64_t* duplicates_eliminated;
  std::unordered_map<uint64_t, std::vector<int>> buckets;
  /// The visible schema's ColumnId -> producing step. Ids absent from the
  /// scope are chain-input columns and intern as kColumn steps (cached in
  /// the scope so repeated loads share one step).
  std::unordered_map<ColumnId, int> scope;

  uint64_t StepHash(const ExprStep& s) const {
    switch (s.kind) {
      case ScalarExpr::Kind::kColumn:
        return HashCombine(0x6c01, s.column);
      case ScalarExpr::Kind::kLiteral:
        return HashCombine(0x6c02, s.literal.Hash());
      case ScalarExpr::Kind::kBinary:
        return HashCombine(
            HashCombine(0x6c03, static_cast<uint64_t>(s.op)),
            HashCombine(static_cast<uint64_t>(s.lhs),
                        static_cast<uint64_t>(s.rhs)));
    }
    return 0;
  }

  bool StepEquals(const ExprStep& a, const ExprStep& b) const {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case ScalarExpr::Kind::kColumn:
        return a.column == b.column;
      case ScalarExpr::Kind::kLiteral:
        return a.literal == b.literal;
      case ScalarExpr::Kind::kBinary:
        return a.op == b.op && a.lhs == b.lhs && a.rhs == b.rhs;
    }
    return false;
  }

  /// Interns `step`, returning an existing step index on a structural
  /// match. Operands are already interned, so subtree equality reduces to
  /// operand-index equality — whole-tree dedup in O(1) per node.
  int Intern(ExprStep step, bool count_dedup) {
    uint64_t h = StepHash(step);
    std::vector<int>& bucket = buckets[h];
    for (int idx : bucket) {
      if (StepEquals((*steps)[static_cast<size_t>(idx)], step)) {
        if (count_dedup) ++*duplicates_eliminated;
        return idx;
      }
    }
    int idx = static_cast<int>(steps->size());
    steps->push_back(std::move(step));
    bucket.push_back(idx);
    return idx;
  }

  int LowerColumnRef(ColumnId id) {
    auto it = scope.find(id);
    if (it != scope.end()) return it->second;
    ExprStep step;
    step.kind = ScalarExpr::Kind::kColumn;
    step.column = id;
    int s = Intern(std::move(step), /*count_dedup=*/false);
    scope.emplace(id, s);
    return s;
  }

  int LowerExpr(const ScalarExpr& e) {
    if (e.kind() == ScalarExpr::Kind::kColumn) {
      return LowerColumnRef(e.column());
    }
    if (e.kind() == ScalarExpr::Kind::kLiteral) {
      ExprStep step;
      step.kind = ScalarExpr::Kind::kLiteral;
      step.literal = e.literal();
      return Intern(std::move(step), /*count_dedup=*/false);
    }
    ExprStep step;
    step.kind = ScalarExpr::Kind::kBinary;
    step.op = e.op();
    step.lhs = LowerExpr(*e.lhs());
    step.rhs = LowerExpr(*e.rhs());
    // Canonical operand order for the commutative operators: IEEE-754
    // add/mul and wrapping int arithmetic are operand-order-invariant, so
    // sorting the step indices merges A+B with B+A bit-exactly.
    if ((e.op() == ScalarExpr::BinOp::kAdd ||
         e.op() == ScalarExpr::BinOp::kMul) &&
        step.rhs < step.lhs) {
      std::swap(step.lhs, step.rhs);
    }
    return Intern(std::move(step), /*count_dedup=*/true);
  }
};

}  // namespace

PipelineSchedule BuildPipelineSchedule(
    const std::vector<PipelineStageDesc>& stage_descs) {
  PipelineSchedule sched;
  PipelineBuilder builder;
  builder.steps = &sched.steps;
  builder.duplicates_eliminated = &sched.duplicates_eliminated;

  for (const PipelineStageDesc& desc : stage_descs) {
    PipelineStage stage;
    size_t first_new = sched.steps.size();
    if (desc.predicates != nullptr) {
      stage.is_filter = true;
      for (const BoundPredicate& pred : *desc.predicates) {
        PredStep ps;
        ps.op = pred.op;
        ps.lhs = builder.LowerColumnRef(pred.lhs);
        if (pred.rhs_is_column) {
          ps.rhs = builder.LowerColumnRef(pred.rhs);
        } else {
          ps.literal = pred.literal;
        }
        stage.preds.push_back(std::move(ps));
      }
    } else if (desc.items != nullptr) {
      std::unordered_map<ColumnId, int> next_scope;
      for (const ComputeItem& item : *desc.items) {
        int s = builder.LowerExpr(*item.expr);
        stage.out_steps.push_back(s);
        next_scope[item.out] = s;
      }
      builder.scope = std::move(next_scope);
      sched.output_steps = stage.out_steps;
      sched.reshaped = true;
    } else {
      std::unordered_map<ColumnId, int> next_scope;
      for (const auto& [src, dst] : *desc.project) {
        int s = builder.LowerColumnRef(src);
        stage.out_steps.push_back(s);
        next_scope[dst] = s;
      }
      builder.scope = std::move(next_scope);
      sched.output_steps = stage.out_steps;
      sched.reshaped = true;
    }
    for (size_t s = first_new; s < sched.steps.size(); ++s) {
      stage.eval_steps.push_back(static_cast<int>(s));
      if (sched.steps[s].kind != ScalarExpr::Kind::kColumn) {
        stage.has_eval = true;
      }
    }
    sched.stages.push_back(std::move(stage));
  }

  // Liveness: the largest stage index reading each step's column. Operands
  // of a step evaluated at stage s are read at s; predicate sides are read
  // at their filter's stage; a stage's outputs are live through the stage;
  // the final reshape's outputs are live forever (they ARE the output).
  sched.last_use.assign(sched.steps.size(), -1);
  auto mark = [&](int step, int at) {
    if (step >= 0) {
      int& lu = sched.last_use[static_cast<size_t>(step)];
      lu = std::max(lu, at);
    }
  };
  for (size_t i = 0; i < sched.stages.size(); ++i) {
    const PipelineStage& stage = sched.stages[i];
    int at = static_cast<int>(i);
    for (const PredStep& ps : stage.preds) {
      mark(ps.lhs, at);
      mark(ps.rhs, at);
    }
    for (int s : stage.eval_steps) {
      const ExprStep& step = sched.steps[static_cast<size_t>(s)];
      if (step.kind == ScalarExpr::Kind::kBinary) {
        mark(step.lhs, at);
        mark(step.rhs, at);
      }
    }
    for (int s : stage.out_steps) mark(s, at);
  }
  for (int s : sched.output_steps) mark(s, kPipelineOutputUse);
  return sched;
}

}  // namespace scx
