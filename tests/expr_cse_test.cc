// Expression-level CSE (src/plan/expr_cse): structurally duplicate
// ScalarExpr subtrees across one Compute stage's items must collapse to a
// single shared-slot step — including operand-swapped '+'/'*' forms via
// commutative canonicalization — while end-to-end execution still computes
// the reference evaluator's outputs (the pass may only change how often a
// subtree is evaluated, never any produced value).

#include "plan/expr_cse.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "catalog/catalog.h"
#include "exec/executor.h"
#include "plan/scalar.h"
#include "testing/reference_eval.h"

namespace scx {
namespace {

using BinOp = ScalarExpr::BinOp;

ComputeItem Item(ScalarExprPtr expr, ColumnId out) {
  ComputeItem item;
  item.expr = std::move(expr);
  item.out = out;
  item.out_name = "c" + std::to_string(out);
  return item;
}

int CountBinarySteps(const ExprSchedule& sched) {
  int n = 0;
  for (const ExprStep& s : sched.steps) {
    if (s.kind == ScalarExpr::Kind::kBinary) ++n;
  }
  return n;
}

TEST(ExprCseTest, PassthroughItemsShareColumnSteps) {
  // Two items forwarding the same column: one kColumn step, no duplicates
  // counted (only binary memo hits count as eliminations).
  auto a = ScalarExpr::Column(1);
  ExprSchedule sched = BuildExprSchedule({Item(a, 10), Item(a, 11)});
  ASSERT_EQ(sched.item_steps.size(), 2u);
  EXPECT_EQ(sched.item_steps[0], sched.item_steps[1]);
  EXPECT_EQ(sched.duplicates_eliminated, 0);
  EXPECT_FALSE(sched.HasSharing());
}

TEST(ExprCseTest, DuplicateSubtreeEvaluatedOnce) {
  // X = (A+B)*(A+B), Y = (A+B)*C: the (A+B) step must appear once and be
  // referenced three times.
  auto a = ScalarExpr::Column(1);
  auto b = ScalarExpr::Column(2);
  auto c = ScalarExpr::Column(3);
  auto ab = ScalarExpr::Binary(BinOp::kAdd, a, b);
  auto x = ScalarExpr::Binary(BinOp::kMul, ab, ab);
  auto ab2 = ScalarExpr::Binary(BinOp::kAdd, a, b);  // distinct tree object
  auto y = ScalarExpr::Binary(BinOp::kMul, ab2, c);
  ExprSchedule sched = BuildExprSchedule({Item(x, 10), Item(y, 11)});

  // Binary steps: one (A+B), one *, one * — the three duplicate uses of
  // (A+B) fold into one step.
  EXPECT_EQ(CountBinarySteps(sched), 3);
  // Memo hits: x's rhs (A+B), and y's lhs (A+B) = 2. (x's lhs built it.)
  EXPECT_EQ(sched.duplicates_eliminated, 2);
  EXPECT_TRUE(sched.HasSharing());

  // The two items map to distinct multiply steps sharing one operand.
  ASSERT_EQ(sched.item_steps.size(), 2u);
  const ExprStep& sx = sched.steps[sched.item_steps[0]];
  const ExprStep& sy = sched.steps[sched.item_steps[1]];
  EXPECT_EQ(sx.lhs, sx.rhs);      // (A+B)*(A+B): both operands one step
  EXPECT_EQ(sy.lhs, sx.lhs);      // y reuses the same (A+B) step
  EXPECT_NE(sched.item_steps[0], sched.item_steps[1]);
}

TEST(ExprCseTest, CommutativeOperandsCanonicalize) {
  // B+A shares A+B's step; B-A must NOT share A-B's.
  auto a = ScalarExpr::Column(1);
  auto b = ScalarExpr::Column(2);
  auto ab = ScalarExpr::Binary(BinOp::kAdd, a, b);
  auto ba = ScalarExpr::Binary(BinOp::kAdd, b, a);
  ExprSchedule add = BuildExprSchedule({Item(ab, 10), Item(ba, 11)});
  EXPECT_EQ(add.item_steps[0], add.item_steps[1]);
  EXPECT_EQ(add.duplicates_eliminated, 1);

  ExprSchedule mul = BuildExprSchedule(
      {Item(ScalarExpr::Binary(BinOp::kMul, a, b), 10),
       Item(ScalarExpr::Binary(BinOp::kMul, b, a), 11)});
  EXPECT_EQ(mul.item_steps[0], mul.item_steps[1]);

  ExprSchedule sub = BuildExprSchedule(
      {Item(ScalarExpr::Binary(BinOp::kSub, a, b), 10),
       Item(ScalarExpr::Binary(BinOp::kSub, b, a), 11)});
  EXPECT_NE(sub.item_steps[0], sub.item_steps[1]);
  EXPECT_EQ(sub.duplicates_eliminated, 0);

  ExprSchedule div = BuildExprSchedule(
      {Item(ScalarExpr::Binary(BinOp::kDiv, a, b), 10),
       Item(ScalarExpr::Binary(BinOp::kDiv, b, a), 11)});
  EXPECT_NE(div.item_steps[0], div.item_steps[1]);
}

TEST(ExprCseTest, LiteralsDedupByValueAndType) {
  // A+2 twice shares everything; Int(2) and Real(2.0) stay distinct steps
  // (different runtime types produce different arithmetic).
  auto a = ScalarExpr::Column(1);
  auto two_int = ScalarExpr::Literal(Value::Int(2));
  auto two_real = ScalarExpr::Literal(Value::Real(2.0));
  ExprSchedule same = BuildExprSchedule(
      {Item(ScalarExpr::Binary(BinOp::kAdd, a, two_int), 10),
       Item(ScalarExpr::Binary(BinOp::kAdd, a, two_int), 11)});
  EXPECT_EQ(same.item_steps[0], same.item_steps[1]);
  EXPECT_EQ(same.duplicates_eliminated, 1);

  ExprSchedule mixed = BuildExprSchedule(
      {Item(ScalarExpr::Binary(BinOp::kAdd, a, two_int), 10),
       Item(ScalarExpr::Binary(BinOp::kAdd, a, two_real), 11)});
  EXPECT_NE(mixed.item_steps[0], mixed.item_steps[1]);
  EXPECT_EQ(mixed.duplicates_eliminated, 0);
}

TEST(ExprCseTest, StepsAreInDependencyOrder) {
  auto a = ScalarExpr::Column(1);
  auto b = ScalarExpr::Column(2);
  auto ab = ScalarExpr::Binary(BinOp::kAdd, a, b);
  auto nested = ScalarExpr::Binary(
      BinOp::kMul, ScalarExpr::Binary(BinOp::kSub, ab, a), ab);
  ExprSchedule sched = BuildExprSchedule({Item(nested, 10)});
  for (size_t i = 0; i < sched.steps.size(); ++i) {
    const ExprStep& s = sched.steps[i];
    if (s.kind == ScalarExpr::Kind::kBinary) {
      EXPECT_GE(s.lhs, 0);
      EXPECT_GE(s.rhs, 0);
      EXPECT_LT(s.lhs, static_cast<int>(i));
      EXPECT_LT(s.rhs, static_cast<int>(i));
    }
  }
}

// --- Cross-stage pipeline schedules (BuildPipelineSchedule) --------------

TEST(PipelineScheduleTest, SharesSubtreesAcrossStages) {
  // Stage 0 computes X=(A+B)*(A+B); stage 1 computes Y=X+A... in pipeline
  // terms: a second compute whose expression re-lowers (A+B) must hit the
  // first stage's step, because stage outputs are lowered into the SAME
  // value-numbering space.
  auto a = ScalarExpr::Column(1);
  auto b = ScalarExpr::Column(2);
  auto ab = ScalarExpr::Binary(BinOp::kAdd, a, b);
  std::vector<ComputeItem> stage0 = {
      Item(ScalarExpr::Binary(BinOp::kMul, ab, ab), 10),
      Item(a, 11)};
  // Stage 1 sees the schema {10, 11}: X=10 squared again (passthrough step
  // reuse) plus a swapped (B+A)-style reference is impossible here (A and B
  // are out of scope), so reference the stage-0 outputs only.
  std::vector<ComputeItem> stage1 = {
      Item(ScalarExpr::Binary(BinOp::kMul, ScalarExpr::Column(10),
                              ScalarExpr::Column(10)),
           20),
      Item(ScalarExpr::Column(11), 21)};
  PipelineStageDesc d0, d1;
  d0.items = &stage0;
  d1.items = &stage1;
  PipelineSchedule sched = BuildPipelineSchedule({d0, d1});

  ASSERT_EQ(sched.stages.size(), 2u);
  // Stage 1's X*X lowers ColumnId 10 THROUGH the scope to stage 0's
  // multiply step — no fresh kColumn step for 10 and no re-evaluation.
  ASSERT_EQ(sched.stages[1].out_steps.size(), 2u);
  const ExprStep& xsq = sched.steps[sched.stages[1].out_steps[0]];
  EXPECT_EQ(xsq.kind, ScalarExpr::Kind::kBinary);
  EXPECT_EQ(xsq.lhs, sched.stages[0].out_steps[0]);
  EXPECT_EQ(xsq.rhs, sched.stages[0].out_steps[0]);
  // Stage 1's passthrough of 11 IS stage 0's step for 11.
  EXPECT_EQ(sched.stages[1].out_steps[1], sched.stages[0].out_steps[1]);
  // Final outputs are stage 1's, marked live forever.
  EXPECT_TRUE(sched.reshaped);
  ASSERT_EQ(sched.output_steps.size(), 2u);
  for (int s : sched.output_steps) {
    EXPECT_EQ(sched.last_use[static_cast<size_t>(s)], kPipelineOutputUse);
  }
}

TEST(PipelineScheduleTest, PredicatesShareStepsWithItems) {
  // WHERE A > 3 then compute (A+B), A: the predicate's kColumn step for A
  // and the items' A references must be one step, and the filter stage must
  // not count as evaluating anything (has_eval false — selection only).
  std::vector<BoundPredicate> preds(1);
  preds[0].lhs = 1;
  preds[0].op = CompareOp::kGt;
  preds[0].literal = Value::Int(3);
  std::vector<ComputeItem> items = {
      Item(ScalarExpr::Binary(BinOp::kAdd, ScalarExpr::Column(1),
                              ScalarExpr::Column(2)),
           10),
      Item(ScalarExpr::Column(1), 11)};
  PipelineStageDesc d0, d1;
  d0.predicates = &preds;
  d1.items = &items;
  PipelineSchedule sched = BuildPipelineSchedule({d0, d1});

  ASSERT_EQ(sched.stages.size(), 2u);
  EXPECT_TRUE(sched.stages[0].is_filter);
  EXPECT_FALSE(sched.stages[0].has_eval);
  ASSERT_EQ(sched.stages[0].preds.size(), 1u);
  int pred_a = sched.stages[0].preds[0].lhs;
  EXPECT_LT(sched.stages[0].preds[0].rhs, 0);  // literal side
  // The compute stage's A+B lhs and passthrough both resolve to the SAME
  // kColumn step the predicate loaded.
  const ExprStep& add = sched.steps[sched.stages[1].out_steps[0]];
  EXPECT_EQ(add.lhs, pred_a);
  EXPECT_EQ(sched.stages[1].out_steps[1], pred_a);
  // The input column A stays live through the compute stage.
  EXPECT_GE(sched.last_use[static_cast<size_t>(pred_a)], 1);
}

TEST(PipelineScheduleTest, ProjectIsScopeRemapOnly) {
  // compute {10: A+B} then project 10 -> 20: the project stage introduces
  // no new steps and keeps reshaped outputs pointing at the compute step.
  std::vector<ComputeItem> items = {
      Item(ScalarExpr::Binary(BinOp::kAdd, ScalarExpr::Column(1),
                              ScalarExpr::Column(2)),
           10)};
  std::vector<std::pair<ColumnId, ColumnId>> remap = {{10, 20}};
  PipelineStageDesc d0, d1;
  d0.items = &items;
  d1.project = &remap;
  PipelineSchedule sched = BuildPipelineSchedule({d0, d1});

  ASSERT_EQ(sched.stages.size(), 2u);
  EXPECT_TRUE(sched.stages[1].eval_steps.empty());  // nothing interned
  EXPECT_FALSE(sched.stages[1].has_eval);
  ASSERT_EQ(sched.output_steps.size(), 1u);
  EXPECT_EQ(sched.output_steps[0], sched.stages[0].out_steps[0]);
}

TEST(PipelineScheduleTest, StageOutputsShadowChainInputs) {
  // After compute {10: A+B}, a later stage's reference to ColumnId 1 (A)
  // must intern a FRESH kColumn step only if 1 is genuinely a chain input
  // again — but the scope was replaced, so a stage referencing 10 gets the
  // compute step while a reference to 1 would be a new load. Liveness: the
  // dead input columns drop at the compute stage's index.
  std::vector<ComputeItem> s0 = {
      Item(ScalarExpr::Binary(BinOp::kAdd, ScalarExpr::Column(1),
                              ScalarExpr::Column(2)),
           10)};
  std::vector<ComputeItem> s1 = {
      Item(ScalarExpr::Binary(BinOp::kMul, ScalarExpr::Column(10),
                              ScalarExpr::Column(10)),
           20)};
  PipelineStageDesc d0, d1;
  d0.items = &s0;
  d1.items = &s1;
  PipelineSchedule sched = BuildPipelineSchedule({d0, d1});
  // The kColumn loads of A and B die at stage 0 (the compute that consumed
  // them): their last_use is 0, so the runner's compaction stops copying
  // them past that stage.
  for (size_t s = 0; s < sched.steps.size(); ++s) {
    if (sched.steps[s].kind == ScalarExpr::Kind::kColumn) {
      EXPECT_EQ(sched.last_use[s], 0) << "step " << s;
    }
  }
}

// --- End-to-end: the pass must never change results, only work done ------

/// A script whose Compute stage repeats (A+B) three times — once operand-
/// swapped — so the CSE schedule has real duplicates to merge.
constexpr char kDupScript[] = R"(E = EXTRACT A,B,C,D FROM "t.log" USING LogExtractor;
P = SELECT A,(A+B)*(A+B) AS X,(B+A)*C AS Y,(A+B)*C AS Z FROM E;
G = SELECT A,Sum(X) AS SX,Min(Y) AS MY,Max(Z) AS MZ FROM P GROUP BY A;
OUTPUT G TO "dup.out";
)";

Catalog DupCatalog() {
  Catalog catalog;
  Status s = catalog.RegisterLog("t.log", {"A", "B", "C", "D"}, 4000,
                                 {8, 25, 4, 200}, /*data_seed=*/7);
  EXPECT_TRUE(s.ok());
  return catalog;
}

/// Runs kDupScript's CSE plan; `reference` receives the reference
/// evaluation of the bound script when non-null.
ExecMetrics RunDupScript(int exec_threads,
                         ReferenceOutputs* reference = nullptr) {
  Catalog catalog = DupCatalog();
  OptimizerConfig config;
  config.cluster.machines = 4;
  Engine engine(catalog, config);
  auto compiled = engine.Compile(kDupScript);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  if (reference != nullptr) {
    auto ref = EvaluateReference(compiled->bound.root);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    *reference = std::move(ref.value());
  }

  ClusterConfig cluster;
  cluster.machines = 4;
  cluster.exec_threads = exec_threads;
  Executor executor(cluster);
  auto metrics = executor.Execute(optimized->plan());
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return std::move(metrics.value());
}

TEST(ExprCseExecutionTest, BatchedRunCountsDedupedExprsAndBatches) {
  ExecMetrics batched = RunDupScript(/*exec_threads=*/1);
  // (B+A) and the second (A+B) hit the memo in every Compute invocation.
  EXPECT_GT(batched.exprs_deduped, 0);
  EXPECT_GT(batched.batches_evaluated, 0);
}

TEST(ExprCseExecutionTest, BatchedExecutionMatchesReference) {
  // The deduplicated expression schedule computes what evaluating every
  // item on its own computes (the reference evaluator runs
  // ScalarExpr::Evaluate per item), at every thread count.
  ReferenceOutputs reference;
  ExecMetrics base = RunDupScript(/*exec_threads=*/1, &reference);
  ExecMetrics expected;
  expected.outputs = std::move(reference);
  EXPECT_TRUE(SameOutputs(expected, base));
  for (int threads : {1, 4}) {
    ExecMetrics batched = RunDupScript(threads);
    EXPECT_EQ(batched.outputs, base.outputs) << "threads " << threads;
    EXPECT_EQ(batched.rows_output, base.rows_output) << threads;
    EXPECT_EQ(batched.rows_shuffled, base.rows_shuffled) << threads;
    EXPECT_EQ(batched.operator_invocations, base.operator_invocations)
        << threads;
    EXPECT_EQ(batched.exprs_deduped, base.exprs_deduped) << threads;
  }
}

TEST(ExprCseExecutionTest, BatchCountersDeterministicAcrossThreads) {
  ExecMetrics serial = RunDupScript(/*exec_threads=*/1);
  ExecMetrics parallel = RunDupScript(/*exec_threads=*/4);
  EXPECT_EQ(serial.batches_evaluated, parallel.batches_evaluated);
  EXPECT_EQ(serial.exprs_deduped, parallel.exprs_deduped);
  EXPECT_EQ(serial.outputs, parallel.outputs);
}

}  // namespace
}  // namespace scx
