// The single-machine reference evaluator (src/testing/reference_eval): its
// ORDER BY check must catch rows out of order, and it must refuse the
// optimizer-only operators. That plans compute its outputs is checked by
// GoldenExecCountersTest (S1-S4, LS1, LS2), the plan-level executor tests
// and scxcheck's reference oracle.

#include "testing/reference_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "api/engine.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

TEST(ReferenceEvalTest, OrderCheckCatchesRowsOutOfOrder) {
  Engine engine(MakeExecutionCatalog(500));
  auto compiled = engine.Compile(
      "R0 = EXTRACT A,B,D FROM \"test.log\" USING LogExtractor;\n"
      "R = SELECT A,B,Sum(D) AS S FROM R0 GROUP BY A,B ORDER BY A,B;\n"
      "OUTPUT R TO \"sorted.out\";\n"
      "OUTPUT R TO \"twice.out\";\n"
      "OUTPUT R TO \"twice.out\";\n");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const LogicalNodePtr& root = compiled->bound.root;
  auto reference = EvaluateReference(root);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference->at("sorted.out").size(), 2u);
  // The reference delivers ORDER BY outputs sorted; a path written twice
  // holds two sorted runs, which is in order too.
  EXPECT_TRUE(CheckOutputOrder(root, *reference).ok());
  EXPECT_EQ(reference->at("twice.out").size(),
            2 * reference->at("sorted.out").size());

  ReferenceOutputs reversed = *reference;
  std::reverse(reversed["sorted.out"].begin(), reversed["sorted.out"].end());
  EXPECT_FALSE(CheckOutputOrder(root, reversed).ok());

  // Three sorted runs in a path that only two statements write.
  ReferenceOutputs thrice = *reference;
  const std::vector<Row>& once = reference->at("sorted.out");
  thrice["twice.out"].insert(thrice["twice.out"].end(), once.begin(),
                             once.end());
  EXPECT_FALSE(CheckOutputOrder(root, thrice).ok());
}

TEST(ReferenceEvalTest, OptimizerOnlyKindsAreInvalidArgument) {
  auto extract = std::make_shared<LogicalNode>(LogicalOpKind::kExtract,
                                               Schema(),
                                               std::vector<LogicalNodePtr>{});
  extract->file.path = "empty.log";
  auto spool = std::make_shared<LogicalNode>(
      LogicalOpKind::kSpool, Schema(), std::vector<LogicalNodePtr>{extract});
  auto result = EvaluateReference(spool);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace scx
