// Tests for paper Sec. IV: expression fingerprints (Def. 1) and
// IdentifyCommonSubexpressions (Algorithm 1) — explicit spool insertion,
// fingerprint-based duplicate merging, and column-identity rewriting.

#include <gtest/gtest.h>

#include "core/fingerprint.h"
#include "memo/memo.h"
#include "plan/binder.h"
#include "script/parser.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

Memo MemoOf(const std::string& script) {
  Catalog catalog = MakePaperCatalog();
  auto ast = ParseScript(script);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto bound = BindScript(*ast, catalog);
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  return Memo::FromLogicalDag(bound->root);
}

int CountShared(const Memo& memo) {
  int n = 0;
  for (GroupId g : memo.TopologicalOrder()) {
    if (memo.group(g).is_shared()) ++n;
  }
  return n;
}

// The same subexpression written twice, with distinct result names (and
// therefore distinct column ids): only fingerprints can merge these.
const char kDuplicatedScript[] = R"(
A0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
A1 = SELECT A,B,Sum(D) AS S FROM A0 GROUP BY A,B;
B0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
B1 = SELECT A,B,Sum(D) AS S FROM B0 GROUP BY A,B;
A2 = SELECT A,Sum(S) AS T FROM A1 GROUP BY A;
B2 = SELECT B,Sum(S) AS T FROM B1 GROUP BY B;
OUTPUT A2 TO "a.out";
OUTPUT B2 TO "b.out";
)";

// Two identical chains (extract -> aggregate -> aggregate), each with its
// own output: the shape two identical scripts take in a merged batch memo.
const char kTwoIdenticalChains[] = R"(
A0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
A1 = SELECT A,B,Sum(D) AS S FROM A0 GROUP BY A,B;
A2 = SELECT A,Sum(S) AS T FROM A1 GROUP BY A;
B0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
B1 = SELECT A,B,Sum(D) AS S FROM B0 GROUP BY A,B;
B2 = SELECT A,Sum(S) AS T FROM B1 GROUP BY A;
OUTPUT A2 TO "a.out";
OUTPUT B2 TO "b.out";
)";

// Structurally different aggregates over the same extract: same Def. 1
// fingerprint (payload excluded) but NOT equal — must not merge.
const char kCollidingScript[] = R"(
A0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
A1 = SELECT A,Sum(D) AS S FROM A0 GROUP BY A;
A2 = SELECT B,Sum(D) AS S FROM A0 GROUP BY B;
OUTPUT A1 TO "a.out";
OUTPUT A2 TO "b.out";
)";

TEST(FingerprintTest, Definition1LeafIsFileId) {
  Memo memo = MemoOf(kScriptS1);
  auto fp = ComputeFingerprints(memo, false);
  for (GroupId g : memo.TopologicalOrder()) {
    const GroupExpr& e = memo.group(g).initial_expr();
    if (e.op->kind() == LogicalOpKind::kExtract) {
      EXPECT_EQ(fp.at(g), static_cast<uint64_t>(e.op->file.file_id) %
                              (((uint64_t{1} << 61) - 1)));
    }
  }
}

TEST(FingerprintTest, EqualSubexpressionsGetEqualFingerprints) {
  Memo memo = MemoOf(kDuplicatedScript);
  auto fp = ComputeFingerprints(memo, false);
  // Find the two first-level aggregates (A1 / B1).
  std::vector<uint64_t> agg_fps;
  for (GroupId g : memo.TopologicalOrder()) {
    const GroupExpr& e = memo.group(g).initial_expr();
    if (e.op->kind() == LogicalOpKind::kGbAgg &&
        (e.op->result_name == "A1" || e.op->result_name == "B1")) {
      agg_fps.push_back(fp.at(g));
    }
  }
  ASSERT_EQ(agg_fps.size(), 2u);
  EXPECT_EQ(agg_fps[0], agg_fps[1]);
}

TEST(FingerprintTest, DifferentFilesGetDifferentFingerprints) {
  Memo memo = MemoOf(kScriptS3);  // reads test.log and test2.log
  auto fp = ComputeFingerprints(memo, false);
  std::vector<uint64_t> extract_fps;
  for (GroupId g : memo.TopologicalOrder()) {
    if (memo.group(g).initial_expr().op->kind() == LogicalOpKind::kExtract) {
      extract_fps.push_back(fp.at(g));
    }
  }
  ASSERT_EQ(extract_fps.size(), 2u);
  EXPECT_NE(extract_fps[0], extract_fps[1]);
}

TEST(EquivalenceTest, EqualSubexpressionsProduceColumnMap) {
  Memo memo = MemoOf(kDuplicatedScript);
  GroupId a1 = kInvalidGroup, b1 = kInvalidGroup;
  for (GroupId g : memo.TopologicalOrder()) {
    const GroupExpr& e = memo.group(g).initial_expr();
    if (e.op->result_name == "A1") a1 = g;
    if (e.op->result_name == "B1") b1 = g;
  }
  ASSERT_NE(a1, kInvalidGroup);
  ASSERT_NE(b1, kInvalidGroup);
  std::map<ColumnId, ColumnId> remap;
  ASSERT_TRUE(EquivalentSubexpressions(memo, a1, b1, &remap));
  // Every output column of B1 maps positionally onto A1's.
  const Schema& sa = memo.group(a1).schema();
  const Schema& sb = memo.group(b1).schema();
  for (int i = 0; i < sb.NumColumns(); ++i) {
    EXPECT_EQ(remap.at(sb.column(i).id), sa.column(i).id);
  }
}

TEST(EquivalenceTest, DifferentGroupingsAreNotEquivalent) {
  Memo memo = MemoOf(kCollidingScript);
  GroupId a1 = kInvalidGroup, a2 = kInvalidGroup;
  for (GroupId g : memo.TopologicalOrder()) {
    const GroupExpr& e = memo.group(g).initial_expr();
    if (e.op->result_name == "A1") a1 = g;
    if (e.op->result_name == "A2") a2 = g;
  }
  EXPECT_FALSE(EquivalentSubexpressions(memo, a1, a2, nullptr));
  // ...even though their Def. 1 fingerprints collide (same OpIDs, same
  // child), which is exactly why Algorithm 1 compares colliding entries.
  auto fp = ComputeFingerprints(memo, false);
  EXPECT_EQ(fp.at(a1), fp.at(a2));
}

TEST(Algorithm1Test, ExplicitSharedGroupGetsSpool) {
  Memo memo = MemoOf(kScriptS1);
  int before = memo.num_groups();
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, {});
  EXPECT_EQ(r.explicit_shared, 1);  // R
  EXPECT_EQ(r.merged, 0);
  EXPECT_EQ(memo.num_groups(), before + 1);  // one spool group
  EXPECT_EQ(CountShared(memo), 1);
  // The spool has the two consumers as parents; R has only the spool.
  for (GroupId g : memo.TopologicalOrder()) {
    if (!memo.group(g).is_shared()) continue;
    EXPECT_EQ(memo.group(g).initial_expr().op->kind(), LogicalOpKind::kSpool);
    EXPECT_EQ(memo.ParentsOf(g).size(), 2u);
  }
}

TEST(Algorithm1Test, FingerprintMergeUnifiesDuplicates) {
  Memo memo = MemoOf(kDuplicatedScript);
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, {});
  // A0/B0 and A1/B1 are textual duplicates. Merging the A1/B1 subexpression
  // subsumes the extract duplication (one merge at the highest root).
  EXPECT_GE(r.merged, 1);
  EXPECT_GE(CountShared(memo), 1);
  // After the merge, consumers A2 and B2 must reference valid columns of
  // the canonical subexpression: their group columns must exist in their
  // child's schema.
  for (GroupId g : memo.TopologicalOrder()) {
    const GroupExpr& e = memo.group(g).initial_expr();
    if (e.op->kind() != LogicalOpKind::kGbAgg) continue;
    const Schema& child_schema = memo.group(e.children[0]).schema();
    for (ColumnId c : e.op->group_cols) {
      EXPECT_GE(child_schema.PositionOf(c), 0)
          << "dangling column #" << c << " in " << e.op->Describe();
    }
  }
}

TEST(Algorithm1Test, CollidingButUnequalNotMerged) {
  Memo memo = MemoOf(kCollidingScript);
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, {});
  EXPECT_EQ(r.merged, 0);
  // A0 is explicitly shared (two consumers) — exactly one spool.
  EXPECT_EQ(r.explicit_shared, 1);
}

TEST(Algorithm1Test, FingerprintMergeCanBeDisabled) {
  Memo memo = MemoOf(kDuplicatedScript);
  CseIdentifyOptions opts;
  opts.fingerprint_merge = false;
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, opts);
  EXPECT_EQ(r.merged, 0);
  EXPECT_EQ(r.explicit_shared, 0);  // nothing explicitly shared here
}

TEST(Algorithm1Test, PayloadSeasoningSeparatesColliders) {
  Memo memo = MemoOf(kCollidingScript);
  auto plain = ComputeFingerprints(memo, false);
  auto seasoned = ComputeFingerprints(memo, true);
  GroupId a1 = kInvalidGroup, a2 = kInvalidGroup;
  for (GroupId g : memo.TopologicalOrder()) {
    const GroupExpr& e = memo.group(g).initial_expr();
    if (e.op->result_name == "A1") a1 = g;
    if (e.op->result_name == "A2") a2 = g;
  }
  EXPECT_EQ(plain.at(a1), plain.at(a2));
  // Seasoning keeps equal-shape expressions colliding (these two have the
  // same shape), so results must be identical either way — the merge
  // decision is made by structural comparison, not the hash.
  Memo m1 = MemoOf(kCollidingScript);
  CseIdentifyOptions with;
  with.include_payload_hash = true;
  CseIdentifyResult r1 = IdentifyCommonSubexpressions(&m1, with);
  EXPECT_EQ(r1.merged, 0);
  (void)seasoned;
}

TEST(Algorithm1Test, PruningKeepsOnlyTheMaximalSharedChain) {
  // Without pruning, the merge leaves a spool at each of the chain's three
  // levels, the two interior ones feeding a single consumer.
  Memo plain = MemoOf(kTwoIdenticalChains);
  CseIdentifyResult r0 = IdentifyCommonSubexpressions(&plain, {});
  EXPECT_EQ(r0.merged, 3);
  EXPECT_EQ(r0.pruned_spools, 0);
  EXPECT_EQ(r0.spool_groups.size(), 3u);

  // With pruning (the batch path's setting), only the top of the chain —
  // the spool read by both outputs — survives.
  Memo memo = MemoOf(kTwoIdenticalChains);
  CseIdentifyOptions opts;
  opts.prune_single_consumer_spools = true;
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, opts);
  EXPECT_EQ(r.merged, 3);
  EXPECT_EQ(r.pruned_spools, 2);
  ASSERT_EQ(r.spool_groups.size(), 1u);
  const GroupId spool = r.spool_groups[0];
  EXPECT_EQ(CountShared(memo), 1);
  EXPECT_EQ(memo.ParentsOf(spool).size(), 2u);
  const GroupExpr& e = memo.group(spool).initial_expr();
  ASSERT_EQ(e.op->kind(), LogicalOpKind::kSpool);
  EXPECT_EQ(memo.group(e.children[0]).initial_expr().op->result_name, "A2");
}

TEST(Algorithm1Test, S3FindsTwoSharedGroups) {
  Memo memo = MemoOf(kScriptS3);
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, {});
  // R and T are each consumed twice (different files — not merged).
  EXPECT_EQ(r.explicit_shared, 2);
  EXPECT_EQ(CountShared(memo), 2);
}

TEST(Algorithm1Test, S4FindsNestedSharedGroups) {
  Memo memo = MemoOf(kScriptS4);
  CseIdentifyResult r = IdentifyCommonSubexpressions(&memo, {});
  // R (consumed by R1, R2), R1 (join + output), R2 (join + output).
  EXPECT_EQ(r.explicit_shared, 3);
}

}  // namespace
}  // namespace scx
