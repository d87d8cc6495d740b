// End-to-end optimizer tests for paper Secs. III–VIII: phase-1 conventional
// optimization, property-history recording, phase-2 enforcement, plan shape
// (Fig. 8), and the large-script extensions.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "api/engine.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

Engine::Comparison CompareScript(const char* script,
                                 OptimizerConfig config = {}) {
  Engine engine(MakePaperCatalog(), config);
  auto c = engine.Compare(script);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return std::move(c.value());
}

/// Collects all distinct nodes of a plan DAG.
void Collect(const PhysicalNodePtr& node,
             std::set<const PhysicalNode*>* seen,
             std::vector<PhysicalNodePtr>* out) {
  if (!seen->insert(node.get()).second) return;
  out->push_back(node);
  for (const PhysicalNodePtr& c : node->children) Collect(c, seen, out);
}

std::vector<PhysicalNodePtr> DagNodes(const PhysicalNodePtr& root) {
  std::set<const PhysicalNode*> seen;
  std::vector<PhysicalNodePtr> out;
  Collect(root, &seen, &out);
  return out;
}

int CountKind(const PhysicalNodePtr& root, PhysicalOpKind kind) {
  int n = 0;
  for (const PhysicalNodePtr& node : DagNodes(root)) {
    if (node->kind == kind) ++n;
  }
  return n;
}

TEST(OptimizerTest, S1CseBeatsConventional) {
  auto c = CompareScript(kScriptS1);
  EXPECT_LT(c.cse.cost(), c.conventional.cost());
  // Paper Fig. 7: S1 saving is 38%; ours lands in the same regime.
  EXPECT_LT(c.cost_ratio, 0.8);
  EXPECT_GT(c.cost_ratio, 0.3);
}

TEST(OptimizerTest, S1ConventionalExecutesSubexpressionTwice) {
  auto c = CompareScript(kScriptS1);
  // Two extracts in tree terms: the Extract winner may be pointer-shared,
  // but the plan has two repartition+aggregate pipelines and no spool.
  EXPECT_EQ(CountKind(c.conventional.plan(), PhysicalOpKind::kSpool), 0);
  EXPECT_GE(CountKind(c.conventional.plan(), PhysicalOpKind::kHashExchange) +
                CountKind(c.conventional.plan(),
                          PhysicalOpKind::kMergeExchange),
            2);
}

TEST(OptimizerTest, S1CsePlanMatchesPaperFig8b) {
  auto c = CompareScript(kScriptS1);
  const PhysicalNodePtr& plan = c.cse.plan();
  // Exactly one spool, exactly one extract, exactly one exchange — the
  // shared subexpression executes once.
  EXPECT_EQ(CountKind(plan, PhysicalOpKind::kSpool), 1);
  EXPECT_EQ(CountKind(plan, PhysicalOpKind::kExtract), 1);
  int exchanges = CountKind(plan, PhysicalOpKind::kHashExchange) +
                  CountKind(plan, PhysicalOpKind::kMergeExchange);
  EXPECT_EQ(exchanges, 1);
  // The one exchange partitions on {B} alone: the covering subset that
  // serves both consumers (paper Fig. 8(b)).
  for (const PhysicalNodePtr& node : DagNodes(plan)) {
    if (node->kind == PhysicalOpKind::kHashExchange ||
        node->kind == PhysicalOpKind::kMergeExchange) {
      EXPECT_EQ(node->exchange_cols.Size(), 1);
    }
  }
  // Consumers read the spool without further repartitioning: the spool's
  // parents in the DAG are aggregation (or sort) operators, not exchanges.
  for (const PhysicalNodePtr& node : DagNodes(plan)) {
    for (const PhysicalNodePtr& child : node->children) {
      if (child->kind == PhysicalOpKind::kSpool) {
        EXPECT_NE(node->kind, PhysicalOpKind::kHashExchange);
        EXPECT_NE(node->kind, PhysicalOpKind::kMergeExchange);
      }
    }
  }
}

TEST(OptimizerTest, S2ThreeConsumersSaveMore) {
  auto c1 = CompareScript(kScriptS1);
  auto c2 = CompareScript(kScriptS2);
  // Paper: more consumers -> larger saving (S2 55% vs S1 38%).
  EXPECT_LT(c2.cost_ratio, c1.cost_ratio);
}

TEST(OptimizerTest, S3TwoSharedGroupsBothExploited) {
  auto c = CompareScript(kScriptS3);
  EXPECT_LT(c.cost_ratio, 0.8);
  EXPECT_EQ(CountKind(c.cse.plan(), PhysicalOpKind::kSpool), 2);
  EXPECT_EQ(c.cse.result.diagnostics.num_shared_groups, 2);
  // Different LCAs for the two shared groups (paper Fig. 6 / S3).
  std::set<GroupId> lcas;
  for (const auto& [s, lca] : c.cse.result.diagnostics.lca_of) {
    lcas.insert(lca);
  }
  EXPECT_EQ(lcas.size(), 2u);
}

TEST(OptimizerTest, S4NonIndependentGroups) {
  auto c = CompareScript(kScriptS4);
  EXPECT_LT(c.cost_ratio, 0.8);
  EXPECT_EQ(c.cse.result.diagnostics.num_shared_groups, 3);
}

TEST(OptimizerTest, PlansDeliverValidProperties) {
  for (const char* script : {kScriptS1, kScriptS2, kScriptS3, kScriptS4}) {
    auto c = CompareScript(script);
    for (const PhysicalNodePtr& node : DagNodes(c.cse.plan())) {
      // Every aggregation's input must be partitioned within its grouping
      // columns (or serial): the runtime-correctness invariant.
      if (node->kind == PhysicalOpKind::kHashAgg ||
          node->kind == PhysicalOpKind::kStreamAgg) {
        if (node->proto->kind() == LogicalOpKind::kLocalGbAgg) continue;
        const Partitioning& in = node->children[0]->delivered.partitioning;
        if (node->proto->group_cols.empty()) {
          EXPECT_EQ(in.kind, PartitioningKind::kSerial);
        } else {
          PartitioningReq req = PartitioningReq::SubsetOf(
              ColumnSet::FromVector(node->proto->group_cols));
          EXPECT_TRUE(req.SatisfiedBy(in))
              << script << ": " << node->Describe();
        }
      }
      // Stream aggregates must receive input sorted on their order.
      if (node->kind == PhysicalOpKind::kStreamAgg) {
        EXPECT_TRUE(node->children[0]->delivered.sort.SatisfiesPrefix(
            node->sort_spec))
            << node->Describe();
      }
    }
  }
}

TEST(OptimizerTest, HistoryRecordsSubsetExpansion) {
  Engine engine(MakePaperCatalog());
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(cse.ok());
  // Find the shared spool group and its history.
  const Optimizer& opt = *cse->optimizer;
  const SharedInfo* info = opt.shared_info();
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->shared_groups().size(), 1u);
  const PropertyHistory* history = opt.HistoryOf(info->shared_groups()[0]);
  ASSERT_NE(history, nullptr);
  // Sec. V: requirement [∅,{A,B}] from R1 and [∅,{B,C}] from R2 expand into
  // exact entries; {B} must be among them, with more than 4 entries total.
  EXPECT_GE(history->size(), 5);
  bool has_single_b = false;
  for (const auto& e : history->entries()) {
    if (e.props.partitioning.kind == PartReqKind::kHashExact &&
        e.props.partitioning.cols.Size() == 1) {
      has_single_b = true;
    }
  }
  EXPECT_TRUE(has_single_b);
}

TEST(OptimizerTest, RoundsExecutedMatchPlanned) {
  auto c = CompareScript(kScriptS1);
  const auto& d = c.cse.result.diagnostics;
  EXPECT_GT(d.rounds_planned, 0);
  EXPECT_EQ(d.rounds_executed, d.rounds_planned);
  EXPECT_FALSE(d.budget_exhausted);
}

TEST(OptimizerTest, BudgetStopsRoundsButStillReturnsPlan) {
  OptimizerConfig config;
  config.max_rounds = 2;
  auto c = CompareScript(kScriptS4, config);
  const auto& d = c.cse.result.diagnostics;
  EXPECT_LE(d.rounds_executed, 2);
  EXPECT_TRUE(d.budget_exhausted);
  ASSERT_NE(c.cse.plan(), nullptr);
  // Still at least as good as phase 1 alone.
  EXPECT_LE(c.cse.cost(), d.phase1_cost + 1e-9);
}

TEST(OptimizerTest, ZeroSecondBudgetFallsBackGracefully) {
  OptimizerConfig config;
  config.budget_seconds = 0.0;
  auto c = CompareScript(kScriptS1, config);
  ASSERT_NE(c.cse.plan(), nullptr);
  EXPECT_TRUE(c.cse.result.diagnostics.budget_exhausted);
}

TEST(OptimizerTest, IndependentGroupsExtensionReducesRounds) {
  // S3's shared groups live under different LCAs, so use a two-module
  // script with one LCA (the Sequence root) for this ablation.
  const char kTwoModules[] = R"(
A0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
A  = SELECT A,B,C,Sum(D) AS S FROM A0 GROUP BY A,B,C;
A1 = SELECT A,B,Sum(S) AS T FROM A GROUP BY A,B;
A2 = SELECT B,C,Sum(S) AS T FROM A GROUP BY B,C;
B0 = EXTRACT A,B,C,D FROM "test2.log" USING LogExtractor;
B  = SELECT A,B,C,Sum(D) AS S FROM B0 GROUP BY A,B,C;
B1 = SELECT A,B,Sum(S) AS T FROM B GROUP BY A,B;
B2 = SELECT B,C,Sum(S) AS T FROM B GROUP BY B,C;
OUTPUT A1 TO "a1.out";
OUTPUT A2 TO "a2.out";
OUTPUT B1 TO "b1.out";
OUTPUT B2 TO "b2.out";
)";
  OptimizerConfig with;
  with.exploit_independent_groups = true;
  OptimizerConfig without;
  without.exploit_independent_groups = false;
  auto c_with = CompareScript(kTwoModules, with);
  auto c_without = CompareScript(kTwoModules, without);
  EXPECT_LT(c_with.cse.result.diagnostics.rounds_executed,
            c_without.cse.result.diagnostics.rounds_executed);
  // Same final cost: the sequential search explores the same frontier.
  EXPECT_NEAR(c_with.cse.cost(), c_without.cse.cost(),
              c_with.cse.cost() * 0.01);
}

TEST(OptimizerTest, ExtensionsPreserveResultQuality) {
  // Turning rankings off must not change the best cost when the budget is
  // unlimited (they only change evaluation ORDER).
  OptimizerConfig plain;
  plain.rank_shared_groups = false;
  plain.rank_properties = false;
  plain.exploit_independent_groups = false;
  auto base = CompareScript(kScriptS4);
  auto noext = CompareScript(kScriptS4, plain);
  EXPECT_NEAR(base.cse.cost(), noext.cse.cost(), base.cse.cost() * 0.02);
}

TEST(OptimizerTest, AggSplitCanBeDisabled) {
  OptimizerConfig config;
  config.enable_agg_split = false;
  auto c = CompareScript(kScriptS1, config);
  // No local/global pairs anywhere in either plan.
  for (const PhysicalNodePtr& node : DagNodes(c.cse.plan())) {
    if (node->proto != nullptr) {
      EXPECT_NE(node->proto->kind(), LogicalOpKind::kLocalGbAgg);
      EXPECT_NE(node->proto->kind(), LogicalOpKind::kGlobalGbAgg);
    }
  }
  EXPECT_LT(c.cse.cost(), c.conventional.cost());
}

TEST(OptimizerTest, ConventionalModeHasNoSharedDiagnostics) {
  Engine engine(MakePaperCatalog());
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto conv = engine.Optimize(*compiled, OptimizerMode::kConventional);
  ASSERT_TRUE(conv.ok());
  EXPECT_EQ(conv->result.diagnostics.num_shared_groups, 0);
  EXPECT_EQ(conv->result.diagnostics.rounds_executed, 0);
}

TEST(OptimizerTest, DagCostNeverExceedsTreeCost) {
  for (const char* script : {kScriptS1, kScriptS2, kScriptS3, kScriptS4}) {
    auto c = CompareScript(script);
    EXPECT_LE(DagCost(c.cse.plan()), TreeCost(c.cse.plan()) + 1e-6);
    EXPECT_LE(DagCost(c.conventional.plan()),
              TreeCost(c.conventional.plan()) + 1e-6);
  }
}

TEST(OptimizerTest, GrandTotalAggregationIsSerial) {
  auto c = CompareScript(
      "R0 = EXTRACT A,B,C,D FROM \"test.log\" USING X;\n"
      "R  = SELECT Sum(D) AS S FROM R0;\n"
      "OUTPUT R TO \"o\";");
  bool found_serial_agg = false;
  for (const PhysicalNodePtr& node : DagNodes(c.conventional.plan())) {
    if ((node->kind == PhysicalOpKind::kHashAgg ||
         node->kind == PhysicalOpKind::kStreamAgg) &&
        node->proto->group_cols.empty() &&
        node->proto->kind() != LogicalOpKind::kLocalGbAgg) {
      EXPECT_EQ(node->children[0]->delivered.partitioning.kind,
                PartitioningKind::kSerial);
      found_serial_agg = true;
    }
  }
  EXPECT_TRUE(found_serial_agg);
}

TEST(OptimizerTest, JoinInputsAreCoPartitioned) {
  auto c = CompareScript(kScriptS3);
  for (const PhysicalNodePtr& node : DagNodes(c.cse.plan())) {
    if (node->kind != PhysicalOpKind::kHashJoin &&
        node->kind != PhysicalOpKind::kMergeJoin) {
      continue;
    }
    const Partitioning& l = node->children[0]->delivered.partitioning;
    const Partitioning& r = node->children[1]->delivered.partitioning;
    if (l.kind == PartitioningKind::kSerial) {
      EXPECT_EQ(r.kind, PartitioningKind::kSerial);
      continue;
    }
    ASSERT_EQ(l.kind, PartitioningKind::kHash);
    ASSERT_EQ(r.kind, PartitioningKind::kHash);
    // The sides are partitioned on aligned subsets of the key columns.
    ColumnSet lkeys, rkeys;
    for (const auto& [lk, rk] : node->proto->join_keys) {
      lkeys.Insert(lk);
      rkeys.Insert(rk);
    }
    EXPECT_TRUE(l.cols.IsSubsetOf(lkeys)) << node->Describe();
    EXPECT_TRUE(r.cols.IsSubsetOf(rkeys)) << node->Describe();
    EXPECT_EQ(l.cols.Size(), r.cols.Size());
  }
}


/// Observable outcome of one kCse optimization.
struct CseOutcome {
  double cost = 0;
  std::string plan;
  long rounds_executed = 0;
  OptCacheCounters cache;
};

CseOutcome OptimizeCse(const std::string& script, bool trace_rounds = true,
                       const Catalog& catalog = MakePaperCatalog()) {
  OptimizerConfig config;
  config.trace_rounds = trace_rounds;
  // Determinism is only promised while the budget never expires; disable it.
  config.budget_seconds = 1e9;
  Engine engine(catalog, config);
  auto compiled = engine.Compile(script);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  CseOutcome out;
  out.cost = optimized->cost();
  out.plan = optimized->Explain();
  out.rounds_executed = optimized->result.diagnostics.rounds_executed;
  out.cache = optimized->result.diagnostics.cache;
  return out;
}

TEST(OptimizerTest, TraceNeverChangesSearch) {
  // The round trace only records: with it off, the search must do exactly
  // the same work — same plan, cost and rounds, and every cache counter
  // equal — on every paper script and both large scripts.
  struct Case {
    const char* name;
    Catalog catalog;
    std::string script;
  };
  GeneratedScript ls1 = GenerateLargeScript(Ls1Spec());
  GeneratedScript ls2 = GenerateLargeScript(Ls2Spec());
  const Case cases[] = {{"S1", MakePaperCatalog(), kScriptS1},
                        {"S2", MakePaperCatalog(), kScriptS2},
                        {"S3", MakePaperCatalog(), kScriptS3},
                        {"S4", MakePaperCatalog(), kScriptS4},
                        {"LS1", ls1.catalog, ls1.text},
                        {"LS2", ls2.catalog, ls2.text}};
  for (const Case& c : cases) {
    CseOutcome traced = OptimizeCse(c.script, true, c.catalog);
    CseOutcome quiet = OptimizeCse(c.script, false, c.catalog);
    EXPECT_EQ(traced.cost, quiet.cost) << c.name;
    EXPECT_EQ(traced.plan, quiet.plan) << c.name;
    EXPECT_GT(traced.rounds_executed, 0) << c.name;
    EXPECT_EQ(traced.rounds_executed, quiet.rounds_executed) << c.name;
    const OptCacheCounters& a = traced.cache;
    const OptCacheCounters& b = quiet.cache;
    EXPECT_EQ(a.winner_hits, b.winner_hits) << c.name;
    EXPECT_EQ(a.winner_misses, b.winner_misses) << c.name;
    EXPECT_EQ(a.spool_hits, b.spool_hits) << c.name;
    EXPECT_EQ(a.spool_misses, b.spool_misses) << c.name;
    EXPECT_EQ(a.pruned_alternatives, b.pruned_alternatives) << c.name;
    EXPECT_EQ(a.pruned_rounds, b.pruned_rounds) << c.name;
    EXPECT_EQ(a.interner_size, b.interner_size) << c.name;
  }
}

TEST(OptimizerTest, CountersDeterministicAcrossRuns) {
  // Cache hit/miss and pruning totals are reproducible run to run.
  CseOutcome a = OptimizeCse(kScriptS3);
  CseOutcome b = OptimizeCse(kScriptS3);
  EXPECT_EQ(a.cache.winner_hits, b.cache.winner_hits);
  EXPECT_EQ(a.cache.winner_misses, b.cache.winner_misses);
  EXPECT_EQ(a.cache.spool_hits, b.cache.spool_hits);
  EXPECT_EQ(a.cache.spool_misses, b.cache.spool_misses);
  EXPECT_EQ(a.cache.pruned_alternatives, b.cache.pruned_alternatives);
  EXPECT_EQ(a.cache.pruned_rounds, b.cache.pruned_rounds);
  EXPECT_EQ(a.cache.interner_size, b.cache.interner_size);
  EXPECT_GT(a.cache.winner_hits, 0);
  EXPECT_GT(a.cache.winner_misses, 0);
  EXPECT_GT(a.cache.interner_size, 0);
}

TEST(OptimizerTest, NaiveSharingDeterministicAcrossRuns) {
  Engine engine(MakePaperCatalog());
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto a = engine.Optimize(*compiled, OptimizerMode::kNaiveSharing);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  auto b = engine.Optimize(*compiled, OptimizerMode::kNaiveSharing);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cost(), b->cost());
}

TEST(OptimizerTest, SecondRunReturnsFailedPrecondition) {
  Catalog catalog = MakePaperCatalog();
  Engine engine(catalog);
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  Memo memo = Memo::FromLogicalDag(compiled->bound.root);
  Optimizer optimizer(std::move(memo), compiled->bound.columns,
                      engine.config());
  auto first = optimizer.Run(OptimizerMode::kCse);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = optimizer.Run(OptimizerMode::kCse);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // Re-optimization goes through a fresh context instead (the Engine builds
  // one per Optimize call).
  auto again = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->cost(), first->cost);
}

}  // namespace
}  // namespace scx
