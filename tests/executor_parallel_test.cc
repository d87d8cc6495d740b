// Intra-query parallel determinism: executing the SAME physical plan with a
// worker pool must be bit-identical to the serial run — every ExecMetrics
// counter AND the raw (uncanonicalized) output rows. This is the contract
// documented in docs/architecture.md §12/§15: each partition-parallel job
// writes only its own partition's slot and all merges happen in fixed
// partition order, so the thread count can never change results. Runs
// under tsan in CI with SCX_NUM_THREADS=4.
//
// Passes over fewer than Executor::kSerialCutoffRows live rows run inline
// at any thread count, so the small-input cases below check the inline
// side only; SerialCutoffBothSidesBitIdentical,
// EveryOperatorKindMatchesSerialOnThePool and
// MergeExchangeSortMatchesSerialOnThePool size their inputs above the
// cutoff and assert that the pool really ran (Executor::pool_passes).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "api/engine.h"
#include "testing/reference_eval.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"
#include "paper_script_param.h"

namespace scx {
namespace {

struct PlanUnderTest {
  std::string name;
  PhysicalNodePtr plan;
  int machines = 8;
  LogicalNodePtr logical;  ///< the bound script the plan was optimized from
};

PlanUnderTest OptimizeOnce(const std::string& name, const Catalog& catalog,
                           const std::string& text, OptimizerMode mode,
                           int machines) {
  OptimizerConfig config;
  config.cluster.machines = machines;
  Engine engine(catalog, config);
  auto compiled = engine.Compile(text);
  EXPECT_TRUE(compiled.ok()) << name << ": " << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, mode);
  EXPECT_TRUE(optimized.ok()) << name << ": "
                              << optimized.status().ToString();
  return {name, optimized->plan(), machines, compiled->bound.root};
}

ExecMetrics RunWithCluster(const PlanUnderTest& t, ClusterConfig cluster,
                           int64_t* pool_passes = nullptr) {
  cluster.machines = t.machines;
  Executor executor(cluster);
  auto metrics = executor.Execute(t.plan);
  EXPECT_TRUE(metrics.ok()) << t.name << ": "
                            << metrics.status().ToString();
  if (pool_passes != nullptr) *pool_passes = executor.pool_passes();
  return std::move(metrics.value());
}

ExecMetrics RunWithThreads(const PlanUnderTest& t, int threads,
                           int64_t* pool_passes = nullptr) {
  ClusterConfig cluster;
  cluster.exec_threads = threads;
  return RunWithCluster(t, cluster, pool_passes);
}

/// The run's outputs are the reference evaluation's (canonical compare, as
/// SameOutputs), and every ORDER BY output arrived in order.
void ExpectMatchesReference(const PlanUnderTest& t, const ExecMetrics& run,
                            const std::string& at) {
  auto reference = EvaluateReference(t.logical);
  ASSERT_TRUE(reference.ok()) << t.name << ": "
                              << reference.status().ToString();
  ExecMetrics expected;
  expected.outputs = std::move(*reference);
  EXPECT_TRUE(SameOutputs(expected, run)) << t.name << " " << at;
  Status order = CheckOutputOrder(t.logical, run.outputs);
  EXPECT_TRUE(order.ok()) << t.name << " " << at << ": " << order.ToString();
}

void ExpectBitIdentical(const PlanUnderTest& t, const ExecMetrics& serial,
                        const ExecMetrics& parallel) {
  EXPECT_EQ(serial.rows_extracted, parallel.rows_extracted) << t.name;
  EXPECT_EQ(serial.rows_shuffled, parallel.rows_shuffled) << t.name;
  EXPECT_EQ(serial.bytes_shuffled, parallel.bytes_shuffled) << t.name;
  EXPECT_EQ(serial.bytes_spooled, parallel.bytes_spooled) << t.name;
  EXPECT_EQ(serial.rows_spooled, parallel.rows_spooled) << t.name;
  EXPECT_EQ(serial.spool_executions, parallel.spool_executions) << t.name;
  EXPECT_EQ(serial.spool_reads, parallel.spool_reads) << t.name;
  EXPECT_EQ(serial.spool_cache_hits, parallel.spool_cache_hits) << t.name;
  EXPECT_EQ(serial.operator_invocations, parallel.operator_invocations)
      << t.name;
  EXPECT_EQ(serial.rows_output, parallel.rows_output) << t.name;
  // The batch-path counters are accounted on the master from partition
  // sizes alone (per-partition accumulator slots merged in partition
  // order), so they too are thread-count invariant.
  EXPECT_EQ(serial.batches_evaluated, parallel.batches_evaluated) << t.name;
  EXPECT_EQ(serial.exprs_deduped, parallel.exprs_deduped) << t.name;
  // One scan job per non-empty partition: a function of the data only.
  EXPECT_EQ(serial.morsels_evaluated, parallel.morsels_evaluated) << t.name;
  // Every counter, including the ones not named above (the JSON form
  // lists them all in declaration order).
  EXPECT_EQ(ExecMetricsToJson(serial), ExecMetricsToJson(parallel))
      << t.name;
  // Raw row-for-row equality — not just canonical equivalence. The merge
  // order is part of the determinism contract.
  EXPECT_EQ(serial.outputs, parallel.outputs) << t.name;
}

void CheckScript(const std::string& name, const Catalog& catalog,
                 const std::string& text, OptimizerMode mode,
                 int machines = 8) {
  PlanUnderTest t = OptimizeOnce(name, catalog, text, mode, machines);
  ASSERT_NE(t.plan, nullptr) << name;
  ExecMetrics serial = RunWithThreads(t, 1);
  ExecMetrics parallel = RunWithThreads(t, 4);
  ExpectBitIdentical(t, serial, parallel);
  ASSERT_FALSE(serial.outputs.empty()) << name;
  ExpectMatchesReference(t, serial, "serial");
}

class PaperScriptParallel
    : public ::testing::TestWithParam<PaperScriptParam> {};

TEST_P(PaperScriptParallel, CseMatchesSerial) {
  CheckScript(GetParam().name, MakeExecutionCatalog(5000), GetParam().text,
              OptimizerMode::kCse);
}

TEST_P(PaperScriptParallel, ConventionalMatchesSerial) {
  CheckScript(GetParam().name, MakeExecutionCatalog(5000), GetParam().text,
              OptimizerMode::kConventional);
}

INSTANTIATE_TEST_SUITE_P(
    PaperScripts, PaperScriptParallel, PaperScriptParams(),
    PaperScriptParamName);

TEST(ExecutorParallelTest, Ls1MatchesSerial) {
  LargeScriptSpec spec = Ls1Spec();
  spec.rows_per_file = 1500;
  GeneratedScript ls = GenerateLargeScript(spec);
  CheckScript("LS1", ls.catalog, ls.text, OptimizerMode::kCse);
}

TEST(ExecutorParallelTest, Ls2MatchesSerial) {
  LargeScriptSpec spec = Ls2Spec();
  spec.rows_per_file = 400;
  GeneratedScript ls = GenerateLargeScript(spec);
  CheckScript("LS2", ls.catalog, ls.text, OptimizerMode::kCse);
}

TEST(ExecutorParallelTest, ManyThreadsAndFewMachines) {
  // More threads than partitions, and threads > machines: the pool just
  // leaves workers idle, results unchanged.
  PlanUnderTest t = OptimizeOnce("S1", MakeExecutionCatalog(3000), kScriptS1,
                                 OptimizerMode::kCse, /*machines=*/3);
  ExecMetrics serial = RunWithThreads(t, 1);
  ExecMetrics parallel = RunWithThreads(t, 8);
  ExpectBitIdentical(t, serial, parallel);
}

TEST(ExecutorParallelTest, ThreadSweepBitIdenticalAndMatchesReference) {
  // Every thread count must produce the serial run's raw rows and counters,
  // and the serial run must compute what the reference evaluator computes.
  for (auto [name, script] :
       {std::make_pair("S2", kScriptS2), std::make_pair("S4", kScriptS4)}) {
    PlanUnderTest t = OptimizeOnce(name, MakeExecutionCatalog(4000), script,
                                   OptimizerMode::kCse, /*machines=*/4);
    ASSERT_NE(t.plan, nullptr) << name;
    ExecMetrics serial = RunWithThreads(t, /*threads=*/1);
    ExpectMatchesReference(t, serial, "serial");
    EXPECT_GT(serial.batches_evaluated, 0) << name;
    for (int threads : {2, 3, 4, 7}) {
      ExpectBitIdentical(t, serial, RunWithThreads(t, threads));
    }
  }
}

TEST(ExecutorParallelTest, SpoolHeavyThreadSweepPreservesSpoolCounters) {
  // A shared aggregate with three consumers: in kCse mode the optimizer
  // spools it, and the column-batch spool cache must account one
  // execution plus one cache hit per further read — at every thread count,
  // with the reference evaluator's outputs.
  PlanUnderTest t = OptimizeOnce("S2-spool", MakeExecutionCatalog(4000),
                                 kScriptS2, OptimizerMode::kCse,
                                 /*machines=*/4);
  ASSERT_NE(t.plan, nullptr);
  ExecMetrics base = RunWithThreads(t, /*threads=*/1);
  ASSERT_GT(base.spool_cache_hits, 0) << "S2 kCse must share via a spool";
  EXPECT_EQ(base.spool_reads, base.spool_executions + base.spool_cache_hits);
  ExpectMatchesReference(t, base, "serial");
  for (int threads : {1, 4}) {
    ExecMetrics run = RunWithThreads(t, threads);
    ExpectBitIdentical(t, base, run);
    EXPECT_EQ(run.outputs, base.outputs) << "threads " << threads;
    EXPECT_EQ(run.bytes_spooled, base.bytes_spooled) << threads;
    EXPECT_EQ(run.rows_spooled, base.rows_spooled) << threads;
    EXPECT_EQ(run.spool_executions, base.spool_executions) << threads;
    EXPECT_EQ(run.spool_reads, base.spool_reads) << threads;
    EXPECT_EQ(run.spool_cache_hits, base.spool_cache_hits) << threads;
  }
}

TEST(ExecutorParallelTest, ExchangeHeavyThreadSweepPreservesShuffleCounters) {
  // Hash exchanges (group-bys over a shared spool) plus a range exchange
  // (the ORDER BY: columnar quantile boundaries + partition-binned
  // scatter). Shuffle accounting and raw rows must not move with the
  // thread count, and the rows must be the reference evaluator's, in
  // ORDER BY order.
  const char* script =
      "R0 = EXTRACT A,B,C,D FROM \"test.log\" USING LogExtractor;\n"
      "R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;\n"
      "R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B ORDER BY A,B;\n"
      "R2 = SELECT B,C,Sum(S) AS S2 FROM R GROUP BY B,C;\n"
      "OUTPUT R1 TO \"result1.out\";\n"
      "OUTPUT R2 TO \"result2.out\";\n";
  PlanUnderTest t = OptimizeOnce("orderby", MakeExecutionCatalog(4000),
                                 script, OptimizerMode::kCse, /*machines=*/4);
  ASSERT_NE(t.plan, nullptr);
  ExecMetrics base = RunWithThreads(t, /*threads=*/1);
  ASSERT_GT(base.rows_shuffled, 0);
  ExpectMatchesReference(t, base, "serial");
  for (int threads : {1, 4}) {
    ExecMetrics run = RunWithThreads(t, threads);
    ExpectBitIdentical(t, base, run);
    EXPECT_EQ(run.outputs, base.outputs) << "threads " << threads;
    EXPECT_EQ(run.rows_shuffled, base.rows_shuffled) << threads;
    EXPECT_EQ(run.bytes_shuffled, base.bytes_shuffled) << threads;
  }
}

TEST(ExecutorParallelTest, SerialCutoffBothSidesBitIdentical) {
  // The extract, the first exchange and the aggregate input passes each
  // cover 2 x kSerialCutoffRows live rows — above the cutoff, so at 4
  // threads they run on the pool. GROUP BY A has 8 distinct keys, so every
  // pass after the aggregation (merge exchange, global aggregate, sort,
  // output) sees a few dozen rows and runs inline. Outputs and every
  // counter must be the serial run's on both sides of the cutoff, and the
  // scan-job count must not depend on which side a pass fell.
  const char* script =
      "R0 = EXTRACT A,B,D FROM \"test.log\" USING LogExtractor;\n"
      "R1 = SELECT A,Sum(D) AS S,Count(*) AS N FROM R0 GROUP BY A "
      "ORDER BY A;\n"
      "R2 = SELECT A,B,Sum(D) AS S FROM R0 WHERE B < 5 GROUP BY A,B;\n"
      "OUTPUT R1 TO \"result1.out\";\n"
      "OUTPUT R2 TO \"result2.out\";\n";
  const int64_t rows = 2 * Executor::kSerialCutoffRows;
  PlanUnderTest t = OptimizeOnce("cutoff", MakeExecutionCatalog(rows), script,
                                 OptimizerMode::kCse, /*machines=*/8);
  ASSERT_NE(t.plan, nullptr);
  ExecMetrics base = RunWithThreads(t, /*threads=*/1);
  ASSERT_GE(base.rows_extracted, rows);
  ASSERT_LE(base.outputs.at("result1.out").size(), 8u);
  ExpectMatchesReference(t, base, "serial");
  EXPECT_GT(base.morsels_evaluated, 0);
  int64_t pool_passes = -1;
  ExecMetrics parallel = RunWithThreads(t, 4, &pool_passes);
  ExpectBitIdentical(t, base, parallel);
  EXPECT_GT(pool_passes, 0);
}

// Two logs of 2 x kSerialCutoffRows rows whose A column is near-unique, so
// grouping or joining on A keeps passes above the serial cutoff all the way
// through the plan (the execution catalog's 8 x 50 x 8 key space collapses
// every input to a few thousand rows after its first aggregate).
Catalog MakeAboveCutoffCatalog() {
  const int64_t rows = 2 * Executor::kSerialCutoffRows;
  Catalog catalog;
  EXPECT_TRUE(catalog
                  .RegisterLog("test.log", {"A", "B", "C", "D"}, rows,
                               {rows, 50, 8, 500}, /*data_seed=*/11)
                  .ok());
  EXPECT_TRUE(catalog
                  .RegisterLog("test2.log", {"A", "B", "C", "D"}, rows,
                               {rows, 50, 8, 500}, /*data_seed=*/23)
                  .ok());
  return catalog;
}

TEST(ExecutorParallelTest, EveryOperatorKindMatchesSerialOnThePool) {
  // Each operator kind gets passes of more than kSerialCutoffRows live
  // rows, so at 4 threads they run on the worker pool: extract, the hash
  // exchanges and the aggregates over the union (4 x cutoff rows), the
  // shared aggregate R (nearly one group per row) and its spool, the
  // ORDER BY's range exchange and sort over R1 (~1.7 x cutoff groups),
  // and the hash join (R1 x T1 on A, ~1.3 x cutoff pairs). The union
  // itself concatenates on the calling thread. A clean run, plus a
  // fault-armed run whose recovery recomputes lost partitions: every
  // output and counter must be the serial run's, and the outputs the
  // reference evaluator's. The spool budget is pinned, so the tsan job's
  // environment (1 MiB) does not turn this into thousands of
  // recomputations.
  const char* script =
      "R0 = EXTRACT A,B,D FROM \"test.log\" USING LogExtractor;\n"
      "T0 = EXTRACT A,B,D FROM \"test2.log\" USING LogExtractor;\n"
      "U  = UNION ALL R0,T0;\n"
      "R  = SELECT A,B,Sum(D) AS S FROM U GROUP BY A,B;\n"
      "R1 = SELECT A,Sum(S) AS S1 FROM R GROUP BY A ORDER BY A;\n"
      "R2 = SELECT B,Sum(S) AS S2 FROM R GROUP BY B;\n"
      "T1 = SELECT A,Count(*) AS N FROM T0 GROUP BY A;\n"
      "J  = SELECT R1.A,S1,N FROM R1,T1 WHERE R1.A=T1.A;\n"
      "OUTPUT R1 TO \"sorted.out\";\n"
      "OUTPUT R2 TO \"by_b.out\";\n"
      "OUTPUT J TO \"joined.out\";\n";
  PlanUnderTest t = OptimizeOnce("above-cutoff", MakeAboveCutoffCatalog(),
                                 script, OptimizerMode::kCse, /*machines=*/8);
  ASSERT_NE(t.plan, nullptr);
  ClusterConfig cluster;
  cluster.spool_cache_bytes = -1;
  cluster.exec_threads = 1;
  int64_t serial_passes = -1, pool_passes = -1;
  ExecMetrics base = RunWithCluster(t, cluster, &serial_passes);
  ASSERT_GT(base.outputs.at("joined.out").size(),
            static_cast<size_t>(Executor::kSerialCutoffRows));
  ASSERT_GT(base.spool_cache_hits, 0) << "R and R1 must be spooled";
  ExpectMatchesReference(t, base, "serial");
  EXPECT_EQ(serial_passes, 0);
  cluster.exec_threads = 4;
  ExecMetrics parallel = RunWithCluster(t, cluster, &pool_passes);
  ExpectBitIdentical(t, base, parallel);
  EXPECT_GT(pool_passes, 0);

  cluster.fault_plan.seed = 7;
  cluster.fault_plan.failure_prob = 0.1;
  cluster.fault_plan.max_failures = 4;
  cluster.exec_threads = 1;
  ExecMetrics serial = RunWithCluster(t, cluster);
  ASSERT_GT(serial.machine_failures_injected, 0);
  cluster.exec_threads = 4;
  pool_passes = -1;
  parallel = RunWithCluster(t, cluster, &pool_passes);
  ExpectBitIdentical(t, serial, parallel);
  EXPECT_EQ(serial.outputs, base.outputs);
  EXPECT_GT(pool_passes, 0);
}

/// The first order-preserving merge exchange of the plan DAG, or nullptr.
PhysicalNodePtr FindMergeExchange(const PhysicalNodePtr& node) {
  if (node->kind == PhysicalOpKind::kMergeExchange) return node;
  for (const PhysicalNodePtr& child : node->children) {
    if (PhysicalNodePtr found = FindMergeExchange(child)) return found;
  }
  return nullptr;
}

TEST(ExecutorParallelTest, MergeExchangeSortMatchesSerialOnThePool) {
  // The shared aggregate S is sorted on (C,A) below a spool that a hash
  // join also reads, so the optimizer repartitions S's local aggregate on
  // A with an order-preserving merge exchange. A is near-unique over 4 x
  // kSerialCutoffRows rows, so that exchange — its destination pass and
  // the sort inside it — sees more than 2 x kSerialCutoffRows live rows
  // and runs on the pool at 4 threads. Outputs and every counter must be
  // the serial run's, and the outputs the reference evaluator's.
  const int64_t rows = 4 * Executor::kSerialCutoffRows;
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .RegisterLog("test.log", {"A", "B", "C", "D"}, rows,
                               {rows, 50, 8, 500}, /*data_seed=*/11)
                  .ok());
  const char* script =
      "E   = EXTRACT A,B,C,D FROM \"test.log\" USING LogExtractor;\n"
      "S   = SELECT A,C,Sum(D) AS S FROM E GROUP BY A,C;\n"
      "C0A = SELECT C,Sum(S) AS V FROM S GROUP BY C;\n"
      "C0B = SELECT C,Min(S) AS V FROM S GROUP BY C;\n"
      "C0  = UNION ALL C0A,C0B;\n"
      "C1A = SELECT A,C,Sum(S) AS P FROM S GROUP BY A,C;\n"
      "C1B = SELECT A,C,Max(S) AS Q FROM S GROUP BY A,C;\n"
      "C1  = SELECT C1A.A,C1A.C,P,Q FROM C1A,C1B "
      "WHERE C1A.A=C1B.A AND C1A.C=C1B.C;\n"
      "C2D = SELECT C,Max(S) AS Cap FROM S GROUP BY C;\n"
      "C2J = SELECT E.C,D,Cap FROM E,C2D WHERE E.C=C2D.C;\n"
      "C2  = SELECT C,Sum(D) AS V,Min(Cap) AS W FROM C2J GROUP BY C;\n"
      "OUTPUT C0 TO \"o0.out\";\n"
      "OUTPUT C1 TO \"o1.out\";\n"
      "OUTPUT C2 TO \"o2.out\";\n";
  PlanUnderTest t = OptimizeOnce("merge-exchange", catalog, script,
                                 OptimizerMode::kCse, /*machines=*/8);
  ASSERT_NE(t.plan, nullptr);
  PhysicalNodePtr merge = FindMergeExchange(t.plan);
  ASSERT_NE(merge, nullptr) << "the plan must repartition with a merge";
  // Rows the merge exchange itself moves, and the pool passes it adds: its
  // sub-plan run at 4 threads with and without it on top.
  PlanUnderTest below = t;
  below.plan = merge->children[0];
  PlanUnderTest with = t;
  with.plan = merge;
  int64_t below_passes = -1, with_passes = -1;
  const int64_t merged_rows =
      RunWithThreads(with, 4, &with_passes).rows_shuffled -
      RunWithThreads(below, 4, &below_passes).rows_shuffled;
  ASSERT_GE(merged_rows, 2 * Executor::kSerialCutoffRows);
  EXPECT_GT(with_passes, below_passes);

  ExecMetrics serial = RunWithThreads(t, 1);
  ExpectMatchesReference(t, serial, "serial");
  int64_t pool_passes = -1;
  ExecMetrics parallel = RunWithThreads(t, 4, &pool_passes);
  ExpectBitIdentical(t, serial, parallel);
  EXPECT_GT(pool_passes, 0);
}

TEST(ExecutorParallelTest, ExecThreadsZeroUsesDefaultAndMatchesSerial) {
  PlanUnderTest t = OptimizeOnce("S2", MakeExecutionCatalog(3000), kScriptS2,
                                 OptimizerMode::kCse, /*machines=*/8);
  ExecMetrics serial = RunWithThreads(t, 1);
  ExecMetrics defaulted = RunWithThreads(t, 0);  // DefaultNumThreads()
  ExpectBitIdentical(t, serial, defaulted);
}

}  // namespace
}  // namespace scx
