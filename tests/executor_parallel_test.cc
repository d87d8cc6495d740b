// Intra-query parallel determinism: executing the SAME physical plan with a
// worker pool must be bit-identical to the serial run — every ExecMetrics
// counter AND the raw (uncanonicalized) output rows. This is the contract
// documented in docs/architecture.md §12/§15: partition and (partition,
// morsel) jobs write only their own output slot and all merges happen in
// fixed partition/morsel order, so neither thread count nor morsel size can
// ever change results. Runs under tsan in CI with SCX_NUM_THREADS=4 and an
// odd SCX_MORSEL_SIZE.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "api/engine.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"
#include "paper_script_param.h"

namespace scx {
namespace {

struct PlanUnderTest {
  std::string name;
  PhysicalNodePtr plan;
  int machines = 8;
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
  return {name, optimized->plan(), machines};
}

ExecMetrics RunWithThreads(const PlanUnderTest& t, int threads,
                           int batch_size = 0, int morsel_size = 0) {
  ClusterConfig cluster;
  cluster.machines = t.machines;
  cluster.exec_threads = threads;
  cluster.batch_size = batch_size;
  cluster.morsel_size = morsel_size;
  Executor executor(cluster);
  auto metrics = executor.Execute(t.plan);
  EXPECT_TRUE(metrics.ok()) << t.name << ": "
                            << metrics.status().ToString();
  return std::move(metrics.value());
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
  EXPECT_EQ(serial.rows_converted, parallel.rows_converted) << t.name;
  EXPECT_EQ(serial.batch_pipeline_breaks, parallel.batch_pipeline_breaks)
      << t.name;
  // The morsel counters are functions of partition live counts and the
  // morsel size only — never of the thread schedule.
  EXPECT_EQ(serial.morsels_evaluated, parallel.morsels_evaluated) << t.name;
  EXPECT_EQ(serial.morsel_steal_count, parallel.morsel_steal_count)
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

TEST(ExecutorParallelTest, BatchSizeSweepBitIdenticalToRowPath) {
  // Any batch size must produce the exact rows and legacy counters of the
  // batch_size=1 row-at-a-time path, at any thread count. (batch_size=1 is
  // the differential anchor: it runs the verbatim legacy loops.)
  for (auto [name, script] :
       {std::make_pair("S2", kScriptS2), std::make_pair("S4", kScriptS4)}) {
    PlanUnderTest t = OptimizeOnce(name, MakeExecutionCatalog(4000), script,
                                   OptimizerMode::kCse, /*machines=*/4);
    ASSERT_NE(t.plan, nullptr) << name;
    ExecMetrics rows = RunWithThreads(t, /*threads=*/1, /*batch_size=*/1);
    EXPECT_EQ(rows.batches_evaluated, 0) << name;
    EXPECT_EQ(rows.exprs_deduped, 0) << name;
    for (int batch_size : {2, 3, 7, 1024, 4096}) {
      ExecMetrics serial = RunWithThreads(t, 1, batch_size);
      ExecMetrics parallel = RunWithThreads(t, 4, batch_size);
      ExpectBitIdentical(t, serial, parallel);
      // Cross-batch-size: everything but the batch counters matches the
      // row path bit for bit.
      EXPECT_EQ(serial.outputs, rows.outputs)
          << name << " batch " << batch_size;
      EXPECT_EQ(serial.rows_shuffled, rows.rows_shuffled) << batch_size;
      EXPECT_EQ(serial.rows_output, rows.rows_output) << batch_size;
      EXPECT_EQ(serial.spool_cache_hits, rows.spool_cache_hits)
          << batch_size;
      EXPECT_GT(serial.batches_evaluated, 0)
          << name << " batch " << batch_size;
    }
  }
}

TEST(ExecutorParallelTest, SpoolHeavyBatchSweepPreservesSpoolCounters) {
  // A shared aggregate with three consumers: in kCse mode the optimizer
  // spools it, so the batch pipeline's column-batch spool cache must
  // reproduce the row path's spool accounting exactly — one execution,
  // three reads, two cache hits worth of sharing — at every batch size.
  PlanUnderTest t = OptimizeOnce("S2-spool", MakeExecutionCatalog(4000),
                                 kScriptS2, OptimizerMode::kCse,
                                 /*machines=*/4);
  ASSERT_NE(t.plan, nullptr);
  ExecMetrics rows = RunWithThreads(t, /*threads=*/1, /*batch_size=*/1);
  ASSERT_GT(rows.spool_cache_hits, 0) << "S2 kCse must share via a spool";
  EXPECT_EQ(rows.rows_converted, 0);
  EXPECT_EQ(rows.batch_pipeline_breaks, 0);
  for (int batch_size : {2, 61, 4096}) {
    ExecMetrics serial = RunWithThreads(t, 1, batch_size);
    ExecMetrics parallel = RunWithThreads(t, 4, batch_size);
    ExpectBitIdentical(t, serial, parallel);
    EXPECT_EQ(serial.outputs, rows.outputs) << "batch " << batch_size;
    EXPECT_EQ(serial.bytes_spooled, rows.bytes_spooled) << batch_size;
    EXPECT_EQ(serial.rows_spooled, rows.rows_spooled) << batch_size;
    EXPECT_EQ(serial.spool_executions, rows.spool_executions) << batch_size;
    EXPECT_EQ(serial.spool_reads, rows.spool_reads) << batch_size;
    EXPECT_EQ(serial.spool_cache_hits, rows.spool_cache_hits) << batch_size;
    // The pipeline is batch-native end to end: no unsanctioned row bridge
    // (Output's sink conversion is sanctioned and not counted).
    EXPECT_EQ(serial.rows_converted, 0) << batch_size;
    EXPECT_EQ(serial.batch_pipeline_breaks, 0) << batch_size;
  }
}

TEST(ExecutorParallelTest, ExchangeHeavyBatchSweepPreservesShuffleCounters) {
  // Hash exchanges (group-bys over a shared spool) plus a range exchange
  // (the ORDER BY) — formerly the one operator that bridged through rows,
  // now batch-native (columnar quantile boundaries + morsel-binned
  // scatter). Shuffle accounting and raw rows must match the row path at
  // every batch size, with zero bridges.
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
  ExecMetrics rows = RunWithThreads(t, /*threads=*/1, /*batch_size=*/1);
  ASSERT_GT(rows.rows_shuffled, 0);
  for (int batch_size : {2, 61, 4096}) {
    ExecMetrics serial = RunWithThreads(t, 1, batch_size);
    ExecMetrics parallel = RunWithThreads(t, 4, batch_size);
    ExpectBitIdentical(t, serial, parallel);
    EXPECT_EQ(serial.outputs, rows.outputs) << "batch " << batch_size;
    EXPECT_EQ(serial.rows_shuffled, rows.rows_shuffled) << batch_size;
    EXPECT_EQ(serial.bytes_shuffled, rows.bytes_shuffled) << batch_size;
    EXPECT_EQ(serial.batch_pipeline_breaks, 0) << batch_size;
    EXPECT_EQ(serial.rows_converted, 0) << batch_size;
  }
}

TEST(ExecutorParallelTest, MorselSizeSweepBitIdenticalToRowPath) {
  // The tentpole contract: outputs and legacy counters are bit-identical
  // across every morsel size x thread count combination, and match the
  // batch_size=1 row anchor. At a fixed (batch, morsel) size the batch and
  // morsel counters are thread-invariant too (ExpectBitIdentical); across
  // morsel sizes the batch counters stay fixed (they are functions of live
  // counts and batch_size alone) while the morsel counters move.
  const char* script =
      "R0 = EXTRACT A,B,C,D FROM \"test.log\" USING LogExtractor;\n"
      "R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;\n"
      "R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B ORDER BY A,B;\n"
      "R2 = SELECT B,C,Sum(S) AS S2 FROM R WHERE S > 10 GROUP BY B,C;\n"
      "OUTPUT R1 TO \"result1.out\";\n"
      "OUTPUT R2 TO \"result2.out\";\n";
  for (auto [name, text] : {std::make_pair("S4", kScriptS4),
                            std::make_pair("orderby-filter", script)}) {
    PlanUnderTest t = OptimizeOnce(name, MakeExecutionCatalog(4000), text,
                                   OptimizerMode::kCse, /*machines=*/4);
    ASSERT_NE(t.plan, nullptr) << name;
    ExecMetrics rows = RunWithThreads(t, /*threads=*/1, /*batch_size=*/1);
    const int batch_size = 64;
    ExecMetrics anchor;  // morsel size 1: maximal morsel fan-out
    bool have_anchor = false;
    for (int morsel_size : {1, 61, 4096, 1 << 30}) {
      ExecMetrics serial = RunWithThreads(t, 1, batch_size, morsel_size);
      ExecMetrics parallel = RunWithThreads(t, 4, batch_size, morsel_size);
      ExpectBitIdentical(t, serial, parallel);
      EXPECT_EQ(serial.outputs, rows.outputs)
          << name << " morsel " << morsel_size;
      EXPECT_EQ(serial.rows_shuffled, rows.rows_shuffled) << morsel_size;
      EXPECT_EQ(serial.bytes_shuffled, rows.bytes_shuffled) << morsel_size;
      EXPECT_EQ(serial.rows_output, rows.rows_output) << morsel_size;
      EXPECT_EQ(serial.rows_converted, 0) << morsel_size;
      EXPECT_EQ(serial.batch_pipeline_breaks, 0) << morsel_size;
      EXPECT_GT(serial.morsels_evaluated, 0) << morsel_size;
      if (!have_anchor) {
        anchor = std::move(serial);
        have_anchor = true;
      } else {
        // Batch counters do not depend on the morsel size.
        EXPECT_EQ(serial.batches_evaluated, anchor.batches_evaluated)
            << name << " morsel " << morsel_size;
        EXPECT_EQ(serial.exprs_deduped, anchor.exprs_deduped) << morsel_size;
        // One-row morsels maximize the job count; whole-partition morsels
        // collapse to one job per non-empty partition (steal count 0).
        EXPECT_LE(serial.morsels_evaluated, anchor.morsels_evaluated)
            << morsel_size;
      }
      if (morsel_size == 1 << 30) {
        EXPECT_EQ(serial.morsel_steal_count, 0) << name;
      }
    }
  }
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
