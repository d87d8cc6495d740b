// Cross-query spool cache and batched-submission tests: resubmission hits,
// catalog-version invalidation, eviction under byte pressure, the run-local
// spool budget, knob-invariance of batched execution, per-script output
// demultiplexing (script_outputs[k] is script k's), and the pin API.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "exec/spool_cache.h"
#include "testing/script_gen.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

OptimizerConfig SmallCluster() {
  OptimizerConfig config;
  config.cluster.machines = 8;
  config.cluster.exec_threads = 1;
  return config;
}

// Two scripts sharing the S1 aggregate's text, plus per-script private
// consumers, so a merged submission has real cross-script sharing.
std::vector<std::string> SharedPairScripts() {
  return {
      R"(
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) AS S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) AS S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "a1.out";
OUTPUT R2 TO "a2.out";
)",
      R"(
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R  = SELECT A,B,C,Sum(D) AS S FROM R0 GROUP BY A,B,C;
R3 = SELECT A,C,Max(S) AS S3 FROM R GROUP BY A,C;
R4 = SELECT A,Sum(S) AS S4 FROM R GROUP BY A;
OUTPUT R3 TO "b1.out";
OUTPUT R4 TO "b2.out";
)"};
}

// Row order within unordered sinks is plan-dependent, so sequential-vs-
// batched comparisons sort rows per path (merged-run-to-merged-run
// comparisons stay raw).
std::map<std::string, std::vector<Row>> Canonical(
    const std::map<std::string, std::vector<Row>>& outputs) {
  std::map<std::string, std::vector<Row>> canon = outputs;
  for (auto& [path, rows] : canon) std::sort(rows.begin(), rows.end());
  return canon;
}

TEST(CrossQueryCacheTest, ResubmissionServesFromCache) {
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  auto first = engine.SubmitBatch(SharedPairScripts());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->metrics.cross_query_spool_hits, 0)
      << "nothing was cached before the first submission";
  EXPECT_GT(first->metrics.spool_executions, 0)
      << "the shared aggregate should be spooled";

  auto again = engine.SubmitBatch(SharedPairScripts());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(again->metrics.cross_query_spool_hits, 0)
      << "resubmitting the identical batch must hit the cross-query cache";
  // Same engine, same merged plan: the resubmission is bit-identical.
  ASSERT_EQ(again->script_outputs.size(), first->script_outputs.size());
  for (size_t i = 0; i < first->script_outputs.size(); ++i) {
    EXPECT_EQ(again->script_outputs[i], first->script_outputs[i]);
  }
}

TEST(CrossQueryCacheTest, SingleScriptExecuteNeverTouchesCache) {
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  auto batch = engine.SubmitBatch(SharedPairScripts());
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_GT(engine.spool_cache().stats().insertions, 0);

  auto compiled = engine.Compile(SharedPairScripts()[0]);
  ASSERT_TRUE(compiled.ok());
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok());
  SpoolCacheStats before = engine.spool_cache().stats();
  auto metrics = engine.Execute(*optimized);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->cross_query_spool_hits, 0);
  SpoolCacheStats after = engine.spool_cache().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.insertions, before.insertions)
      << "Engine::Execute must stay bit-identical to a fresh engine, so it "
         "can neither read nor fill the cross-query cache";
}

TEST(CrossQueryCacheTest, CatalogVersionInvalidatesEntries) {
  OptimizerConfig config = SmallCluster();
  Engine engine(MakeExecutionCatalog(5000), config);
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok());

  CrossQuerySpoolCache cache(-1);  // unlimited
  Executor warm(config.cluster, &cache, /*catalog_version=*/1);
  auto first = warm.Execute(optimized->plan());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cross_query_spool_hits, 0);
  ASSERT_GT(cache.stats().insertions, 0);

  // Same catalog version: served from cache.
  Executor same(config.cluster, &cache, /*catalog_version=*/1);
  auto hit = same.Execute(optimized->plan());
  ASSERT_TRUE(hit.ok());
  EXPECT_GT(hit->cross_query_spool_hits, 0);

  // Bumped catalog version: every lookup misses — stale data must never
  // serve a run against a changed catalog.
  Executor bumped(config.cluster, &cache, /*catalog_version=*/2);
  auto miss = bumped.Execute(optimized->plan());
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->cross_query_spool_hits, 0);

  EXPECT_EQ(hit->outputs, first->outputs);
  EXPECT_EQ(miss->outputs, first->outputs);
}

TEST(CrossQueryCacheTest, EvictionUnderPressureKeepsResultsCorrect) {
  OptimizerConfig config = SmallCluster();
  Engine engine(MakeExecutionCatalog(5000), config);
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok());

  Executor reference(config.cluster);
  auto expected = reference.Execute(optimized->plan());
  ASSERT_TRUE(expected.ok());

  CrossQuerySpoolCache tiny(1);  // one byte: every insertion must evict
  Executor pressured(config.cluster, &tiny, /*catalog_version=*/1);
  auto run = pressured.Execute(optimized->plan());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(tiny.stats().evictions, 0);
  EXPECT_GT(tiny.stats().bytes_evicted, 0);
  EXPECT_LE(tiny.stats().bytes_used, tiny.budget_bytes());
  EXPECT_EQ(run->outputs, expected->outputs)
      << "a cache under pressure may forget, never corrupt";
}

TEST(CrossQueryCacheTest, RunLocalBudgetDropsSpoolsNotResults) {
  OptimizerConfig unlimited = SmallCluster();
  unlimited.cluster.spool_cache_bytes = -1;
  Engine reference(MakeExecutionCatalog(5000), unlimited);
  auto compiled = reference.Compile(kScriptS2);
  ASSERT_TRUE(compiled.ok());
  auto optimized = reference.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok());
  auto roomy = reference.Execute(*optimized);
  ASSERT_TRUE(roomy.ok());
  EXPECT_EQ(roomy->spool_bytes_evicted, 0);

  OptimizerConfig strapped = SmallCluster();
  strapped.cluster.spool_cache_bytes = 1;
  Engine engine(MakeExecutionCatalog(5000), strapped);
  auto c2 = engine.Compile(kScriptS2);
  ASSERT_TRUE(c2.ok());
  auto o2 = engine.Optimize(*c2, OptimizerMode::kCse);
  ASSERT_TRUE(o2.ok());
  auto squeezed = engine.Execute(*o2);
  ASSERT_TRUE(squeezed.ok()) << squeezed.status().ToString();
  EXPECT_GT(squeezed->spool_bytes_evicted, 0)
      << "a one-byte run-local budget cannot retain any spool";
  EXPECT_EQ(squeezed->outputs, roomy->outputs);
}

TEST(CrossQueryCacheTest, BatchedOutputsInvariantAcrossExecutionKnobs) {
  GeneratedBatch batch = GenerateScriptBatch(3);
  ASSERT_GE(batch.scripts.size(), 2u);

  // Sequential reference at the default knobs, canonical per-script.
  std::vector<std::map<std::string, std::vector<Row>>> expected;
  {
    Engine engine(batch.catalog, SmallCluster());
    for (const std::string& script : batch.scripts) {
      auto compiled = engine.Compile(script);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
      ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
      auto metrics = engine.Execute(*optimized);
      ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
      expected.push_back(Canonical(metrics->outputs));
    }
  }

  for (int threads : {1, 4}) {
    OptimizerConfig config = SmallCluster();
    config.cluster.exec_threads = threads;
    Engine engine(batch.catalog, config);
    auto merged = engine.SubmitBatch(batch.scripts);
    ASSERT_TRUE(merged.ok())
        << "threads=" << threads << ": " << merged.status().ToString();
    ASSERT_EQ(merged->script_outputs.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(Canonical(merged->script_outputs[i]), expected[i])
          << "script " << i << " diverged at threads=" << threads;
    }
  }
}

TEST(CrossQueryCacheTest, CollidingOutputPathsDemuxPerScript) {
  // Both scripts write "report.out", with different contents. Provenance
  // tagging must keep the sinks separate and demux each back to its script.
  std::vector<std::string> scripts = {
      R"(
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R  = SELECT A,Sum(D) AS S FROM R0 GROUP BY A;
OUTPUT R TO "report.out";
)",
      R"(
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R  = SELECT B,Max(D) AS M FROM R0 GROUP BY B;
OUTPUT R TO "report.out";
)"};
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  auto merged = engine.SubmitBatch(scripts);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(merged->script_outputs.size(), 2u);
  ASSERT_EQ(merged->script_outputs[0].count("report.out"), 1u);
  ASSERT_EQ(merged->script_outputs[1].count("report.out"), 1u);

  for (size_t i = 0; i < scripts.size(); ++i) {
    Engine alone(MakeExecutionCatalog(5000), SmallCluster());
    auto compiled = alone.Compile(scripts[i]);
    ASSERT_TRUE(compiled.ok());
    auto optimized = alone.Optimize(*compiled, OptimizerMode::kCse);
    ASSERT_TRUE(optimized.ok());
    auto metrics = alone.Execute(*optimized);
    ASSERT_TRUE(metrics.ok());
    EXPECT_EQ(Canonical(merged->script_outputs[i]),
              Canonical(metrics->outputs))
        << "script " << i;
  }
}

// --- Pin API (fault-recovery re-reads vs eviction) ------------------------

/// One partition of `rows` int64 cells tag*1000, tag*1000+1, ... (8 bytes
/// each).
BatchData TaggedRows(int64_t tag, int rows) {
  BatchData data;
  data.schema.AddColumn({/*id=*/1, "A", "", DataType::kInt64});
  std::vector<Row> cells;
  for (int i = 0; i < rows; ++i) cells.push_back({Value::Int(tag * 1000 + i)});
  data.partitions.push_back(PartitionFromRows(cells, 1));
  return data;
}

/// The first cell of a TaggedRows batch.
Value FirstCell(const BatchData& data) {
  return data.partitions[0].columns[0]->ValueAt(0);
}

SpoolCacheKey KeyFor(const std::string& canon) {
  SpoolCacheKey key;
  key.canon = canon;
  key.catalog_version = 1;
  key.machines = 1;
  return key;
}

TEST(CrossQueryCacheTest, PinnedEntrySurvivesEvictionPressure) {
  // Budget admits the 32-byte entry below, and nothing more.
  CrossQuerySpoolCache cache(50);
  // Cheapest possible entry: the eviction policy's first victim.
  cache.InsertBatch(KeyFor("pinned"), TaggedRows(1, 4), /*recompute_cost=*/1);

  auto pin = cache.Pin(KeyFor("pinned"));
  ASSERT_TRUE(pin);
  const BatchData& held = pin.batch();
  ASSERT_EQ(held.TotalLiveRows(), 4);

  // Budget pressure while pinned: the recovery re-read (this is the
  // eviction-racing-a-recovery bug) must keep reading valid data.
  for (int64_t i = 0; i < 8; ++i) {
    cache.InsertBatch(KeyFor("filler" + std::to_string(i)),
                     TaggedRows(100 + i, 64), /*recompute_cost=*/1e9);
  }
  EXPECT_EQ(FirstCell(held), Value::Int(1000))
      << "pinned data must stay readable under eviction pressure";
  EXPECT_TRUE(cache.LookupBatch(KeyFor("pinned")).has_value())
      << "a pinned entry must never be evicted";

  // Released, the entry is an ordinary (cheap) victim again.
  pin.Release();
  EXPECT_FALSE(pin);
  cache.InsertBatch(KeyFor("last"), TaggedRows(999, 64),
                   /*recompute_cost=*/1e9);
  EXPECT_FALSE(cache.LookupBatch(KeyFor("pinned")).has_value())
      << "after Release the budget pressure must evict it";
}

TEST(CrossQueryCacheTest, InsertOverPinnedEntryKeepsPinnedData) {
  CrossQuerySpoolCache cache(-1);  // unlimited
  cache.InsertBatch(KeyFor("k"), TaggedRows(1, 3), /*recompute_cost=*/10);
  auto pin = cache.Pin(KeyFor("k"));
  ASSERT_TRUE(pin);

  // In real use a same-key insert carries identical data (the key is the
  // exact canonical sub-DAG); distinct rows here make "old entry kept"
  // observable.
  cache.InsertBatch(KeyFor("k"), TaggedRows(2, 3), /*recompute_cost=*/10);
  EXPECT_EQ(FirstCell(pin.batch()), Value::Int(1000))
      << "replacing a pinned entry would dangle the recovery read";
  auto lookup = cache.LookupBatch(KeyFor("k"));
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(FirstCell(*lookup), Value::Int(1000));

  pin.Release();
  cache.InsertBatch(KeyFor("k"), TaggedRows(3, 3), /*recompute_cost=*/10);
  lookup = cache.LookupBatch(KeyFor("k"));
  ASSERT_TRUE(lookup.has_value());
  EXPECT_EQ(FirstCell(*lookup), Value::Int(3000))
      << "unpinned entries are replaceable again";
}

TEST(CrossQueryCacheTest, PinMissesAreEmptyAndHarmless) {
  CrossQuerySpoolCache cache(-1);
  auto miss = cache.Pin(KeyFor("absent"));
  EXPECT_FALSE(miss);
  miss.Release();  // idempotent on empty handles
  SpoolCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0)
      << "pinning bypasses hit/miss accounting (oracle 8: a recovery "
         "re-read must not perturb eviction state)";
}

// tsan target: concurrent inserts under a tiny budget (eviction storms)
// racing pinned reads must neither tear data nor deadlock.
TEST(CrossQueryCacheTest, ConcurrentEvictionNeverInvalidatesPins) {
  // Budget admits the 128-byte hot entry; every 256-byte insert below
  // overflows it and triggers an eviction pass.
  CrossQuerySpoolCache cache(200);
  cache.InsertBatch(KeyFor("hot"), TaggedRows(7, 16), /*recompute_cost=*/1);

  // Long-lived anchor pin: the cheapest entry would otherwise be the first
  // victim of every insertion below.
  auto anchor = cache.Pin(KeyFor("hot"));
  ASSERT_TRUE(anchor);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      cache.InsertBatch(KeyFor("w" + std::to_string(i % 13)),
                       TaggedRows(i, 32), /*recompute_cost=*/1e9);
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    auto pin = cache.Pin(KeyFor("hot"));  // nested pin, as two recoveries
    ASSERT_TRUE(pin) << "pinned entry evicted at iteration " << iter;
    const BatchData& rows = pin.batch();
    ASSERT_EQ(rows.TotalLiveRows(), 16);
    EXPECT_EQ(FirstCell(rows), Value::Int(7000));
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  anchor.Release();
}

}  // namespace
}  // namespace scx
