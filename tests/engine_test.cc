// Engine facade tests: compile/optimize/execute lifecycle and error paths.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "testing/script_gen.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

TEST(EngineTest, CompileOptimizeExecute) {
  OptimizerConfig config;
  config.cluster.machines = 8;
  Engine engine(MakeExecutionCatalog(2000), config);
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_GT(optimized->cost(), 0);
  EXPECT_FALSE(optimized->Explain().empty());
  auto metrics = engine.Execute(*optimized);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->outputs.size(), 2u);
}

TEST(EngineTest, CompileReportsParseErrors) {
  Engine engine(MakePaperCatalog());
  auto r = engine.Compile("THIS IS NOT A SCRIPT");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(EngineTest, CompileReportsBindErrors) {
  Engine engine(MakePaperCatalog());
  auto r = engine.Compile(
      "R = SELECT A FROM MISSING; OUTPUT R TO \"o\";");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(EngineTest, CompiledScriptIsReusableAcrossModes) {
  Engine engine(MakePaperCatalog());
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  // Optimize the SAME compiled script in both modes, twice each: the memo
  // clones payloads, so runs must not interfere.
  auto c1 = engine.Optimize(*compiled, OptimizerMode::kCse);
  auto v1 = engine.Optimize(*compiled, OptimizerMode::kConventional);
  auto c2 = engine.Optimize(*compiled, OptimizerMode::kCse);
  auto v2 = engine.Optimize(*compiled, OptimizerMode::kConventional);
  ASSERT_TRUE(c1.ok() && v1.ok() && c2.ok() && v2.ok());
  EXPECT_DOUBLE_EQ(c1->cost(), c2->cost());
  EXPECT_DOUBLE_EQ(v1->cost(), v2->cost());
}

TEST(EngineTest, CompareComputesRatio) {
  Engine engine(MakePaperCatalog());
  auto c = engine.Compare(kScriptS1);
  ASSERT_TRUE(c.ok());
  EXPECT_NEAR(c->cost_ratio, c->cse.cost() / c->conventional.cost(), 1e-12);
}

TEST(EngineTest, DiagnosticsExposed) {
  Engine engine(MakePaperCatalog());
  auto c = engine.Compare(kScriptS1);
  ASSERT_TRUE(c.ok());
  const OptimizeDiagnostics& d = c->cse.result.diagnostics;
  EXPECT_EQ(d.num_shared_groups, 1);
  EXPECT_EQ(d.explicit_shared, 1);
  EXPECT_EQ(d.merged_subexpressions, 0);
  EXPECT_GT(d.rounds_planned, 0);
  EXPECT_GT(d.optimize_seconds, 0);
  EXPECT_EQ(d.lca_of.size(), 1u);
  EXPECT_GE(d.history_sizes.begin()->second, 3);
  EXPECT_DOUBLE_EQ(d.final_cost, c->cse.cost());
}

TEST(EngineTest, ExecMetricsToJsonCarriesEveryCounter) {
  // Regression for the scx_cli --json --execute surface: the JSON must
  // carry every ExecMetrics counter, including the vectorized-pipeline ones
  // (batches_evaluated / exprs_deduped / morsels_evaluated) next to the
  // spool counters, at 1 and at 4 executor threads.
  for (int threads : {1, 4}) {
    OptimizerConfig config;
    config.cluster.machines = 4;
    config.cluster.exec_threads = threads;
    Engine engine(MakeExecutionCatalog(2000), config);
    auto compiled = engine.Compile(kScriptS1);
    ASSERT_TRUE(compiled.ok());
    auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
    ASSERT_TRUE(optimized.ok());
    auto metrics = engine.Execute(*optimized);
    ASSERT_TRUE(metrics.ok());

    std::string json = ExecMetricsToJson(*metrics);
    for (const char* key :
         {"\"rows_extracted\":", "\"rows_shuffled\":", "\"bytes_shuffled\":",
          "\"bytes_spooled\":", "\"rows_spooled\":", "\"spool_executions\":",
          "\"spool_reads\":", "\"spool_cache_hits\":",
          "\"operator_invocations\":", "\"rows_output\":",
          "\"batches_evaluated\":", "\"exprs_deduped\":",
          "\"morsels_evaluated\":"}) {
      EXPECT_NE(json.find(key), std::string::npos)
          << key << " in " << json << " at threads=" << threads;
    }
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    // Counter values round-trip: spot-check the two batch counters against
    // the struct.
    EXPECT_NE(json.find("\"batches_evaluated\":" +
                        std::to_string(metrics->batches_evaluated)),
              std::string::npos);
    EXPECT_NE(json.find("\"exprs_deduped\":" +
                        std::to_string(metrics->exprs_deduped)),
              std::string::npos);
    EXPECT_GT(metrics->batches_evaluated, 0);
    EXPECT_GT(metrics->morsels_evaluated, 0);
  }
}

TEST(EngineTest, ClusterWithoutMachinesIsInvalidArgument) {
  // Every entry point that plans or runs for a cluster rejects a machine
  // count below one with InvalidArgument, instead of failing to find a
  // plan or aborting while sizing the partitions.
  Engine good(MakeExecutionCatalog(2000));
  auto compiled = good.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto optimized = good.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok());
  auto batch = good.CompileBatch({kScriptS1});
  ASSERT_TRUE(batch.ok());
  for (int machines : {0, -3}) {
    const std::string at = "machines=" + std::to_string(machines);
    OptimizerConfig config;
    config.cluster.machines = machines;
    Engine engine(MakeExecutionCatalog(2000), config);
    auto opt = engine.Optimize(*compiled, OptimizerMode::kCse);
    EXPECT_EQ(opt.status().code(), StatusCode::kInvalidArgument) << at;
    auto exec = engine.Execute(*optimized);
    EXPECT_EQ(exec.status().code(), StatusCode::kInvalidArgument) << at;
    auto opt_batch = engine.OptimizeBatch(*batch, OptimizerMode::kCse);
    EXPECT_EQ(opt_batch.status().code(), StatusCode::kInvalidArgument) << at;
    auto submitted = engine.SubmitBatch({kScriptS1});
    EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument) << at;
    Executor executor(config.cluster);
    auto direct = executor.Execute(optimized->plan());
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument) << at;
  }
}

TEST(EngineTest, OptimizerIntrospectionAvailable) {
  Engine engine(MakePaperCatalog());
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(cse.ok());
  EXPECT_NE(cse->optimizer->shared_info(), nullptr);
  EXPECT_GT(cse->optimizer->memo().num_groups(), 0);
}


// Runs `optimize` once quietly, then on kRuns threads at once; every
// concurrent run must reproduce the quiet run's cost and plan exactly.
void ExpectConcurrentRunsMatchQuiet(
    const char* name,
    const std::function<Result<OptimizedScript>()>& optimize) {
  auto reference = optimize();
  ASSERT_TRUE(reference.ok()) << name << ": " << reference.status().ToString();
  constexpr int kRuns = 4;
  std::vector<double> costs(kRuns, -1.0);
  std::vector<std::string> plans(kRuns);
  std::vector<std::thread> threads;
  for (int t = 0; t < kRuns; ++t) {
    threads.emplace_back([&, t] {
      auto optimized = optimize();
      if (optimized.ok()) {
        costs[static_cast<size_t>(t)] = optimized->cost();
        plans[static_cast<size_t>(t)] = optimized->Explain();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kRuns; ++t) {
    EXPECT_EQ(costs[static_cast<size_t>(t)], reference->cost()) << name;
    EXPECT_EQ(plans[static_cast<size_t>(t)], reference->Explain()) << name;
  }
}

TEST(EngineTest, ConcurrentOptimizeOnOneEngine) {
  // Several threads drive the same Engine and compiled input at once; each
  // run builds a private memo, registry and optimization context (none of
  // it locked), so results must match a quiet single-threaded run exactly:
  // on a paper script, a large script and a merged multi-script batch.
  OptimizerConfig config;
  config.budget_seconds = 1e9;

  Engine paper(MakePaperCatalog(), config);
  auto s2 = paper.Compile(kScriptS2);
  ASSERT_TRUE(s2.ok());
  ExpectConcurrentRunsMatchQuiet("S2", [&] {
    return paper.Optimize(*s2, OptimizerMode::kCse);
  });

  GeneratedScript ls1 = GenerateLargeScript(Ls1Spec());
  Engine large(ls1.catalog, config);
  auto ls1_compiled = large.Compile(ls1.text);
  ASSERT_TRUE(ls1_compiled.ok()) << ls1_compiled.status().ToString();
  ExpectConcurrentRunsMatchQuiet("LS1", [&] {
    return large.Optimize(*ls1_compiled, OptimizerMode::kCse);
  });

  GeneratedBatch gen = GenerateScriptBatch(3);
  ASSERT_GE(gen.scripts.size(), 2u);
  Engine batched(gen.catalog, config);
  auto batch = batched.CompileBatch(gen.scripts);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectConcurrentRunsMatchQuiet("batch seed 3", [&] {
    return batched.OptimizeBatch(*batch, OptimizerMode::kCse);
  });
}

TEST(EngineTest, CompareMatchesSeparateOptimizeCalls) {
  // Compare overlaps its two optimizations on two threads.
  Engine engine(MakePaperCatalog());
  auto c = engine.Compare(kScriptS1);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto conv = engine.Optimize(*compiled, OptimizerMode::kConventional);
  auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(conv.ok());
  ASSERT_TRUE(cse.ok());
  EXPECT_EQ(c->conventional.cost(), conv->cost());
  EXPECT_EQ(c->cse.cost(), cse->cost());
}

}  // namespace
}  // namespace scx
