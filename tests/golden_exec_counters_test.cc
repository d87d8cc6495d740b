// Golden executor counters: S1-S4, LS1 and LS2, in conventional and CSE
// mode on 16 machines, at 1 and at 4 executor threads, must compute the
// reference evaluator's outputs (in ORDER BY order) and report exactly the
// ExecMetricsToJson recorded in testdata/golden/exec_counters.txt. The
// values were first recorded while the executor still carried its
// row-at-a-time path, after asserting that the row path and the batch
// pipeline agreed on every shared counter and every raw output row; later
// re-recordings only dropped deleted counters. Re-record with
// SCX_WRITE_GOLDEN=1 only for an intentional change to plans or counter
// definitions.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "testing/reference_eval.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

std::string GoldenPath() {
  return SCX_TESTDATA_DIR "/golden/exec_counters.txt";
}

/// Every knob that moves a counter is pinned, so the environment
/// (SCX_SPOOL_CACHE_BYTES) cannot leak in. The thread count moves none, and
/// the test runs each plan at 1 and 4 threads.
OptimizerConfig PinnedConfig() {
  OptimizerConfig config;
  config.budget_seconds = 1e9;  // plans must not depend on machine speed
  config.cluster.machines = 16;
  config.cluster.spool_cache_bytes = 256ll << 20;
  return config;
}

struct Case {
  std::string name;
  Catalog catalog;
  std::string text;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  const std::pair<const char*, const char*> paper[] = {
      {"s1", kScriptS1}, {"s2", kScriptS2}, {"s3", kScriptS3},
      {"s4", kScriptS4}};
  for (const auto& [name, text] : paper) {
    cases.push_back({name, MakeExecutionCatalog(5000), text});
  }
  LargeScriptSpec ls1 = Ls1Spec();
  ls1.rows_per_file = 1500;
  GeneratedScript g1 = GenerateLargeScript(ls1);
  cases.push_back({"ls1", g1.catalog, g1.text});
  LargeScriptSpec ls2 = Ls2Spec();
  ls2.rows_per_file = 400;
  GeneratedScript g2 = GenerateLargeScript(ls2);
  cases.push_back({"ls2", g2.catalog, g2.text});
  return cases;
}

/// "<case> <mode>" -> counter JSON, one line each.
std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> out;
  std::ifstream in(GoldenPath());
  std::string key, mode, json;
  while (in >> key >> mode >> json) out[key + " " + mode] = json;
  return out;
}

TEST(GoldenExecCountersTest,
     PaperAndLargeScriptsMatchReferenceAndRecordedCounters) {
  const bool write = std::getenv("SCX_WRITE_GOLDEN") != nullptr;
  const std::map<std::string, std::string> golden = ReadGolden();
  if (!write) ASSERT_FALSE(golden.empty()) << "missing " << GoldenPath();
  std::ostringstream recorded;
  for (const Case& c : Cases()) {
    Engine engine(c.catalog, PinnedConfig());
    auto compiled = engine.Compile(c.text);
    ASSERT_TRUE(compiled.ok()) << c.name << ": "
                               << compiled.status().ToString();
    auto reference = EvaluateReference(compiled->bound.root);
    ASSERT_TRUE(reference.ok()) << c.name << ": "
                                << reference.status().ToString();
    ExecMetrics expected;
    expected.outputs = std::move(*reference);
    for (OptimizerMode mode :
         {OptimizerMode::kConventional, OptimizerMode::kCse}) {
      const std::string key =
          c.name + (mode == OptimizerMode::kCse ? " cse" : " conv");
      auto optimized = engine.Optimize(*compiled, mode);
      ASSERT_TRUE(optimized.ok()) << key << ": "
                                  << optimized.status().ToString();
      for (int threads : {1, 4}) {
        ClusterConfig cluster = PinnedConfig().cluster;
        cluster.exec_threads = threads;
        auto metrics = Executor(cluster).Execute(optimized->plan());
        const std::string at = key + " threads=" + std::to_string(threads);
        ASSERT_TRUE(metrics.ok()) << at << ": "
                                  << metrics.status().ToString();
        EXPECT_TRUE(SameOutputs(expected, *metrics)) << at << " vs reference";
        Status order =
            CheckOutputOrder(compiled->bound.root, metrics->outputs);
        EXPECT_TRUE(order.ok()) << at << ": " << order.ToString();
        const std::string json = ExecMetricsToJson(*metrics);
        if (threads == 1) recorded << key << " " << json << "\n";
        if (write) continue;
        auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << key << " missing from "
                                    << GoldenPath();
        EXPECT_EQ(it->second, json) << at;
      }
    }
  }
  if (write) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << recorded.str();
    GTEST_SKIP() << "recorded " << GoldenPath();
  }
}

}  // namespace
}  // namespace scx
