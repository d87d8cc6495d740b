// Conventional-vs-CSE executed-output equivalence over the paper workload:
// for every script (S1-S4 plus the LS1/LS2-shaped generated scripts), the
// kConventional and kCse plans must produce identical canonical outputs at
// both 1 and 4 executor threads. This is the end-to-end correctness
// contract of common-subexpression sharing — spools may restructure the
// plan, never the result. Runs cleanly under tsan (the 4-thread runs
// exercise the parallel partition workers).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "exec/executor.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"
#include "paper_script_param.h"

namespace scx {
namespace {

void ExpectModesEquivalent(const std::string& label, const Catalog& catalog,
                           const std::string& script) {
  for (int threads : {1, 4}) {
    OptimizerConfig config;
    config.cluster.machines = 8;
    config.cluster.exec_threads = threads;
    Engine engine(catalog, config);
    auto compiled = engine.Compile(script);
    ASSERT_TRUE(compiled.ok())
        << label << ": " << compiled.status().ToString();

    auto conv = engine.Optimize(*compiled, OptimizerMode::kConventional);
    ASSERT_TRUE(conv.ok()) << label << ": " << conv.status().ToString();
    auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
    ASSERT_TRUE(cse.ok()) << label << ": " << cse.status().ToString();
    EXPECT_LE(cse->cost(), conv->cost() * 1.0001)
        << label << ": CSE plan must never cost more than conventional";

    auto conv_metrics = engine.Execute(*conv);
    ASSERT_TRUE(conv_metrics.ok())
        << label << ": " << conv_metrics.status().ToString();
    auto cse_metrics = engine.Execute(*cse);
    ASSERT_TRUE(cse_metrics.ok())
        << label << ": " << cse_metrics.status().ToString();

    EXPECT_TRUE(SameOutputs(*conv_metrics, *cse_metrics))
        << label << " at " << threads
        << " executor thread(s): conventional and cse outputs diverge";
    // Both plans answer the same script, so they must name the same sinks.
    ASSERT_EQ(conv_metrics->outputs.size(), cse_metrics->outputs.size())
        << label;
  }
}

class PaperScriptEquivalence
    : public ::testing::TestWithParam<PaperScriptParam> {
};

TEST_P(PaperScriptEquivalence, ConvAndCseOutputsMatch) {
  ExpectModesEquivalent(GetParam().name, MakeExecutionCatalog(5000),
                        GetParam().text);
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, PaperScriptEquivalence, PaperScriptParams(),
    PaperScriptParamName);

TEST(LargeScriptEquivalence, Ls1ConvAndCseOutputsMatch) {
  LargeScriptSpec spec = Ls1Spec();
  spec.rows_per_file = 1500;
  GeneratedScript ls = GenerateLargeScript(spec);
  ExpectModesEquivalent("LS1", ls.catalog, ls.text);
}

TEST(LargeScriptEquivalence, Ls2ConvAndCseOutputsMatch) {
  LargeScriptSpec spec = Ls2Spec();
  spec.rows_per_file = 400;
  GeneratedScript ls = GenerateLargeScript(spec);
  ExpectModesEquivalent("LS2", ls.catalog, ls.text);
}

}  // namespace
}  // namespace scx
