// Cross-query CSE payoff: one merged SubmitBatch against running each
// script of the batch alone, on the high-overlap cells of the multi-query
// grid (K scripts whose library modules appear in 70% of them). The
// batch-vs-sequential oracle must hold (per-script outputs equal running
// alone, no more bytes moved, knob and resubmission identity), and the
// merged plan must be at least 1.3x cheaper than the summed per-script
// plans. The K = 32 cell is left out: its merged phase 2 alone takes
// minutes.

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "api/engine.h"
#include "testing/diff_harness.h"
#include "testing/script_gen.h"

namespace scx {
namespace {

struct PayoffCell {
  const char* name;
  int scripts;
  uint64_t seed;
};

// Prints a cell as its name. Without this gtest prints the struct's raw
// bytes, which include the name pointer, so the listed test names (and the
// ctest names discovered from them) would change with the load address.
void PrintTo(const PayoffCell& cell, std::ostream* os) { *os << cell.name; }

GeneratedBatch HighOverlapBatch(const PayoffCell& cell) {
  BatchGenOptions gen;
  gen.min_scripts = cell.scripts;
  gen.max_scripts = cell.scripts;
  gen.overlap = 0.7;
  // Big library inputs, small private ones: the shared work dominates.
  gen.library_rows = 20000;
  gen.min_rows = 400;
  gen.max_rows = 1200;
  return GenerateScriptBatch(cell.seed, gen);
}

class MultiQueryPayoffTest : public ::testing::TestWithParam<PayoffCell> {};

TEST_P(MultiQueryPayoffTest, BatchedBeatsSequential) {
  const PayoffCell& cell = GetParam();
  GeneratedBatch batch = HighOverlapBatch(cell);
  OptimizerConfig config;
  config.budget_seconds = 1e9;  // costs are compared exactly

  HarnessOptions opts;
  opts.machines = config.cluster.machines;
  opts.minimize = false;
  OracleReport report =
      DiffHarness(opts).CheckBatch(batch.catalog, batch.scripts, cell.seed);
  EXPECT_TRUE(report.ok) << report.oracle << ": " << report.detail;

  Engine engine(batch.catalog, config);
  double sequential_cost = 0;
  for (const std::string& script : batch.scripts) {
    auto compiled = engine.Compile(script);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    sequential_cost += optimized->cost();
  }
  auto compiled = engine.CompileBatch(batch.scripts);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto merged = engine.OptimizeBatch(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GE(sequential_cost, 1.3 * merged->cost())
      << "sequential " << sequential_cost << " vs merged " << merged->cost();
}

// The seeds are those of the multi-query grid in EXPERIMENTS.md, whose
// cells are seeded 11, 12, ... in (K, overlap) order over K in {2, 8, 32}
// and overlap in {0, 0.3, 0.7}.
INSTANTIATE_TEST_SUITE_P(
    HighOverlap, MultiQueryPayoffTest,
    ::testing::Values(PayoffCell{"k2_o70", 2, 13}, PayoffCell{"k8_o70", 8, 16}),
    [](const ::testing::TestParamInfo<PayoffCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace scx
