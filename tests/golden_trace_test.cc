// Key-scheme equivalence: the interned/hashed winner-cache path must produce
// exactly the plan, cost, and phase-2 optimization trace the seed's
// string-keyed path produced. The golden files under testdata/golden/ were
// recorded from the seed optimizer (string keys, no pruning); re-record with
// SCX_WRITE_GOLDEN=1 only when an intentional plan-affecting change lands.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "api/engine.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

// Serializes everything the determinism contract covers: final cost, plan,
// round counts, and the full round trace. Floats are written as hex floats
// (%a) so the comparison is bit-exact.
std::string Serialize(const OptimizedScript& o) {
  std::string out;
  char buf[128];
  const OptimizeDiagnostics& d = o.result.diagnostics;
  std::snprintf(buf, sizeof(buf), "cost %a\n", o.cost());
  out += buf;
  std::snprintf(buf, sizeof(buf), "rounds_planned %ld\n", d.rounds_planned);
  out += buf;
  std::snprintf(buf, sizeof(buf), "rounds_executed %ld\n", d.rounds_executed);
  out += buf;
  for (const RoundTraceEntry& e : d.round_trace) {
    std::snprintf(buf, sizeof(buf), "round %ld lca %d cost %a best %a asg",
                  e.round_index, e.lca, e.cost, e.best_so_far);
    out += buf;
    for (const auto& [g, idx] : e.assignment) {
      std::snprintf(buf, sizeof(buf), " %d:%d", g, idx);
      out += buf;
    }
    out += "\n";
  }
  out += "plan\n";
  out += o.Explain();
  return out;
}

void CheckAgainstGolden(const char* name, const Catalog& catalog,
                        const std::string& text) {
  OptimizerConfig config;
  config.budget_seconds = 1e9;  // determinism requires no budget stop
  Engine engine(catalog, config);
  auto compiled = engine.Compile(text);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  std::string got = Serialize(*optimized);

  std::string path =
      std::string(SCX_TESTDATA_DIR "/golden/") + name + ".trace.txt";
  if (std::getenv("SCX_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "recorded " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (record with SCX_WRITE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), got) << name
                             << ": optimizer output diverged from the seed "
                                "string-keyed optimizer's golden trace";
}

TEST(GoldenTraceTest, S1) {
  CheckAgainstGolden("s1", MakePaperCatalog(), kScriptS1);
}

TEST(GoldenTraceTest, S2) {
  CheckAgainstGolden("s2", MakePaperCatalog(), kScriptS2);
}

TEST(GoldenTraceTest, S3) {
  CheckAgainstGolden("s3", MakePaperCatalog(), kScriptS3);
}

TEST(GoldenTraceTest, S4) {
  CheckAgainstGolden("s4", MakePaperCatalog(), kScriptS4);
}

TEST(GoldenTraceTest, LS1) {
  GeneratedScript ls1 = GenerateLargeScript(Ls1Spec());
  CheckAgainstGolden("ls1", ls1.catalog, ls1.text);
}

}  // namespace
}  // namespace scx
