// Simulated-cluster executor tests: per-operator semantics via small
// scripts, plan-equivalence between conventional and CSE modes, and shuffle
// accounting.

#include <gtest/gtest.h>

#include <map>

#include "api/engine.h"
#include "workload/paper_scripts.h"
#include "paper_script_param.h"

namespace scx {
namespace {

OptimizerConfig SmallCluster() {
  OptimizerConfig config;
  config.cluster.machines = 8;
  return config;
}

/// Runs a script in the given mode on the execution-scale catalog.
ExecMetrics RunScript(const std::string& script, OptimizerMode mode,
                int64_t rows = 5000) {
  Engine engine(MakeExecutionCatalog(rows), SmallCluster());
  auto compiled = engine.Compile(script);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, mode);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  auto metrics = engine.Execute(*optimized);
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return std::move(metrics.value());
}

/// Reference single-node evaluation of a two-level aggregation used to
/// cross-check distributed results.
TEST(ExecutorTest, SumAggregationMatchesReference) {
  // Compute Sum(D) GROUP BY A twice — once through the engine, once by a
  // simple reference loop over the same deterministic synthetic data.
  const char* script =
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\n"
      "R  = SELECT A,Sum(D) AS S FROM R0 GROUP BY A;\n"
      "OUTPUT R TO \"o\";";
  ExecMetrics m = RunScript(script, OptimizerMode::kConventional, 2000);
  // Reference: re-derive the same synthetic data through a trivial plan
  // (extract only) and aggregate by hand.
  Engine engine(MakeExecutionCatalog(2000), SmallCluster());
  auto compiled = engine.Compile(
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\nOUTPUT R0 TO \"raw\";");
  ASSERT_TRUE(compiled.ok());
  auto plan = engine.Optimize(*compiled, OptimizerMode::kConventional);
  ASSERT_TRUE(plan.ok());
  auto raw = engine.Execute(*plan);
  ASSERT_TRUE(raw.ok());
  std::map<int64_t, int64_t> expected;
  for (const Row& r : raw->outputs.at("raw")) {
    expected[r[0].as_int()] += r[1].as_int();
  }
  const auto& rows = m.outputs.at("o");
  ASSERT_EQ(rows.size(), expected.size());
  for (const Row& r : rows) {
    EXPECT_EQ(r[1].as_int(), expected.at(r[0].as_int()));
  }
}

TEST(ExecutorTest, FilterSemantics) {
  ExecMetrics m = RunScript(
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\n"
      "F  = SELECT A,D FROM R0 WHERE A = 3 AND D > 100;\n"
      "OUTPUT F TO \"o\";",
      OptimizerMode::kConventional, 2000);
  ASSERT_FALSE(m.outputs.at("o").empty());
  for (const Row& r : m.outputs.at("o")) {
    EXPECT_EQ(r[0].as_int(), 3);
    EXPECT_GT(r[1].as_int(), 100);
  }
}

TEST(ExecutorTest, ProjectionReordersColumns) {
  ExecMetrics a = RunScript(
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\nOUTPUT R0 TO \"o\";",
      OptimizerMode::kConventional, 500);
  ExecMetrics b = RunScript(
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\n"
      "P  = SELECT D,A FROM R0;\nOUTPUT P TO \"o\";",
      OptimizerMode::kConventional, 500);
  auto rows_a = CanonicalRows(a.outputs.at("o"));
  auto rows_b = CanonicalRows(b.outputs.at("o"));
  ASSERT_EQ(rows_a.size(), rows_b.size());
  std::vector<Row> swapped;
  for (const Row& r : rows_b) swapped.push_back({r[1], r[0]});
  EXPECT_EQ(rows_a, CanonicalRows(std::move(swapped)));
}

TEST(ExecutorTest, CountMinMaxAvg) {
  ExecMetrics m = RunScript(
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\n"
      "R  = SELECT A,Count(*) AS N,Min(D) AS LO,Max(D) AS HI,Avg(D) AS M "
      "FROM R0 GROUP BY A;\n"
      "OUTPUT R TO \"o\";",
      OptimizerMode::kConventional, 2000);
  int64_t total = 0;
  for (const Row& r : m.outputs.at("o")) {
    int64_t n = r[1].as_int();
    int64_t lo = r[2].as_int();
    int64_t hi = r[3].as_int();
    double avg = r[4].as_double();
    total += n;
    EXPECT_GT(n, 0);
    EXPECT_LE(lo, hi);
    EXPECT_GE(avg, static_cast<double>(lo));
    EXPECT_LE(avg, static_cast<double>(hi));
  }
  EXPECT_EQ(total, 2000);  // counts partition the input
}

TEST(ExecutorTest, AggregatesAgreeAcrossModesWithSplit) {
  // The local/global split must be algebraically invisible: compare against
  // the conventional plan for a script whose CSE plan uses partials.
  const char* script =
      "R0 = EXTRACT A,B,D FROM \"test.log\" USING X;\n"
      "R  = SELECT A,B,Count(*) AS N,Avg(D) AS M FROM R0 GROUP BY A,B;\n"
      "R1 = SELECT A,Sum(N) AS NN FROM R GROUP BY A;\n"
      "R2 = SELECT B,Sum(N) AS NN FROM R GROUP BY B;\n"
      "OUTPUT R1 TO \"o1\";\nOUTPUT R2 TO \"o2\";";
  ExecMetrics conv = RunScript(script, OptimizerMode::kConventional);
  ExecMetrics cse = RunScript(script, OptimizerMode::kCse);
  EXPECT_TRUE(SameOutputs(conv, cse));
}

TEST(ExecutorTest, JoinSemantics) {
  ExecMetrics m = RunScript(
      "R0 = EXTRACT A,B,D FROM \"test.log\" USING X;\n"
      "T0 = EXTRACT A,B,D FROM \"test2.log\" USING X;\n"
      "RA = SELECT A,Sum(D) AS S FROM R0 GROUP BY A;\n"
      "TA = SELECT A,Sum(D) AS T FROM T0 GROUP BY A;\n"
      "J  = SELECT RA.A,S,T FROM RA,TA WHERE RA.A=TA.A;\n"
      "OUTPUT J TO \"j\";\nOUTPUT RA TO \"ra\";\nOUTPUT TA TO \"ta\";",
      OptimizerMode::kConventional, 2000);
  // Build reference join from the two sides.
  std::map<int64_t, int64_t> ra, ta;
  for (const Row& r : m.outputs.at("ra")) ra[r[0].as_int()] = r[1].as_int();
  for (const Row& r : m.outputs.at("ta")) ta[r[0].as_int()] = r[1].as_int();
  size_t expected = 0;
  for (const auto& [k, v] : ra) {
    (void)v;
    if (ta.count(k)) ++expected;
  }
  EXPECT_EQ(m.outputs.at("j").size(), expected);
  for (const Row& r : m.outputs.at("j")) {
    int64_t a = r[0].as_int();
    EXPECT_EQ(r[1].as_int(), ra.at(a));
    EXPECT_EQ(r[2].as_int(), ta.at(a));
  }
}

TEST(ExecutorTest, ResidualJoinPredicate) {
  ExecMetrics m = RunScript(
      "R0 = EXTRACT A,D FROM \"test.log\" USING X;\n"
      "T0 = EXTRACT A,D FROM \"test2.log\" USING X;\n"
      "RA = SELECT A,Sum(D) AS S FROM R0 GROUP BY A;\n"
      "TA = SELECT A,Sum(D) AS T FROM T0 GROUP BY A;\n"
      "J  = SELECT RA.A,S,T FROM RA,TA WHERE RA.A=TA.A AND S < T;\n"
      "OUTPUT J TO \"j\";",
      OptimizerMode::kConventional, 2000);
  for (const Row& r : m.outputs.at("j")) {
    EXPECT_LT(r[1].as_int(), r[2].as_int());
  }
}

class PaperScriptExecution
    : public ::testing::TestWithParam<PaperScriptParam> {};

TEST_P(PaperScriptExecution, ConventionalAndCseProduceIdenticalOutputs) {
  const char* script = GetParam().text;
  ExecMetrics conv = RunScript(script, OptimizerMode::kConventional);
  ExecMetrics cse = RunScript(script, OptimizerMode::kCse);
  EXPECT_TRUE(SameOutputs(conv, cse)) << GetParam().name;
  EXPECT_FALSE(conv.outputs.empty());
  for (const auto& [path, rows] : conv.outputs) {
    EXPECT_FALSE(rows.empty()) << path;
  }
}

TEST_P(PaperScriptExecution, CseShufflesNoMoreBytes) {
  const char* script = GetParam().text;
  ExecMetrics conv = RunScript(script, OptimizerMode::kConventional);
  ExecMetrics cse = RunScript(script, OptimizerMode::kCse);
  EXPECT_LE(cse.bytes_shuffled, conv.bytes_shuffled) << GetParam().name;
  EXPECT_LE(cse.rows_extracted, conv.rows_extracted) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperScripts, PaperScriptExecution, PaperScriptParams(),
    PaperScriptParamName);

TEST(ExecutorTest, SpoolExecutesOncePerPlanNode) {
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  auto compiled = engine.Compile(kScriptS1);
  ASSERT_TRUE(compiled.ok());
  auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
  ASSERT_TRUE(cse.ok());
  auto m = engine.Execute(*cse);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->spool_executions, 1);
  EXPECT_EQ(m->spool_reads, 2);  // two consumers
  EXPECT_EQ(m->spool_cache_hits, 1);  // second read served from the cache
  EXPECT_GT(m->bytes_spooled, 0);
  EXPECT_GT(m->rows_spooled, 0);
}

TEST(ExecutorTest, DeterministicAcrossRuns) {
  ExecMetrics a = RunScript(kScriptS1, OptimizerMode::kCse);
  ExecMetrics b = RunScript(kScriptS1, OptimizerMode::kCse);
  EXPECT_TRUE(SameOutputs(a, b));
  EXPECT_EQ(a.bytes_shuffled, b.bytes_shuffled);
}

TEST(ExecutorTest, ClusterSizeDoesNotChangeResults) {
  OptimizerConfig small = SmallCluster();
  OptimizerConfig big;
  big.cluster.machines = 23;
  Engine e1(MakeExecutionCatalog(3000), small);
  Engine e2(MakeExecutionCatalog(3000), big);
  auto run = [](Engine& e, const char* script) {
    auto compiled = e.Compile(script);
    EXPECT_TRUE(compiled.ok());
    auto plan = e.Optimize(*compiled, OptimizerMode::kCse);
    EXPECT_TRUE(plan.ok());
    auto m = e.Execute(*plan);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return std::move(m.value());
  };
  ExecMetrics a = run(e1, kScriptS1);
  ExecMetrics b = run(e2, kScriptS1);
  EXPECT_TRUE(SameOutputs(a, b));
}

TEST(ExecutorTest, CanonicalRowsSorts) {
  std::vector<Row> rows = {{Value::Int(2)}, {Value::Int(1)}};
  auto sorted = CanonicalRows(rows);
  EXPECT_EQ(sorted[0][0].as_int(), 1);
  EXPECT_EQ(rows[0][0].as_int(), 2);  // copy overload leaves input alone
}

TEST(ExecutorTest, CanonicalRowsOverloadsAgree) {
  std::vector<Row> rows = {{Value::Int(3)}, {Value::Int(1)}, {Value::Int(2)}};
  std::vector<Row> copy = rows;
  EXPECT_EQ(CanonicalRows(rows), CanonicalRows(std::move(copy)));
}

TEST(ExecutorTest, SameOutputsIgnoresRowOrder) {
  ExecMetrics a, b;
  a.outputs["x"] = {{Value::Int(1)}, {Value::Int(2)}};
  b.outputs["x"] = {{Value::Int(2)}, {Value::Int(1)}};
  EXPECT_TRUE(SameOutputs(a, b));
  EXPECT_EQ(CanonicalOutputs(a), CanonicalOutputs(b));
}

TEST(ExecutorTest, SameOutputsDetectsDifferences) {
  ExecMetrics a, b;
  a.outputs["x"] = {{Value::Int(1)}};
  b.outputs["x"] = {{Value::Int(2)}};
  EXPECT_FALSE(SameOutputs(a, b));
  b.outputs["x"] = {{Value::Int(1)}};
  EXPECT_TRUE(SameOutputs(a, b));
  b.outputs["y"] = {};
  EXPECT_FALSE(SameOutputs(a, b));
}

}  // namespace
}  // namespace scx
