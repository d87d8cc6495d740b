// scxcheck tier-1 smoke: the generative differential-testing harness runs
// >= 200 seeded random scripts through all five oracles (conventional ==
// cse outputs; cse cost <= conventional; serial == parallel optimize +
// execute; plan validity + JSON round-trip; columnar-batch == batch_size=1
// row execution), plus targeted generator edge cases and replay of the
// checked-in fuzz corpus. Every failure message
// carries the script seed, so a red run reproduces with
//   scx_fuzz --iters 1 ... (or GenerateScript(seed) directly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "api/engine.h"
#include "testing/catalog_text.h"
#include "testing/diff_harness.h"
#include "testing/json_lite.h"
#include "testing/script_gen.h"

namespace scx {
namespace {

HarnessOptions SmokeOptions() {
  HarnessOptions opts;
  opts.machines = 4;
  opts.threads = 4;
  // The smoke must stay fast: a failing script is minimized by the fuzz CLI
  // run, not inside the unit test.
  opts.minimize = false;
  return opts;
}

ScriptGenOptions SmokeGenOptions() {
  ScriptGenOptions gen;
  gen.max_rows = 1500;  // keep executor-backed oracles cheap
  return gen;
}

void CheckSeeds(uint64_t base, int count, const ScriptGenOptions& gen,
                const char* label) {
  DiffHarness harness(SmokeOptions());
  for (int i = 0; i < count; ++i) {
    uint64_t seed = base + static_cast<uint64_t>(i);
    GeneratedCase c = GenerateScript(seed, gen);
    OracleReport report = harness.Check(c.catalog, c.script, seed);
    ASSERT_TRUE(report.ok)
        << label << ": oracle '" << report.oracle << "' failed for seed "
        << seed << "\ndetail: " << report.detail << "\nscript:\n"
        << c.script;
  }
}

// 8 shards x 25 scripts = 200 random scripts per run, fixed seeds.
class ScxCheckSmoke : public ::testing::TestWithParam<int> {};

TEST_P(ScxCheckSmoke, RandomScriptsPassAllOracles) {
  CheckSeeds(static_cast<uint64_t>(GetParam()) * 1000u, 25,
             SmokeGenOptions(), "random");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScxCheckSmoke, ::testing::Range(1, 9));

// --- Generator edge cases -------------------------------------------------

TEST(ScxCheckEdgeCases, SingleConsumerScriptsPass) {
  // No sharing at all: conventional and cse must coincide everywhere.
  ScriptGenOptions gen = SmokeGenOptions();
  gen.force_single_consumer = true;
  CheckSeeds(90001, 12, gen, "single-consumer");
}

TEST(ScxCheckEdgeCases, EmptyInputTablesPass) {
  // rows=0 inputs: every operator sees empty partitions, outputs stay
  // empty-but-present in both modes.
  ScriptGenOptions gen = SmokeGenOptions();
  gen.force_empty_inputs = true;
  CheckSeeds(91001, 12, gen, "empty-input");
}

TEST(ScxCheckEdgeCases, ExprConsumerScriptsPass) {
  // Every consumer computes deep arithmetic with deliberately repeated
  // subterms: exercises the expression-CSE pass, the typed batch kernels
  // (incl. double division), and the batch-vs-row identity oracle.
  ScriptGenOptions gen = SmokeGenOptions();
  gen.force_expr_consumers = true;
  CheckSeeds(93001, 12, gen, "expr-consumer");
}

TEST(ScxCheckEdgeCases, DuplicateOutputScriptsPass) {
  // The same result OUTPUT twice (same or different path): spool sharing
  // must not double- or under-count rows.
  ScriptGenOptions gen = SmokeGenOptions();
  gen.force_duplicate_outputs = true;
  CheckSeeds(92001, 12, gen, "duplicate-output");
}

TEST(ScxCheckEdgeCases, GeneratorIsDeterministic) {
  ScriptGenOptions gen = SmokeGenOptions();
  for (uint64_t seed : {1ull, 77ull, 123456789ull}) {
    GeneratedCase a = GenerateScript(seed, gen);
    GeneratedCase b = GenerateScript(seed, gen);
    EXPECT_EQ(a.script, b.script) << "seed " << seed;
    EXPECT_EQ(CatalogToText(a.catalog), CatalogToText(b.catalog))
        << "seed " << seed;
  }
  // Different seeds should (essentially always) differ.
  EXPECT_NE(GenerateScript(1, gen).script, GenerateScript(2, gen).script);
}

// --- Checked-in corpus regression ----------------------------------------

// Locates the repo's testdata/ directory from the test's working directory
// (tests run from anywhere inside the build tree).
std::string TestdataDir() {
  std::string prefix;
  for (int depth = 0; depth < 6; ++depth, prefix += "../") {
    std::ifstream probe(prefix + "testdata/s1.scope");
    if (probe) return prefix + "testdata";
  }
  return "testdata";
}

TEST(ScxCheckCorpus, CheckedInReprosPass) {
  std::vector<std::string> files =
      ListCorpusFiles(TestdataDir() + "/fuzz_corpus");
  ASSERT_FALSE(files.empty())
      << "no corpus files under testdata/fuzz_corpus";
  for (const std::string& path : files) {
    auto corpus = LoadCorpusFile(path);
    ASSERT_TRUE(corpus.ok()) << path << ": "
                             << corpus.status().ToString();
    HarnessOptions opts = SmokeOptions();
    opts.machines = corpus->machines;
    opts.threads = corpus->threads;
    opts.fault_plan = corpus->fault_plan;
    DiffHarness harness(opts);
    OracleReport report =
        harness.Check(corpus->catalog, corpus->script, corpus->seed);
    EXPECT_TRUE(report.ok)
        << path << ": oracle '" << report.oracle
        << "' failed\ndetail: " << report.detail << "\nscript:\n"
        << corpus->script;
  }
}

TEST(ScxCheckCorpus, CorpusTextRoundTrips) {
  ScriptGenOptions gen = SmokeGenOptions();
  GeneratedCase c = GenerateScript(42, gen);
  CorpusCase original;
  original.seed = 42;
  original.oracle = "outputs";
  original.machines = 4;
  original.threads = 2;
  original.catalog = c.catalog;
  original.script = c.script;
  auto reparsed = ParseCorpusText(CorpusCaseToText(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->seed, original.seed);
  EXPECT_EQ(reparsed->oracle, original.oracle);
  EXPECT_EQ(reparsed->machines, original.machines);
  EXPECT_EQ(reparsed->threads, original.threads);
  EXPECT_EQ(reparsed->script, original.script);
  EXPECT_EQ(CatalogToText(reparsed->catalog), CatalogToText(c.catalog));
  EXPECT_FALSE(reparsed->fault_plan.Enabled());
}

TEST(ScxCheckCorpus, FaultPlanRoundTrips) {
  GeneratedCase c = GenerateScript(43, SmokeGenOptions());
  CorpusCase original;
  original.seed = 43;
  original.oracle = "fault-identity";
  original.catalog = c.catalog;
  original.script = c.script;
  original.fault_plan.seed = 999;
  original.fault_plan.failure_prob = 0.02;
  original.fault_plan.max_failures = 4;
  original.fault_plan.straggler_prob = 0.25;
  original.fault_plan.straggler_factor = 8.0;
  original.fault_plan.disable_recovery_spool_reads = true;
  original.fault_plan.failures = {{7, 2}, {11, 0}};
  auto reparsed = ParseCorpusText(CorpusCaseToText(original));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const FaultPlan& f = reparsed->fault_plan;
  EXPECT_EQ(f.seed, original.fault_plan.seed);
  EXPECT_EQ(f.failure_prob, original.fault_plan.failure_prob);
  EXPECT_EQ(f.max_failures, original.fault_plan.max_failures);
  EXPECT_EQ(f.straggler_prob, original.fault_plan.straggler_prob);
  EXPECT_EQ(f.straggler_factor, original.fault_plan.straggler_factor);
  EXPECT_TRUE(f.disable_recovery_spool_reads);
  ASSERT_EQ(f.failures.size(), 2u);
  EXPECT_EQ(f.failures[0].pass, 7);
  EXPECT_EQ(f.failures[0].machine, 2);
  EXPECT_EQ(f.failures[1].pass, 11);
  EXPECT_EQ(f.failures[1].machine, 0);
  // The serialized form is itself round-trip stable (the corpus files are
  // checked in verbatim).
  EXPECT_EQ(CorpusCaseToText(*reparsed), CorpusCaseToText(original));
}

// --- Skewed key distributions ---------------------------------------------

/// Histogram of column A from a seeded synthetic file with `alpha` skew.
std::map<int64_t, int64_t> KeyHistogram(double alpha, uint64_t data_seed) {
  std::string spec = "file skew.log rows=4000 seed=" +
                     std::to_string(data_seed) + " A:64";
  if (alpha > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ":skew=%g", alpha);
    spec += buf;
  }
  spec += " B:16\n";
  auto catalog = ParseCatalogText(spec);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();

  OptimizerConfig config;
  config.cluster.machines = 4;
  Engine engine(*catalog, config);
  auto compiled = engine.Compile(
      "R0 = EXTRACT A,B FROM \"skew.log\" USING LogExtractor;\n"
      "R  = SELECT A,Count(*) AS N FROM R0 GROUP BY A;\n"
      "OUTPUT R TO \"hist.out\";\n");
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  EXPECT_TRUE(optimized.ok());
  auto metrics = engine.Execute(*optimized);
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();

  std::map<int64_t, int64_t> hist;
  for (const Row& row : metrics->outputs.at("hist.out")) {
    hist[row[0].as_int()] = row[1].as_int();
  }
  return hist;
}

TEST(SkewedKeysTest, HistogramIsAPureFunctionOfSeedAndAlpha) {
  EXPECT_EQ(KeyHistogram(1.5, 9), KeyHistogram(1.5, 9));
  EXPECT_NE(KeyHistogram(1.5, 9), KeyHistogram(0.5, 9))
      << "different alphas must draw different histograms";
  // The data seed permutes which ROW draws which key (the synthetic
  // generator hashes seed ^ row), so XOR-adjacent seeds can produce the
  // same aggregate histogram; seed sensitivity is a raw-row property.
  auto raw_rows = [](uint64_t data_seed) {
    auto catalog = ParseCatalogText("file skew.log rows=64 seed=" +
                                    std::to_string(data_seed) +
                                    " A:64:skew=1.5 B:16\n");
    EXPECT_TRUE(catalog.ok());
    Engine engine(*catalog, OptimizerConfig{});
    auto compiled = engine.Compile(
        "R0 = EXTRACT A,B FROM \"skew.log\" USING LogExtractor;\n"
        "OUTPUT R0 TO \"raw.out\";\n");
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
    EXPECT_TRUE(optimized.ok());
    auto metrics = engine.Execute(*optimized);
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return metrics->outputs.at("raw.out");
  };
  EXPECT_EQ(raw_rows(9), raw_rows(9));
  EXPECT_NE(raw_rows(9), raw_rows(10))
      << "different data seeds must draw different rows";
}

TEST(SkewedKeysTest, ConcentrationGrowsWithAlpha) {
  auto hottest_share = [](const std::map<int64_t, int64_t>& hist) {
    int64_t total = 0;
    int64_t hottest = 0;
    for (const auto& [key, count] : hist) {
      total += count;
      hottest = std::max(hottest, count);
    }
    return static_cast<double>(hottest) / static_cast<double>(total);
  };
  double uniform = hottest_share(KeyHistogram(0, 9));
  double mild = hottest_share(KeyHistogram(1.0, 9));
  double heavy = hottest_share(KeyHistogram(3.0, 9));
  EXPECT_LT(uniform, 0.10) << "64 uniform keys: no bucket should dominate";
  EXPECT_GT(mild, uniform);
  EXPECT_GT(heavy, mild);
  // The hottest key's expected share is domain^(-1/(1+alpha)): for 64 keys
  // at alpha=3 that is 64^-0.25 ~ 0.35 of all rows on one machine's key.
  EXPECT_GT(heavy, 0.3)
      << "alpha=3 power law should pile ~35% of rows onto key 0";
}

TEST(SkewedKeysTest, SkewedCatalogTextRoundTrips) {
  auto catalog =
      ParseCatalogText("file s.log rows=10 seed=1 A:8:skew=1.5 B:4\n");
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  std::string rendered = CatalogToText(*catalog);
  EXPECT_NE(rendered.find("A:8:skew=1.5"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("B:4:"), std::string::npos)
      << "alpha=0 columns must render exactly as before the knob existed: "
      << rendered;
  auto again = ParseCatalogText(rendered);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(CatalogToText(*again), rendered);
  EXPECT_FALSE(ParseCatalogText("file s.log rows=10 A:8:skew=-1\n").ok())
      << "negative alpha must be rejected";
}

TEST(SkewedKeysTest, GeneratorSkewKnobIsDeterministic) {
  ScriptGenOptions gen = SmokeGenOptions();
  gen.key_skew_alpha = 1.2;
  GeneratedCase a = GenerateScript(17, gen);
  GeneratedCase b = GenerateScript(17, gen);
  EXPECT_EQ(a.script, b.script);
  EXPECT_EQ(CatalogToText(a.catalog), CatalogToText(b.catalog));
  EXPECT_NE(CatalogToText(a.catalog).find("skew=1.2"), std::string::npos)
      << "key columns must carry the configured alpha:\n"
      << CatalogToText(a.catalog);
  // The skew knob only changes catalogs (data), never script text.
  ScriptGenOptions plain = SmokeGenOptions();
  GeneratedCase c = GenerateScript(17, plain);
  EXPECT_EQ(a.script, c.script);
}

// --- Hostile-cluster smoke ------------------------------------------------

// A small sweep through the fault-oracle family: skewed keys, stragglers,
// and seeded machine kills. Oracles 8-9 assert the recovered runs stay
// bit-identical to the clean ones; the big sweep lives in the hostile-smoke
// CI job (scx_fuzz --profile hostile).
TEST(ScxCheckHostile, FaultedScriptsPassFaultOracles) {
  ScriptGenOptions gen = SmokeGenOptions();
  gen.key_skew_alpha = 1.2;
  for (int i = 0; i < 8; ++i) {
    uint64_t seed = 94001 + static_cast<uint64_t>(i);
    HarnessOptions opts = SmokeOptions();
    opts.fault_plan.seed = seed;
    opts.fault_plan.failure_prob = 0.05;
    opts.fault_plan.max_failures = 4;
    opts.fault_plan.straggler_prob = 0.25;
    opts.fault_plan.straggler_factor = 8.0;
    DiffHarness harness(opts);
    GeneratedCase c = GenerateScript(seed, gen);
    OracleReport report = harness.Check(c.catalog, c.script, seed);
    ASSERT_TRUE(report.ok)
        << "hostile: oracle '" << report.oracle << "' failed for seed "
        << seed << "\ndetail: " << report.detail << "\nscript:\n"
        << c.script;
  }
}

// --- Minimizer ------------------------------------------------------------

TEST(ScxCheckMinimizer, ShrinksToFailingCore) {
  // An artificial "oracle" exercised via a script that cannot compile: the
  // minimizer must keep exactly the offending statement (plus nothing
  // else), because dropping any other line still reproduces "compile".
  GeneratedCase c = GenerateScript(7, SmokeGenOptions());
  std::string broken = c.script +
                       "BAD = SELECT Nope FROM Missing;\n"
                       "OUTPUT BAD TO \"bad.out\";\n";
  DiffHarness harness(SmokeOptions());
  OracleReport report = harness.Check(c.catalog, broken, 7);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.oracle, "compile");
  std::string minimized = harness.Minimize(c.catalog, broken, "compile");
  // All generated statements are droppable; only the broken one must stay.
  EXPECT_NE(minimized.find("BAD = SELECT"), std::string::npos);
  EXPECT_LT(minimized.size(), broken.size());
  EXPECT_EQ(minimized.find("OUTPUT"), std::string::npos);
}

// --- json_lite ------------------------------------------------------------

TEST(JsonLiteTest, RoundTripsPlanShapedDocuments) {
  const std::string doc =
      "{\"root\":0,\"dag_cost\":1.5e+06,\"nodes\":[{\"id\":0,\"kind\":"
      "\"HashAgg\",\"children\":[1]},{\"id\":1,\"kind\":\"Extract\","
      "\"children\":[]}],\"flag\":true,\"none\":null,\"esc\":\"a\\\"b\\\\c"
      "\\n\\u0007\"}";
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeJson(*parsed), doc);
  const JsonValue* nodes = parsed->Find("nodes");
  ASSERT_NE(nodes, nullptr);
  EXPECT_EQ(nodes->array.size(), 2u);
  EXPECT_EQ(parsed->Find("dag_cost")->AsNumber(), 1.5e6);
}

TEST(JsonLiteTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nan").ok());
}

}  // namespace
}  // namespace scx
