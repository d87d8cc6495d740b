// Fault-injected spool recovery tests (docs/architecture.md §17): machine
// failures at operator-pass granularity must be invisible — the recovered
// run stays bit-identical to the clean run in raw outputs and every legacy
// counter, whether the lost partition is re-read from a surviving spool
// (run-local or cross-query) or deterministically recomputed. Stragglers
// only stretch the simulated makespan, never results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.h"
#include "exec/executor.h"
#include "exec/spool_cache.h"
#include "testing/reference_eval.h"
#include "workload/paper_scripts.h"

namespace scx {
namespace {

OptimizerConfig SmallCluster() {
  OptimizerConfig config;
  config.cluster.machines = 4;
  config.cluster.exec_threads = 1;
  return config;
}

/// Optimizes `script` in kCse mode against the shared execution catalog;
/// `logical` receives the bound script when non-null.
PhysicalNodePtr CsePlan(Engine* engine, const std::string& script,
                        LogicalNodePtr* logical = nullptr) {
  auto compiled = engine->Compile(script);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  if (logical != nullptr) *logical = compiled->bound.root;
  auto optimized = engine->Optimize(*compiled, OptimizerMode::kCse);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  return optimized->plan();
}

/// The fault-vs-clean identity contract: raw output rows and every legacy
/// counter equal; the fault counters are additive-only on top.
void ExpectCleanIdentity(const ExecMetrics& clean, const ExecMetrics& faulted,
                         const std::string& label) {
  EXPECT_EQ(faulted.rows_extracted, clean.rows_extracted) << label;
  EXPECT_EQ(faulted.bytes_extracted, clean.bytes_extracted) << label;
  EXPECT_EQ(faulted.rows_shuffled, clean.rows_shuffled) << label;
  EXPECT_EQ(faulted.bytes_shuffled, clean.bytes_shuffled) << label;
  EXPECT_EQ(faulted.rows_spooled, clean.rows_spooled) << label;
  EXPECT_EQ(faulted.bytes_spooled, clean.bytes_spooled) << label;
  EXPECT_EQ(faulted.spool_executions, clean.spool_executions) << label;
  EXPECT_EQ(faulted.spool_reads, clean.spool_reads) << label;
  EXPECT_EQ(faulted.spool_cache_hits, clean.spool_cache_hits) << label;
  EXPECT_EQ(faulted.spool_bytes_evicted, clean.spool_bytes_evicted) << label;
  EXPECT_EQ(faulted.operator_invocations, clean.operator_invocations)
      << label;
  EXPECT_EQ(faulted.rows_output, clean.rows_output) << label;
  EXPECT_EQ(faulted.outputs, clean.outputs)
      << label << ": raw output rows diverged";
}

// A single machine failure at EVERY pass of the plan — which walks the
// injection point through every operator class the plan contains (extract,
// filter, aggregate, exchange, spool, spool-scan, join, ...) — must recover
// to the clean run, serially and at 4 threads, and every injected failure
// must be recovered. The clean run itself computes the reference
// evaluator's outputs.
TEST(FaultRecoveryTest, FailureAtEveryPassRecoversIdentically) {
  for (int threads : {1, 4}) {
    OptimizerConfig config = SmallCluster();
    config.cluster.exec_threads = threads;
    Engine engine(MakeExecutionCatalog(5000), config);
    LogicalNodePtr logical;
    PhysicalNodePtr plan = CsePlan(&engine, kScriptS1, &logical);
    ASSERT_NE(plan, nullptr);
    const std::string knobs = "threads=" + std::to_string(threads);

    Executor clean_exec(config.cluster);
    auto clean = clean_exec.Execute(plan);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    ASSERT_GT(clean->operator_invocations, 0);
    auto reference = EvaluateReference(logical);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExecMetrics expected;
    expected.outputs = std::move(*reference);
    EXPECT_TRUE(SameOutputs(expected, *clean)) << knobs;

    int64_t injected_total = 0;
    for (int64_t pass = 1; pass <= clean->operator_invocations; ++pass) {
      ClusterConfig cluster = config.cluster;
      cluster.fault_plan.failures = {{pass, /*machine=*/1}};
      Executor exec(cluster);
      auto faulted = exec.Execute(plan);
      std::string label = knobs + " pass=" + std::to_string(pass);
      ASSERT_TRUE(faulted.ok()) << label << ": "
                                << faulted.status().ToString();
      ExpectCleanIdentity(*clean, *faulted, label);
      EXPECT_EQ(faulted->partitions_recovered,
                faulted->machine_failures_injected)
          << label;
      injected_total += faulted->machine_failures_injected;
    }
    // Output/Sequence passes carry no recoverable data, but most passes do:
    // the sweep must actually have injected failures.
    EXPECT_GT(injected_total, 0) << knobs;
  }
}

// Across the every-pass sweep both recovery strategies must fire: a spool
// whose data survives in the run-local cache is re-read (recovery_spool_hits
// with zero recomputation), while a lost extract partition can only be
// recomputed.
TEST(FaultRecoveryTest, BothRecoveryStrategiesAreExercised) {
  OptimizerConfig config = SmallCluster();
  Engine engine(MakeExecutionCatalog(5000), config);
  PhysicalNodePtr plan = CsePlan(&engine, kScriptS1);
  ASSERT_NE(plan, nullptr);

  Executor clean_exec(config.cluster);
  auto clean = clean_exec.Execute(plan);
  ASSERT_TRUE(clean.ok());
  ASSERT_GT(clean->spool_executions, 0)
      << "S1's CSE plan must spool the shared aggregate";

  bool spool_served = false;
  bool recomputed = false;
  for (int64_t pass = 1; pass <= clean->operator_invocations; ++pass) {
    ClusterConfig cluster = config.cluster;
    cluster.fault_plan.failures = {{pass, /*machine=*/0}};
    Executor exec(cluster);
    auto faulted = exec.Execute(plan);
    ASSERT_TRUE(faulted.ok()) << "pass=" << pass;
    if (faulted->machine_failures_injected == 0) continue;
    if (faulted->recovery_spool_hits > 0 && faulted->rows_recomputed == 0) {
      spool_served = true;
    }
    if (faulted->rows_recomputed > 0) recomputed = true;
  }
  EXPECT_TRUE(spool_served)
      << "no failure was recovered from a surviving spool";
  EXPECT_TRUE(recomputed) << "no failure required recomputation";
}

// Turning off recovery spool reads (the pure-recompute strategy) still
// recovers bit-identically, and the spool-assisted strategy never
// recomputes more rows or moves more bytes than it (oracle 9's bound).
TEST(FaultRecoveryTest, SpoolAssistedRecoveryBoundedByPureRecompute) {
  OptimizerConfig config = SmallCluster();
  Engine engine(MakeExecutionCatalog(5000), config);
  PhysicalNodePtr plan = CsePlan(&engine, kScriptS2);
  ASSERT_NE(plan, nullptr);

  Executor clean_exec(config.cluster);
  auto clean = clean_exec.Execute(plan);
  ASSERT_TRUE(clean.ok());

  ClusterConfig faulted_cluster = config.cluster;
  faulted_cluster.fault_plan.seed = 7;
  faulted_cluster.fault_plan.failure_prob = 0.1;
  faulted_cluster.fault_plan.max_failures = 4;
  Executor assisted_exec(faulted_cluster);
  auto assisted = assisted_exec.Execute(plan);
  ASSERT_TRUE(assisted.ok());
  ASSERT_GT(assisted->machine_failures_injected, 0)
      << "seed 7 at p=0.1 should kill at least one machine; if the plan "
         "shape changed, pick a new seed";
  ExpectCleanIdentity(*clean, *assisted, "spool-assisted");

  ClusterConfig pure_cluster = faulted_cluster;
  pure_cluster.fault_plan.disable_recovery_spool_reads = true;
  Executor pure_exec(pure_cluster);
  auto pure = pure_exec.Execute(plan);
  ASSERT_TRUE(pure.ok());
  ExpectCleanIdentity(*clean, *pure, "pure-recompute");

  // Identical failure sets by construction (FailsAt ignores the strategy).
  EXPECT_EQ(pure->machine_failures_injected,
            assisted->machine_failures_injected);
  EXPECT_LE(assisted->rows_recomputed, pure->rows_recomputed);
  EXPECT_LE(assisted->recovery_bytes_moved, pure->recovery_bytes_moved);
}

// Randomized fault plans (Bernoulli kills + stragglers) stay bit-identical
// to the clean baseline at 1 and 4 threads, and the
// faulted run itself is deterministic: same plan, same counters, fault
// counters included.
TEST(FaultRecoveryTest, RandomFaultsBitIdenticalAcrossKnobs) {
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  PhysicalNodePtr plan = CsePlan(&engine, kScriptS1);
  ASSERT_NE(plan, nullptr);

  FaultPlan fp;
  fp.seed = 11;
  fp.failure_prob = 0.05;
  fp.max_failures = 4;
  fp.straggler_prob = 0.25;
  fp.straggler_factor = 8.0;

  ClusterConfig base = SmallCluster().cluster;
  Executor clean_exec(base);
  auto clean = clean_exec.Execute(plan);
  ASSERT_TRUE(clean.ok());

  ExecMetrics reference;
  bool have_reference = false;
  for (int threads : {1, 4}) {
    ClusterConfig cluster = base;
    cluster.exec_threads = threads;
    cluster.fault_plan = fp;
    Executor exec(cluster);
    auto faulted = exec.Execute(plan);
    std::string label = "threads=" + std::to_string(threads);
    ASSERT_TRUE(faulted.ok()) << label;
    ExpectCleanIdentity(*clean, *faulted, label);
    EXPECT_EQ(faulted->partitions_recovered,
              faulted->machine_failures_injected)
        << label;
    // The fault counters are pass-structural, so they must agree exactly
    // across thread counts.
    if (!have_reference) {
      reference = *faulted;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(faulted->machine_failures_injected,
              reference.machine_failures_injected)
        << label;
    EXPECT_EQ(faulted->rows_recomputed, reference.rows_recomputed) << label;
    EXPECT_EQ(faulted->recovery_spool_hits, reference.recovery_spool_hits)
        << label;
    EXPECT_EQ(faulted->recovery_bytes_moved, reference.recovery_bytes_moved)
        << label;
    EXPECT_EQ(faulted->sim_makespan_ticks, reference.sim_makespan_ticks)
        << label;
  }
}

// Stragglers are simulation-only: with the multiplier armed the makespan
// grows deterministically, while results and every legacy counter stay
// bit-identical to the clean run.
TEST(FaultRecoveryTest, StragglersStretchMakespanOnly) {
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  PhysicalNodePtr plan = CsePlan(&engine, kScriptS1);
  ASSERT_NE(plan, nullptr);

  ClusterConfig base = SmallCluster().cluster;
  Executor clean_exec(base);
  auto clean = clean_exec.Execute(plan);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->sim_makespan_ticks, 0)
      << "no fault plan, no simulated clock";

  auto ticks_at = [&](double factor) {
    ClusterConfig cluster = base;
    cluster.fault_plan.seed = 3;
    cluster.fault_plan.straggler_prob = 0.5;
    cluster.fault_plan.straggler_factor = factor;
    Executor exec(cluster);
    auto run = exec.Execute(plan);
    EXPECT_TRUE(run.ok());
    ExpectCleanIdentity(*clean, *run,
                        "straggler_factor=" + std::to_string(factor));
    EXPECT_EQ(run->machine_failures_injected, 0);
    return run->sim_makespan_ticks;
  };

  int64_t uniform = ticks_at(1.0);   // armed plan, but no machine slowed
  int64_t stretched = ticks_at(8.0);
  EXPECT_GT(uniform, 0);
  EXPECT_GT(stretched, uniform)
      << "an 8x straggler must stretch the simulated makespan";
  EXPECT_EQ(stretched, ticks_at(8.0)) << "simulated clock is deterministic";
}

// A machine failure in the middle of a cross-query batched run: the merged
// plan's lost partition may be served by the cross-query spool cache or the
// merged run-local spools; per-script demultiplexed outputs must stay
// bit-identical to the clean merged run.
TEST(FaultRecoveryTest, BatchedSubmissionRecoversAcrossQueries) {
  std::vector<std::string> scripts = {kScriptS1, kScriptS2};

  Engine clean_engine(MakeExecutionCatalog(5000), SmallCluster());
  auto clean = clean_engine.SubmitBatch(scripts, OptimizerMode::kCse);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  OptimizerConfig faulted_config = SmallCluster();
  faulted_config.cluster.fault_plan.seed = 5;
  faulted_config.cluster.fault_plan.failure_prob = 0.1;
  faulted_config.cluster.fault_plan.max_failures = 6;
  Engine fault_engine(MakeExecutionCatalog(5000), faulted_config);
  auto faulted = fault_engine.SubmitBatch(scripts, OptimizerMode::kCse);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  ASSERT_GT(faulted->metrics.machine_failures_injected, 0)
      << "seed 5 at p=0.1 should kill at least one machine; if the merged "
         "plan shape changed, pick a new seed";
  EXPECT_EQ(faulted->metrics.partitions_recovered,
            faulted->metrics.machine_failures_injected);
  ExpectCleanIdentity(clean->metrics, faulted->metrics, "merged");
  ASSERT_EQ(faulted->script_outputs.size(), clean->script_outputs.size());
  for (size_t i = 0; i < clean->script_outputs.size(); ++i) {
    EXPECT_EQ(faulted->script_outputs[i], clean->script_outputs[i])
        << "script " << i;
  }

  // Warm resubmission under the same fault plan: recovery re-reads may now
  // be served by the cross-query cache; outputs must not move.
  auto again = fault_engine.SubmitBatch(scripts, OptimizerMode::kCse);
  ASSERT_TRUE(again.ok());
  for (size_t i = 0; i < clean->script_outputs.size(); ++i) {
    EXPECT_EQ(again->script_outputs[i], faulted->script_outputs[i])
        << "script " << i << " (warm resubmission)";
  }
}

// An inert FaultPlan (all zeros) is Enabled()==false and must leave the
// executor on the exact clean code path: no fault counters, no simulated
// clock, bit-identical metrics.
TEST(FaultRecoveryTest, ZeroFaultPlanIsInert) {
  Engine engine(MakeExecutionCatalog(5000), SmallCluster());
  PhysicalNodePtr plan = CsePlan(&engine, kScriptS1);
  ASSERT_NE(plan, nullptr);

  FaultPlan inert;
  EXPECT_FALSE(inert.Enabled());

  ClusterConfig base = SmallCluster().cluster;
  Executor clean_exec(base);
  auto clean = clean_exec.Execute(plan);
  ASSERT_TRUE(clean.ok());

  ClusterConfig with_plan = base;
  with_plan.fault_plan = inert;
  Executor exec(with_plan);
  auto run = exec.Execute(plan);
  ASSERT_TRUE(run.ok());
  ExpectCleanIdentity(*clean, *run, "inert plan");
  EXPECT_EQ(run->machine_failures_injected, 0);
  EXPECT_EQ(run->partitions_recovered, 0);
  EXPECT_EQ(run->rows_recomputed, 0);
  EXPECT_EQ(run->recovery_spool_hits, 0);
  EXPECT_EQ(run->recovery_bytes_moved, 0);
  EXPECT_EQ(run->sim_makespan_ticks, 0);
}

}  // namespace
}  // namespace scx
