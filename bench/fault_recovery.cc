// Fault-injected recovery: what the hostile-cluster machinery costs.
//
// Per generated script (skewed keys, alpha = 1.2), three arms over the same
// compiled-and-optimized CSE plan, each timed best-of-K:
//   * clean — no FaultPlan; the pre-PR execution path, byte for byte;
//   * armed — an Enabled() plan that injects nothing (straggler_prob = 1,
//     straggler_factor = 1, failure_prob = 0): every operator pass pays the
//     FailsAt() probe and the makespan bookkeeping but no partition is ever
//     lost. This arm prices the always-on cost of carrying the machinery;
//   * faulty — a seeded probabilistic plan (prob 0.05, cap 4, stragglers
//     0.25 x 8) that kills partitions mid-run and recovers them from
//     surviving spools or by recomputation.
//
// Both non-clean arms must reproduce the clean arm's outputs and legacy
// counters exactly (the tentpole's bit-identity contract,
// docs/architecture.md §17); any divergence exits 1. Writes BENCH_fault.json
// for tools/bench_diff.py --faulty-vs-clean, whose gate requires identity
// everywhere, armed-arm overhead <= 2%, and at least one injected failure
// across the sweep (so the faulty arm really exercises recovery).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "testing/script_gen.h"

namespace {

using namespace scx;

using Clock = std::chrono::steady_clock;

constexpr int kScripts = 6;
constexpr uint64_t kFirstSeed = 7100;
constexpr int kReps = 5;  // best-of-K timing

OptimizerConfig BenchConfig() {
  OptimizerConfig config;
  // One worker, no optimization budget: arms differ only in the fault plan,
  // so output and counter comparisons are exact, not statistical.
  config.cluster.exec_threads = 1;
  config.budget_seconds = 1e9;
  return config;
}

FaultPlan ArmedInertPlan() {
  FaultPlan fp;
  fp.seed = 1;
  fp.straggler_prob = 1.0;   // Enabled(), but...
  fp.straggler_factor = 1.0; // ...every "straggler" runs at normal speed,
  return fp;                 // and failure_prob = 0 injects nothing.
}

FaultPlan FaultyPlan(uint64_t seed) {
  FaultPlan fp;
  fp.seed = seed;
  fp.failure_prob = 0.05;
  fp.max_failures = 4;
  fp.straggler_prob = 0.25;
  fp.straggler_factor = 8.0;
  return fp;
}

struct ArmResult {
  double seconds = 0;  // best (min) of kReps
  int64_t rows_extracted = 0;
  bool identical = true;  // outputs + legacy counters match the clean arm
  // Fault family (zero on the clean and armed arms).
  int64_t failures_injected = 0;
  int64_t partitions_recovered = 0;
  int64_t rows_recomputed = 0;
  int64_t recovery_spool_hits = 0;
  int64_t recovery_bytes_moved = 0;

  double rows_per_sec() const {
    return seconds > 0 ? static_cast<double>(rows_extracted) / seconds : 0;
  }
};

struct ScriptRow {
  std::string name;
  ArmResult clean;
  ArmResult armed;
  ArmResult faulty;
};

// The legacy counters the bit-identity contract covers: everything the
// pre-PR executor reported. Fault-family counters are deliberately absent.
std::vector<int64_t> LegacyCounters(const ExecMetrics& m) {
  return {m.rows_extracted,    m.bytes_extracted,  m.bytes_shuffled,
          m.bytes_spooled,     m.spool_executions, m.spool_reads,
          m.operator_invocations, m.batches_evaluated, m.exprs_deduped,
          m.morsels_evaluated};
}

bool RunArm(const Catalog& catalog, const std::string& script,
            const FaultPlan& fault, const char* label,
            const ExecMetrics& clean_baseline, ArmResult* out) {
  OptimizerConfig config = BenchConfig();
  config.cluster.fault_plan = fault;
  Engine engine(catalog, config);
  auto compiled = engine.Compile(script);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s: compile: %s\n", label,
                 compiled.status().ToString().c_str());
    return false;
  }
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  if (!optimized.ok()) {
    std::fprintf(stderr, "%s: optimize: %s\n", label,
                 optimized.status().ToString().c_str());
    return false;
  }

  ExecMetrics last;
  double best = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = Clock::now();
    auto metrics = engine.Execute(*optimized);
    double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!metrics.ok()) {
      std::fprintf(stderr, "%s: execute: %s\n", label,
                   metrics.status().ToString().c_str());
      return false;
    }
    if (rep == 0 || secs < best) best = secs;
    last = *metrics;
  }

  out->seconds = best;
  out->rows_extracted = last.rows_extracted;
  out->failures_injected = last.machine_failures_injected;
  out->partitions_recovered = last.partitions_recovered;
  out->rows_recomputed = last.rows_recomputed;
  out->recovery_spool_hits = last.recovery_spool_hits;
  out->recovery_bytes_moved = last.recovery_bytes_moved;
  out->identical = last.outputs == clean_baseline.outputs &&
                   LegacyCounters(last) == LegacyCounters(clean_baseline);
  return true;
}

bool RunScript(uint64_t seed, std::vector<ScriptRow>* out) {
  ScriptGenOptions gen;
  gen.key_skew_alpha = 1.2;
  GeneratedCase generated = GenerateScript(seed, gen);

  ScriptRow row;
  row.name = "seed" + std::to_string(seed);

  // Clean arm first: its metrics are the identity baseline.
  ExecMetrics clean_metrics;
  {
    OptimizerConfig config = BenchConfig();
    Engine engine(generated.catalog, config);
    auto compiled = engine.Compile(generated.script);
    if (!compiled.ok()) {
      std::fprintf(stderr, "%s: compile: %s\n", row.name.c_str(),
                   compiled.status().ToString().c_str());
      return false;
    }
    auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
    if (!optimized.ok()) {
      std::fprintf(stderr, "%s: optimize: %s\n", row.name.c_str(),
                   optimized.status().ToString().c_str());
      return false;
    }
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = Clock::now();
      auto metrics = engine.Execute(*optimized);
      double secs = std::chrono::duration<double>(Clock::now() - t0).count();
      if (!metrics.ok()) {
        std::fprintf(stderr, "%s: clean execute: %s\n", row.name.c_str(),
                     metrics.status().ToString().c_str());
        return false;
      }
      if (rep == 0 || secs < row.clean.seconds) row.clean.seconds = secs;
      clean_metrics = *metrics;
    }
    row.clean.rows_extracted = clean_metrics.rows_extracted;
  }

  FaultPlan armed = ArmedInertPlan();
  FaultPlan faulty = FaultyPlan(seed);
  if (!RunArm(generated.catalog, generated.script, armed,
              (row.name + "/armed").c_str(), clean_metrics, &row.armed) ||
      !RunArm(generated.catalog, generated.script, faulty,
              (row.name + "/faulty").c_str(), clean_metrics, &row.faulty)) {
    return false;
  }
  bool inert_stayed_inert = row.armed.failures_injected == 0;

  bool ok = row.armed.identical && row.faulty.identical && inert_stayed_inert;
  double overhead =
      row.clean.seconds > 0
          ? row.armed.seconds / row.clean.seconds - 1.0
          : 0.0;
  std::printf("%-9s clean %8.2f ms  armed %8.2f ms (%+5.1f%%)  faulty "
              "%8.2f ms  %lld killed %lld spool-served %lld recomputed  "
              "%s%s\n",
              row.name.c_str(), row.clean.seconds * 1e3,
              row.armed.seconds * 1e3, overhead * 100,
              row.faulty.seconds * 1e3,
              static_cast<long long>(row.faulty.failures_injected),
              static_cast<long long>(row.faulty.recovery_spool_hits),
              static_cast<long long>(row.faulty.rows_recomputed),
              row.armed.identical && row.faulty.identical ? "identical"
                                                          : "DIVERGED",
              inert_stayed_inert ? "" : "  INERT-PLAN-FIRED");
  out->push_back(std::move(row));
  return ok;
}

void WriteArmJson(FILE* f, const char* key, const ArmResult& a,
                  bool fault_fields) {
  std::fprintf(f,
               "     \"%s\": {\"seconds\": %.6f, \"rows_per_sec\": %.1f, "
               "\"rows_extracted\": %lld, \"identical\": %s",
               key, a.seconds, a.rows_per_sec(),
               static_cast<long long>(a.rows_extracted),
               a.identical ? "true" : "false");
  if (fault_fields) {
    std::fprintf(f,
                 ",\n      \"failures_injected\": %lld, "
                 "\"partitions_recovered\": %lld, \"rows_recomputed\": %lld, "
                 "\"recovery_spool_hits\": %lld, \"recovery_bytes_moved\": "
                 "%lld",
                 static_cast<long long>(a.failures_injected),
                 static_cast<long long>(a.partitions_recovered),
                 static_cast<long long>(a.rows_recomputed),
                 static_cast<long long>(a.recovery_spool_hits),
                 static_cast<long long>(a.recovery_bytes_moved));
  }
  std::fprintf(f, "}");
}

void WriteJson(const std::vector<ScriptRow>& rows) {
  FILE* f = std::fopen("BENCH_fault.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fault.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_recovery\",\n  \"scripts\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScriptRow& r = rows[i];
    std::fprintf(f, "    {\"name\": \"%s\",\n", r.name.c_str());
    WriteArmJson(f, "clean", r.clean, false);
    std::fprintf(f, ",\n");
    WriteArmJson(f, "armed", r.armed, true);
    std::fprintf(f, ",\n");
    WriteArmJson(f, "faulty", r.faulty, true);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_fault.json\n");
}

}  // namespace

int main() {
  std::printf("fault recovery: clean vs armed-but-inert vs fault-injected "
              "runs of the same plan\n");
  std::vector<ScriptRow> rows;
  bool ok = true;
  for (int i = 0; i < kScripts; ++i) {
    ok = RunScript(kFirstSeed + i, &rows) && ok;
  }
  WriteJson(rows);
  int64_t total_failures = 0;
  for (const ScriptRow& r : rows) total_failures += r.faulty.failures_injected;
  if (total_failures == 0) {
    std::fprintf(stderr, "FAIL: the faulty arm never injected a failure — "
                         "the sweep proved nothing about recovery\n");
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: a fault-armed run diverged from its clean "
                         "run (or the sweep was inert)\n");
    return 1;
  }
  return 0;
}
