// Cache and pruning behavior of the interned, hashed phase-2 hot path.
// Runs the CSE optimizer serially (1 thread) in two configurations per
// script:
//   * traced — round trace on: no cross-round branch-and-bound (the
//     determinism oracle; matches the PR-1 baseline configuration);
//   * fast   — round trace off: class-local branch-and-bound across rounds
//     is active.
// The chosen plan and cost must be identical in both (pruning only skips
// provably-losing work). Reports winner/spool hit rates, pruned counters,
// interner size, and phase-2 wall time; writes BENCH_opt_cache.json.

#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "workload/large_scripts.h"
#include "workload/paper_scripts.h"

namespace {

using namespace scx;

struct Run {
  double total_seconds = 0;
  double phase2_seconds = 0;
  long rounds = 0;
  double cost = 0;
  std::string plan;
  OptCacheCounters cache;

  double rounds_per_sec() const {
    return total_seconds > 0 ? rounds / total_seconds : 0;
  }
  double phase2_rounds_per_sec() const {
    return phase2_seconds > 0 ? rounds / phase2_seconds : 0;
  }
};

struct ScriptRow {
  std::string name;
  Run traced;
  Run fast;
  bool identical = false;
};

double HitRate(long hits, long misses) {
  long total = hits + misses;
  return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0;
}

bool RunOnce(const Catalog& catalog, const std::string& text, bool trace,
             Run* out) {
  OptimizerConfig config;
  config.trace_rounds = trace;
  config.budget_seconds = 1e9;  // identical results require no budget stop
  Engine engine(catalog, config);
  auto compiled = engine.Compile(text);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile: %s\n",
                 compiled.status().ToString().c_str());
    return false;
  }
  auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
  if (!optimized.ok()) {
    std::fprintf(stderr, "optimize: %s\n",
                 optimized.status().ToString().c_str());
    return false;
  }
  const OptimizeDiagnostics& d = optimized->result.diagnostics;
  out->total_seconds = d.optimize_seconds;
  out->phase2_seconds = d.phase2_seconds;
  out->rounds = d.rounds_executed;
  out->cost = optimized->cost();
  out->plan = optimized->Explain();
  out->cache = d.cache;
  return true;
}

bool Measure(const char* name, const Catalog& catalog,
             const std::string& text, std::vector<ScriptRow>* out) {
  ScriptRow r;
  r.name = name;
  if (!RunOnce(catalog, text, /*trace=*/true, &r.traced)) return false;
  if (!RunOnce(catalog, text, /*trace=*/false, &r.fast)) return false;
  r.identical =
      r.traced.cost == r.fast.cost && r.traced.plan == r.fast.plan;
  std::printf(
      "%-5s %7ld %9.3fs %9.3fs %9.0f %9.0f  %5.1f%% %5.1f%% %7ld %6ld %6ld "
      "%9s\n",
      name, r.traced.rounds, r.traced.phase2_seconds, r.fast.phase2_seconds,
      r.traced.phase2_rounds_per_sec(), r.fast.phase2_rounds_per_sec(),
      100 * HitRate(r.fast.cache.winner_hits, r.fast.cache.winner_misses),
      100 * HitRate(r.fast.cache.spool_hits, r.fast.cache.spool_misses),
      r.fast.cache.pruned_alternatives, r.fast.cache.pruned_rounds,
      r.fast.cache.interner_size, r.identical ? "yes" : "NO");
  out->push_back(std::move(r));
  return true;
}

void WriteRunJson(FILE* f, const char* key, const Run& r) {
  std::fprintf(f,
               "     \"%s\": {\"total_seconds\": %.6f, "
               "\"phase2_seconds\": %.6f, \"rounds\": %ld, "
               "\"rounds_per_sec\": %.1f, \"phase2_rounds_per_sec\": %.1f, "
               "\"winner_hits\": %ld, \"winner_misses\": %ld, "
               "\"winner_hit_rate\": %.4f, "
               "\"spool_hits\": %ld, \"spool_misses\": %ld, "
               "\"spool_hit_rate\": %.4f, "
               "\"pruned_alternatives\": %ld, \"pruned_rounds\": %ld, "
               "\"interner_size\": %ld}",
               key, r.total_seconds, r.phase2_seconds, r.rounds,
               r.rounds_per_sec(), r.phase2_rounds_per_sec(),
               r.cache.winner_hits, r.cache.winner_misses,
               HitRate(r.cache.winner_hits, r.cache.winner_misses),
               r.cache.spool_hits, r.cache.spool_misses,
               HitRate(r.cache.spool_hits, r.cache.spool_misses),
               r.cache.pruned_alternatives, r.cache.pruned_rounds,
               r.cache.interner_size);
}

void WriteJson(const std::vector<ScriptRow>& rows) {
  FILE* f = std::fopen("BENCH_opt_cache.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_opt_cache.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"opt_cache\",\n  \"threads\": 1,\n");
  std::fprintf(f, "  \"scripts\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScriptRow& r = rows[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"cost\": %.6f,\n",
                 r.name.c_str(), r.fast.cost);
    WriteRunJson(f, "traced", r.traced);
    std::fprintf(f, ",\n");
    WriteRunJson(f, "fast", r.fast);
    std::fprintf(f, ",\n     \"identical\": %s}%s\n",
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_opt_cache.json\n");
}

}  // namespace

int main() {
  std::printf(
      "phase-2 cache/pruning (serial; traced = round trace on, "
      "fast = trace off with class-local branch-and-bound)\n");
  std::printf(
      "%-5s %7s %10s %10s %9s %9s  %6s %6s %7s %6s %6s %9s\n", "name",
      "rounds", "p2 trace", "p2 fast", "tr r/s", "fast r/s", "whit",
      "shit", "prunedA", "prunR", "intern", "identical");

  std::vector<ScriptRow> rows;
  Catalog paper = MakePaperCatalog();
  bool ok = true;
  ok &= Measure("S1", paper, kScriptS1, &rows);
  ok &= Measure("S2", paper, kScriptS2, &rows);
  ok &= Measure("S3", paper, kScriptS3, &rows);
  ok &= Measure("S4", paper, kScriptS4, &rows);
  GeneratedScript ls1 = GenerateLargeScript(Ls1Spec());
  GeneratedScript ls2 = GenerateLargeScript(Ls2Spec());
  ok &= Measure("LS1", ls1.catalog, ls1.text, &rows);
  ok &= Measure("LS2", ls2.catalog, ls2.text, &rows);

  WriteJson(rows);

  for (const ScriptRow& r : rows) ok &= r.identical;
  return ok ? 0 : 1;
}
