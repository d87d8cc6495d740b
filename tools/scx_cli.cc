// scx command-line driver: compile a SCOPE-dialect script against a catalog
// description, optimize it (conventional / naive-sharing / cse), print the
// plan and diagnostics, and optionally execute it on the simulated cluster.
//
// Usage:
//   scx_cli --catalog CATFILE --script SCRIPTFILE
//           [--mode conv|naive|cse] [--machines N] [--budget SECONDS]
//           [--threads N] [--spool-cache BYTES]
//           [--fault-seed N] [--fault-prob P] [--fault-max N]
//           [--straggler-prob P] [--straggler-factor F] [--no-recovery-spools]
//           [--compare] [--execute] [--quiet]
//
// --machines sets the simulated cluster size (a positive integer).
// --threads sets the executor's worker threads (cluster.exec_threads; the
// optimizer always runs its rounds serially); results are identical at
// every thread count. --spool-cache bounds the bytes held for spooled
// intermediates (0 = default /
// SCX_SPOOL_CACHE_BYTES env / 256 MiB; negative = unlimited); evictions
// surface as spool_bytes_evicted. The --fault-*/--straggler-* flags arm a
// FaultPlan (hostile-cluster simulation, docs/architecture.md §17): seeded
// machine failures are injected at operator-pass granularity and recovered
// from surviving spools or by recomputation — outputs stay bit-identical to
// the clean run; --no-recovery-spools forces pure recomputation. With --json
// --execute the output gains an "execution" object carrying every
// ExecMetrics counter, including the fault family (machine_failures_
// injected, partitions_recovered, rows_recomputed, recovery_spool_hits,
// recovery_bytes_moved, sim_makespan_ticks).
//
// Catalog file format (one file per line, '#' comments; see
// testing/catalog_text.h):
//   file <path> rows=<n> [seed=<n>] <col>:<ndv>[:int64|double|string] ...
// Example:
//   file test.log rows=2000000 A:40 B:400 C:40 D:10000

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "api/engine.h"
#include "opt/plan_json.h"
#include "testing/catalog_text.h"

namespace scx {
namespace {

/// Parses a whole decimal integer >= 1 ("3x", "abc", "0" and "-3" fail).
bool ParsePositive(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v < 1 || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Result<Catalog> ParseCatalogFile(const std::string& path) {
  SCX_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  auto catalog = ParseCatalogText(text);
  if (!catalog.ok()) {
    return Status(catalog.status().code(),
                  path + ": " + catalog.status().message());
  }
  return catalog;
}

void PrintDiagnostics(const OptimizeDiagnostics& d) {
  std::printf("  operators (reachable groups) : %d\n", d.reachable_groups);
  std::printf("  shared groups                : %d (%d explicit, %d merged)\n",
              d.num_shared_groups, d.explicit_shared,
              d.merged_subexpressions);
  std::printf("  phase-2 rounds               : %ld of %ld planned%s\n",
              d.rounds_executed, d.rounds_planned,
              d.budget_exhausted ? " (budget exhausted)" : "");
  std::printf("  optimization time            : %.3f s (phase 2 %.3f s)\n",
              d.optimize_seconds, d.phase2_seconds);
  const OptCacheCounters& c = d.cache;
  long wt = c.winner_hits + c.winner_misses;
  long st = c.spool_hits + c.spool_misses;
  std::printf("  winner cache                 : %ld/%ld hits (%.1f%%)\n",
              c.winner_hits, wt,
              wt > 0 ? 100.0 * c.winner_hits / wt : 0.0);
  std::printf("  spool cache                  : %ld/%ld hits (%.1f%%)\n",
              c.spool_hits, st,
              st > 0 ? 100.0 * c.spool_hits / st : 0.0);
  std::printf("  props interned               : %ld\n", c.interner_size);
  std::printf("  pruned                       : %ld alternatives, %ld "
              "rounds\n",
              c.pruned_alternatives, c.pruned_rounds);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "scx: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string catalog_path, script_path, mode_name = "cse";
  OptimizerConfig config;
  bool compare = false, execute = false, quiet = false, json = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--catalog") {
      catalog_path = next();
    } else if (arg == "--script") {
      script_path = next();
    } else if (arg == "--mode") {
      mode_name = next();
    } else if (arg == "--machines") {
      if (!ParsePositive(next(), &config.cluster.machines)) {
        std::fprintf(stderr, "scx: --machines needs a positive integer\n");
        return 2;
      }
    } else if (arg == "--budget") {
      config.budget_seconds = std::atof(next());
    } else if (arg == "--threads") {
      if (!ParsePositive(next(), &config.cluster.exec_threads)) {
        std::fprintf(stderr, "scx: --threads needs a positive integer\n");
        return 2;
      }
    } else if (arg == "--spool-cache") {
      // Byte budget for spooled intermediates (run-local and cross-query).
      // 0 = default (SCX_SPOOL_CACHE_BYTES or 256 MiB), negative =
      // unlimited.
      config.cluster.spool_cache_bytes = std::atoll(next());
    } else if (arg == "--fault-seed") {
      config.cluster.fault_plan.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--fault-prob") {
      config.cluster.fault_plan.failure_prob = std::atof(next());
    } else if (arg == "--fault-max") {
      config.cluster.fault_plan.max_failures = std::atoi(next());
    } else if (arg == "--straggler-prob") {
      config.cluster.fault_plan.straggler_prob = std::atof(next());
    } else if (arg == "--straggler-factor") {
      config.cluster.fault_plan.straggler_factor = std::atof(next());
    } else if (arg == "--no-recovery-spools") {
      config.cluster.fault_plan.disable_recovery_spool_reads = true;
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--execute") {
      execute = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help") {
      std::printf(
          "usage: scx_cli --catalog FILE --script FILE [--mode conv|naive|"
          "cse]\n              [--machines N] [--budget S] [--threads N] "
          "[--spool-cache BYTES]\n              "
          "[--fault-seed N] [--fault-prob P]\n              [--fault-max N] "
          "[--straggler-prob P] [--straggler-factor F]\n              "
          "[--no-recovery-spools] [--compare] [--execute] [--quiet] "
          "[--json]\n\n  --machines N sets the simulated cluster size "
          "(N >= 1).\n  --threads N sets the executor's worker threads "
          "(cluster.exec_threads) only.\n");
      return 0;
    } else {
      std::fprintf(stderr, "scx: unknown flag %s (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (catalog_path.empty() || script_path.empty()) {
    std::fprintf(stderr,
                 "scx: --catalog and --script are required (try --help)\n");
    return 2;
  }

  OptimizerMode mode;
  if (mode_name == "conv" || mode_name == "conventional") {
    mode = OptimizerMode::kConventional;
  } else if (mode_name == "naive") {
    mode = OptimizerMode::kNaiveSharing;
  } else if (mode_name == "cse") {
    mode = OptimizerMode::kCse;
  } else {
    std::fprintf(stderr, "scx: unknown mode '%s'\n", mode_name.c_str());
    return 2;
  }

  auto catalog = ParseCatalogFile(catalog_path);
  if (!catalog.ok()) return Fail(catalog.status());
  auto source = ReadFileToString(script_path);
  if (!source.ok()) return Fail(source.status());

  Engine engine(std::move(catalog.value()), config);
  auto compiled = engine.Compile(*source);
  if (!compiled.ok()) return Fail(compiled.status());

  if (compare) {
    auto conv = engine.Optimize(*compiled, OptimizerMode::kConventional);
    auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
    if (!conv.ok()) return Fail(conv.status());
    if (!cse.ok()) return Fail(cse.status());
    std::printf("conventional cost : %.0f\n", conv->cost());
    std::printf("cse cost          : %.0f  (%.0f%% saving)\n", cse->cost(),
                100.0 * (1.0 - cse->cost() / conv->cost()));
    if (!quiet) {
      std::printf("\nCSE plan:\n%s", cse->Explain().c_str());
    }
    return 0;
  }

  auto optimized = engine.Optimize(*compiled, mode);
  if (!optimized.ok()) return Fail(optimized.status());
  if (json) {
    std::string execution;
    if (execute) {
      auto metrics = engine.Execute(*optimized);
      if (!metrics.ok()) return Fail(metrics.status());
      execution = ",\"execution\":" + ExecMetricsToJson(*metrics);
    }
    std::printf("{\"plan\":%s,\"diagnostics\":%s%s}\n",
                PlanToJson(optimized->plan()).c_str(),
                DiagnosticsToJson(optimized->result.diagnostics).c_str(),
                execution.c_str());
    return 0;
  }
  std::printf("mode            : %s\n", mode_name.c_str());
  std::printf("estimated cost  : %.0f\n", optimized->cost());
  PrintDiagnostics(optimized->result.diagnostics);
  if (!quiet) {
    std::printf("\nplan:\n%s", optimized->Explain().c_str());
  }
  if (execute) {
    auto metrics = engine.Execute(*optimized);
    if (!metrics.ok()) return Fail(metrics.status());
    std::printf("\nexecution (simulated, %d machines):\n",
                config.cluster.machines);
    std::printf("  rows extracted : %lld\n",
                static_cast<long long>(metrics->rows_extracted));
    std::printf("  bytes shuffled : %lld\n",
                static_cast<long long>(metrics->bytes_shuffled));
    std::printf("  bytes spooled  : %lld\n",
                static_cast<long long>(metrics->bytes_spooled));
    std::printf("  rows spooled   : %lld\n",
                static_cast<long long>(metrics->rows_spooled));
    std::printf("  spool reads    : %lld (%lld from cache, %lld cross-"
                "query)\n",
                static_cast<long long>(metrics->spool_reads),
                static_cast<long long>(metrics->spool_cache_hits),
                static_cast<long long>(metrics->cross_query_spool_hits));
    std::printf("  spool evicted  : %lld bytes\n",
                static_cast<long long>(metrics->spool_bytes_evicted));
    std::printf("  batches        : %lld evaluated, %lld exprs deduped\n",
                static_cast<long long>(metrics->batches_evaluated),
                static_cast<long long>(metrics->exprs_deduped));
    std::printf("  scan jobs      : %lld\n",
                static_cast<long long>(metrics->morsels_evaluated));
    if (config.cluster.fault_plan.Enabled()) {
      std::printf("  faults         : %lld machines killed, %lld "
                  "partitions recovered\n",
                  static_cast<long long>(metrics->machine_failures_injected),
                  static_cast<long long>(metrics->partitions_recovered));
      std::printf("  recovery       : %lld rows recomputed, %lld spool "
                  "re-reads, %lld bytes moved\n",
                  static_cast<long long>(metrics->rows_recomputed),
                  static_cast<long long>(metrics->recovery_spool_hits),
                  static_cast<long long>(metrics->recovery_bytes_moved));
      std::printf("  makespan       : %lld simulated ticks\n",
                  static_cast<long long>(metrics->sim_makespan_ticks));
    }
    for (const auto& [path, rows] : metrics->outputs) {
      std::printf("  %-14s : %zu rows\n", path.c_str(), rows.size());
    }
  }
  return 0;
}

}  // namespace scx

int main(int argc, char** argv) { return scx::Main(argc, argv); }
