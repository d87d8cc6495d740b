// Cross-query CSE payoff: batched submission vs running each script alone.
//
// Grid: batch size K in {2, 8, 32} x library overlap in {0%, 30%, 70%}.
// Each cell generates one deterministic batch (testing/script_gen.h's
// GenerateScriptBatch) whose "library" modules are textually identical in
// ceil(K * overlap) member scripts, then runs it two ways:
//   * sequential — a fresh Engine per cell, each script compiled, optimized
//     in CSE mode and executed on its own, costs and data movement summed;
//   * batched — one Engine::SubmitBatch over the same scripts, so the
//     fingerprint merge unifies the library sub-DAGs across scripts and the
//     shared spools amortize over every consumer in the batch.
//
// "Bytes moved" is bytes_extracted + bytes_shuffled + bytes_spooled — the
// run's total data movement. The batched arm must never move more than the
// sequential arm (the batch-vs-sequential oracle's theorem, given the
// generator's >= 2 in-script consumers per library module), and per-script
// outputs must match running alone up to row order within unordered sinks
// (merged optimization may legally pick different exchange shapes). Either
// violation exits 1, so this doubles as a correctness gate.
//
// Writes BENCH_multiquery.json (rates keyed *_rows_per_sec for
// tools/bench_diff.py; the --batched-vs-sequential gate checks bytes,
// output identity, and the cost ratio at high overlap).

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

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t BytesMoved(const ExecMetrics& m) {
  return m.bytes_extracted + m.bytes_shuffled + m.bytes_spooled;
}

// Row order within unordered sinks is plan-dependent (sharing changes
// exchange shapes), so script outputs are compared row-sorted per path.
std::map<std::string, std::vector<Row>> Canonical(
    const std::map<std::string, std::vector<Row>>& outputs) {
  std::map<std::string, std::vector<Row>> canon = outputs;
  for (auto& [path, rows] : canon) std::sort(rows.begin(), rows.end());
  return canon;
}

struct ArmResult {
  double seconds = 0;
  double cost = 0;
  int64_t rows_extracted = 0;
  int64_t bytes_moved = 0;
  int64_t spool_executions = 0;
  int64_t cross_query_spool_hits = 0;

  double rows_per_sec() const {
    return seconds > 0 ? static_cast<double>(rows_extracted) / seconds : 0;
  }
};

struct CellRow {
  std::string name;
  int k = 0;
  double overlap = 0;
  ArmResult seq;
  ArmResult batch;
  bool outputs_identical = false;

  double cost_ratio() const {
    return batch.cost > 0 ? seq.cost / batch.cost : 0;
  }
};

OptimizerConfig BenchConfig() {
  OptimizerConfig config;
  // One worker, no optimization budget: every run of a cell is
  // deterministic, so the identity check is exact, not statistical.
  config.cluster.exec_threads = 1;
  config.budget_seconds = 1e9;
  return config;
}

bool RunCell(int k, double overlap, uint64_t seed, std::vector<CellRow>* out) {
  BatchGenOptions gen;
  gen.min_scripts = k;
  gen.max_scripts = k;
  gen.overlap = overlap;
  // Big library inputs, small private ones: the shared work dominates, so
  // the cell measures the sharing machinery rather than generator noise.
  gen.library_rows = 20000;
  gen.min_rows = 400;
  gen.max_rows = 1200;
  GeneratedBatch batch = GenerateScriptBatch(seed, gen);

  CellRow row;
  row.k = k;
  row.overlap = overlap;
  row.name = "k" + std::to_string(k) + "_o" +
             std::to_string(static_cast<int>(overlap * 100));

  // Sequential arm: each script alone, nothing shared between them.
  std::vector<std::map<std::string, std::vector<Row>>> seq_outputs;
  {
    Engine engine(batch.catalog, BenchConfig());
    auto t0 = Clock::now();
    for (const std::string& script : batch.scripts) {
      auto compiled = engine.Compile(script);
      if (!compiled.ok()) {
        std::fprintf(stderr, "%s: sequential compile: %s\n",
                     row.name.c_str(),
                     compiled.status().ToString().c_str());
        return false;
      }
      auto optimized = engine.Optimize(*compiled, OptimizerMode::kCse);
      if (!optimized.ok()) {
        std::fprintf(stderr, "%s: sequential optimize: %s\n",
                     row.name.c_str(),
                     optimized.status().ToString().c_str());
        return false;
      }
      auto metrics = engine.Execute(*optimized);
      if (!metrics.ok()) {
        std::fprintf(stderr, "%s: sequential execute: %s\n",
                     row.name.c_str(), metrics.status().ToString().c_str());
        return false;
      }
      row.seq.cost += optimized->cost();
      row.seq.rows_extracted += metrics->rows_extracted;
      row.seq.bytes_moved += BytesMoved(*metrics);
      row.seq.spool_executions += metrics->spool_executions;
      seq_outputs.push_back(Canonical(metrics->outputs));
    }
    row.seq.seconds = SecondsSince(t0);
  }

  // Batched arm: one merged submission on a fresh engine (empty cross-query
  // cache, same as the sequential arm's starting state).
  {
    Engine engine(batch.catalog, BenchConfig());
    auto t0 = Clock::now();
    auto merged = engine.SubmitBatch(batch.scripts);
    if (!merged.ok()) {
      std::fprintf(stderr, "%s: batched submit: %s\n", row.name.c_str(),
                   merged.status().ToString().c_str());
      return false;
    }
    row.batch.seconds = SecondsSince(t0);
    row.batch.cost = merged->optimized.cost();
    row.batch.rows_extracted = merged->metrics.rows_extracted;
    row.batch.bytes_moved = BytesMoved(merged->metrics);
    row.batch.spool_executions = merged->metrics.spool_executions;
    row.batch.cross_query_spool_hits =
        merged->metrics.cross_query_spool_hits;

    row.outputs_identical =
        merged->script_outputs.size() == seq_outputs.size();
    for (size_t i = 0; row.outputs_identical && i < seq_outputs.size(); ++i) {
      if (Canonical(merged->script_outputs[i]) != seq_outputs[i]) {
        row.outputs_identical = false;
      }
    }
  }

  bool ok = row.outputs_identical &&
            row.batch.bytes_moved <= row.seq.bytes_moved;
  std::printf("%-8s %2d scripts  seq %10.0f cost %9lld B  batch %10.0f "
              "cost %9lld B  ratio %5.2fx  %s%s\n",
              row.name.c_str(), row.k, row.seq.cost,
              static_cast<long long>(row.seq.bytes_moved), row.batch.cost,
              static_cast<long long>(row.batch.bytes_moved),
              row.cost_ratio(),
              row.outputs_identical ? "identical" : "DIVERGED",
              row.batch.bytes_moved <= row.seq.bytes_moved
                  ? ""
                  : "  MORE-BYTES");
  out->push_back(std::move(row));
  return ok;
}

void WriteArmJson(FILE* f, const char* key, const ArmResult& a) {
  std::fprintf(f,
               "     \"%s\": {\"seconds\": %.6f, \"cost\": %.0f, "
               "\"rows_per_sec\": %.1f, \"rows_extracted\": %lld, "
               "\"bytes_moved\": %lld, \"spool_executions\": %lld, "
               "\"cross_query_spool_hits\": %lld}",
               key, a.seconds, a.cost, a.rows_per_sec(),
               static_cast<long long>(a.rows_extracted),
               static_cast<long long>(a.bytes_moved),
               static_cast<long long>(a.spool_executions),
               static_cast<long long>(a.cross_query_spool_hits));
}

void WriteJson(const std::vector<CellRow>& cells) {
  FILE* f = std::fopen("BENCH_multiquery.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_multiquery.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"multi_query\",\n  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellRow& r = cells[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"k\": %d, \"overlap\": %.2f,\n",
                 r.name.c_str(), r.k, r.overlap);
    WriteArmJson(f, "sequential", r.seq);
    std::fprintf(f, ",\n");
    WriteArmJson(f, "batched", r.batch);
    std::fprintf(f,
                 ",\n     \"cost_ratio\": %.3f, \"outputs_identical\": "
                 "%s}%s\n",
                 r.cost_ratio(), r.outputs_identical ? "true" : "false",
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_multiquery.json\n");
}

}  // namespace

int main() {
  std::printf("multi-query batching: sequential per-script runs vs one "
              "merged SubmitBatch\n");
  const int ks[] = {2, 8, 32};
  const double overlaps[] = {0.0, 0.3, 0.7};
  std::vector<CellRow> cells;
  bool ok = true;
  uint64_t seed = 11;
  for (int k : ks) {
    for (double overlap : overlaps) {
      ok = RunCell(k, overlap, seed++, &cells) && ok;
    }
  }
  WriteJson(cells);
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a batched run diverged from its sequential runs or "
                 "moved more bytes\n");
    return 1;
  }
  return 0;
}
