#include "testing/diff_harness.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/engine.h"
#include "exec/executor.h"
#include "opt/plan_json.h"
#include "opt/plan_validator.h"
#include "testing/catalog_text.h"
#include "testing/json_lite.h"
#include "testing/reference_eval.h"

namespace scx {

namespace {

Result<ExecMetrics> RunPlan(const PhysicalNodePtr& plan, int machines,
                            int exec_threads,
                            const FaultPlan* fault = nullptr) {
  ClusterConfig cluster;
  cluster.machines = machines;
  cluster.exec_threads = exec_threads;
  if (fault != nullptr) cluster.fault_plan = *fault;
  Executor executor(cluster);
  return executor.Execute(plan);
}

/// Bitwise comparison of two raw output sets: the same paths, and per path
/// the same rows in the same order, cell for cell of the same type, doubles
/// by their bits (so a NaN matches the NaN with the same bits).
bool SameRawOutputs(const std::map<std::string, std::vector<Row>>& a,
                    const std::map<std::string, std::vector<Row>>& b) {
  auto same_cell = [](const Value& x, const Value& y) {
    if (x.type() != y.type()) return false;
    if (!x.is_double()) return x == y;
    return std::bit_cast<uint64_t>(x.as_double()) ==
           std::bit_cast<uint64_t>(y.as_double());
  };
  auto same_row = [&](const Row& x, const Row& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), same_cell);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             std::equal(x.second.begin(), x.second.end(),
                                        y.second.begin(), y.second.end(),
                                        same_row);
                    });
}

/// Per-script raw outputs of two merged runs, compared with SameRawOutputs.
bool SameRawScriptOutputs(
    const std::vector<std::map<std::string, std::vector<Row>>>& a,
    const std::vector<std::map<std::string, std::vector<Row>>>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), SameRawOutputs);
}

/// Full bitwise comparison of two executions (counters AND raw rows — the
/// determinism contract of docs/architecture.md §12/§15). The fault
/// counters are compared only when both runs used the same FaultPlan
/// (`same_fault_plan`): a clean run injects and recovers nothing.
bool MetricsEqual(const ExecMetrics& a, const ExecMetrics& b,
                  bool same_fault_plan, std::string* why) {
#define SCX_CMP(field)                                                  \
  if (a.field != b.field) {                                             \
    *why = #field ": " + std::to_string(a.field) + " vs " +             \
           std::to_string(b.field);                                     \
    return false;                                                       \
  }
  SCX_CMP(rows_extracted)
  SCX_CMP(bytes_extracted)
  SCX_CMP(rows_shuffled)
  SCX_CMP(bytes_shuffled)
  SCX_CMP(bytes_spooled)
  SCX_CMP(rows_spooled)
  SCX_CMP(spool_executions)
  SCX_CMP(spool_reads)
  SCX_CMP(spool_cache_hits)
  SCX_CMP(spool_bytes_evicted)
  SCX_CMP(operator_invocations)
  SCX_CMP(rows_output)
  SCX_CMP(cross_query_spool_hits)
  SCX_CMP(batches_evaluated)
  SCX_CMP(exprs_deduped)
  SCX_CMP(morsels_evaluated)
  if (same_fault_plan) {
    SCX_CMP(machine_failures_injected)
    SCX_CMP(partitions_recovered)
    SCX_CMP(rows_recomputed)
    SCX_CMP(recovery_spool_hits)
    SCX_CMP(recovery_bytes_moved)
    SCX_CMP(sim_makespan_ticks)
  }
#undef SCX_CMP
  if (!SameRawOutputs(a.outputs, b.outputs)) {
    *why = "raw output rows differ";
    return false;
  }
  return true;
}

/// Short human description of how two canonicalized output sets differ
/// (`expected` from the reference evaluator, `got` from a plan).
std::string DescribeOutputDiff(const ExecMetrics& expected,
                               const ExecMetrics& got) {
  auto a = CanonicalOutputs(expected);
  auto b = CanonicalOutputs(got);
  for (const auto& [path, rows] : a) {
    auto it = b.find(path);
    if (it == b.end()) return "path " + path + " missing from plan outputs";
    if (rows.size() != it->second.size()) {
      return "path " + path + ": reference " + std::to_string(rows.size()) +
             " rows, plan " + std::to_string(it->second.size());
    }
    for (size_t i = 0; i < rows.size(); ++i) {
      if (CanonicalCompare(rows[i], it->second[i]) != 0) {
        return "path " + path + ": first canonical divergence at row " +
               std::to_string(i);
      }
    }
  }
  for (const auto& [path, rows] : b) {
    if (a.find(path) == a.end()) {
      return "path " + path + " missing from reference outputs";
    }
  }
  return "outputs differ";
}

/// Oracle 4b: the plan's JSON serialization must parse, survive a
/// parse -> serialize round-trip byte for byte, and describe the same DAG
/// (node count, root, in-range child references).
Status CheckJsonRoundTrip(const PhysicalNodePtr& plan) {
  std::string json = PlanToJson(plan);
  auto parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  std::string again = SerializeJson(*parsed);
  if (again != json) {
    return Status::Internal("plan JSON not round-trip stable");
  }
  const JsonValue* nodes = parsed->Find("nodes");
  const JsonValue* root = parsed->Find("root");
  if (nodes == nullptr || nodes->kind != JsonValue::Kind::kArray ||
      root == nullptr) {
    return Status::Internal("plan JSON missing root/nodes");
  }
  int expect = CountDagNodes(plan);
  if (static_cast<int>(nodes->array.size()) != expect) {
    return Status::Internal(
        "plan JSON has " + std::to_string(nodes->array.size()) +
        " nodes, plan DAG has " + std::to_string(expect));
  }
  int n = static_cast<int>(nodes->array.size());
  for (const JsonValue& node : nodes->array) {
    const JsonValue* children = node.Find("children");
    if (children == nullptr || children->kind != JsonValue::Kind::kArray) {
      return Status::Internal("plan JSON node without children array");
    }
    for (const JsonValue& c : children->array) {
      int id = static_cast<int>(c.AsNumber());
      if (id < 0 || id >= n) {
        return Status::Internal("plan JSON child id out of range: " +
                                std::to_string(id));
      }
    }
  }
  return Status::OK();
}

/// Splits a script into trimmed single-statement lines ("<stmt>;").
std::vector<std::string> SplitStatements(const std::string& script) {
  std::vector<std::string> out;
  std::string current;
  for (char c : script) {
    current.push_back(c);
    if (c == ';') {
      size_t b = current.find_first_not_of(" \t\n\r");
      size_t e = current.find_last_not_of(" \t\n\r");
      if (b != std::string::npos) {
        out.push_back(current.substr(b, e - b + 1));
      }
      current.clear();
    }
  }
  return out;
}

std::string JoinStatements(const std::vector<std::string>& stmts) {
  std::string out;
  for (const std::string& s : stmts) out += s + "\n";
  return out;
}

/// Splits `list` ("A,B,Sum(C) AS S") on top-level commas.
std::vector<std::string> SplitTopLevel(const std::string& list) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  for (char c : list) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// True iff select item `item` is the bare (possibly qualified) column
/// `key` with no aggregate call and no alias.
bool ItemIsKey(const std::string& item, const std::string& key) {
  std::string t = Trim(item);
  if (t.find('(') != std::string::npos) return false;
  if (t == key) return true;
  size_t dot = t.rfind('.');
  return dot != std::string::npos && t.substr(dot + 1) == key;
}

/// Removes one grouping key from a statement: from the GROUP BY list, the
/// ORDER BY list (when present), and the matching bare select item. Returns
/// empty when the rewrite does not apply.
std::string RemoveGroupKey(const std::string& stmt, const std::string& key) {
  size_t gb = stmt.find(" GROUP BY ");
  if (gb == std::string::npos) return "";
  size_t gb_start = gb + 10;
  size_t gb_end = stmt.find(" ORDER BY ", gb_start);
  size_t tail = gb_end == std::string::npos ? stmt.find(';', gb_start)
                                            : gb_end;
  if (tail == std::string::npos) return "";
  std::vector<std::string> keys =
      SplitTopLevel(stmt.substr(gb_start, tail - gb_start));
  if (keys.size() < 2) return "";  // never drop the last key
  std::vector<std::string> kept;
  for (const std::string& k : keys) {
    if (Trim(k) != key) kept.push_back(Trim(k));
  }
  if (kept.size() != keys.size() - 1) return "";

  // Rebuild the select list without the bare `key` item.
  size_t sel = stmt.find("SELECT ");
  size_t from = stmt.find(" FROM ");
  if (sel == std::string::npos || from == std::string::npos || from < sel) {
    return "";
  }
  size_t sel_start = sel + 7;
  std::vector<std::string> items =
      SplitTopLevel(stmt.substr(sel_start, from - sel_start));
  std::vector<std::string> kept_items;
  bool dropped = false;
  for (const std::string& item : items) {
    if (!dropped && ItemIsKey(item, key)) {
      dropped = true;
      continue;
    }
    kept_items.push_back(Trim(item));
  }
  if (kept_items.empty()) return "";

  std::string out = stmt.substr(0, sel_start);
  for (size_t i = 0; i < kept_items.size(); ++i) {
    if (i > 0) out += ",";
    out += kept_items[i];
  }
  out += stmt.substr(from, gb_start - from);
  for (size_t i = 0; i < kept.size(); ++i) {
    if (i > 0) out += ",";
    out += kept[i];
  }
  if (gb_end != std::string::npos) {
    // Shrink the ORDER BY list too; drop the clause when it empties.
    size_t ob_start = gb_end + 10;
    size_t semi = stmt.find(';', ob_start);
    std::vector<std::string> order =
        SplitTopLevel(stmt.substr(ob_start, semi - ob_start));
    std::vector<std::string> kept_order;
    for (const std::string& o : order) {
      if (Trim(o) != key) kept_order.push_back(Trim(o));
    }
    if (!kept_order.empty()) {
      out += " ORDER BY ";
      for (size_t i = 0; i < kept_order.size(); ++i) {
        if (i > 0) out += ",";
        out += kept_order[i];
      }
    }
  }
  out += ";";
  return out;
}

/// Candidate one-statement simplifications, cheapest first.
std::vector<std::string> ShrinkStatement(const std::string& stmt) {
  std::vector<std::string> out;
  // Drop ORDER BY.
  size_t ob = stmt.find(" ORDER BY ");
  if (ob != std::string::npos) {
    out.push_back(stmt.substr(0, ob) + ";");
  }
  // Drop WHERE (joins will fail to rebind and be rejected by the caller).
  size_t wh = stmt.find(" WHERE ");
  if (wh != std::string::npos) {
    size_t end = stmt.find(" GROUP BY ", wh);
    if (end == std::string::npos) end = stmt.find(" ORDER BY ", wh);
    if (end == std::string::npos) end = stmt.find(';', wh);
    out.push_back(stmt.substr(0, wh) + stmt.substr(end));
  }
  // Shrink GROUP BY key sets one key at a time.
  size_t gb = stmt.find(" GROUP BY ");
  if (gb != std::string::npos) {
    size_t gb_start = gb + 10;
    size_t end = stmt.find(" ORDER BY ", gb_start);
    if (end == std::string::npos) end = stmt.find(';', gb_start);
    for (const std::string& key :
         SplitTopLevel(stmt.substr(gb_start, end - gb_start))) {
      std::string candidate = RemoveGroupKey(stmt, Trim(key));
      if (!candidate.empty()) out.push_back(candidate);
    }
  }
  return out;
}

/// Catalog restricted to the files the script actually references.
Catalog PruneCatalog(const Catalog& catalog, const std::string& script) {
  Catalog pruned;
  bool any = false;
  for (const auto& [path, def] : catalog.files()) {
    if (script.find("\"" + path + "\"") != std::string::npos) {
      Status s = pruned.RegisterFile(def);
      (void)s;
      any = true;
    }
  }
  return any ? pruned : catalog;
}

}  // namespace

std::optional<DiffHarness::Failure> DiffHarness::RunOracles(
    const Catalog& catalog, const std::string& script) const {
  OptimizerConfig cfg;
  cfg.cluster.machines = opts_.machines;
  cfg.cluster.exec_threads = 1;
  // The wall-clock phase-2 budget is the optimizer's one deliberate
  // nondeterminism (docs/architecture.md §10): where enumeration stops
  // depends on machine speed. The oracles test logic, not the budget
  // heuristic, so lift it far out of reach — otherwise a slow environment
  // (tsan is ~15x) turns budget expiry into spurious determinism and cost
  // failures.
  cfg.budget_seconds = 1e9;
  Engine engine(catalog, cfg);

  auto compiled = engine.Compile(script);
  if (!compiled.ok()) {
    return Failure{"compile", compiled.status().ToString()};
  }
  auto conv = engine.Optimize(*compiled, OptimizerMode::kConventional);
  if (!conv.ok()) {
    return Failure{"optimize", "conventional: " + conv.status().ToString()};
  }
  auto cse = engine.Optimize(*compiled, OptimizerMode::kCse);
  if (!cse.ok()) {
    return Failure{"optimize", "cse: " + cse.status().ToString()};
  }

  // Oracle 4: structural validity and JSON round-trip of both plans.
  for (const auto* opt : {&*conv, &*cse}) {
    const char* mode =
        opt->mode == OptimizerMode::kConventional ? "conventional" : "cse";
    Status valid = ValidatePlan(opt->plan());
    if (!valid.ok()) {
      return Failure{"validate",
                     std::string(mode) + ": " + valid.ToString()};
    }
    Status json = CheckJsonRoundTrip(opt->plan());
    if (!json.ok()) {
      return Failure{"roundtrip",
                     std::string(mode) + ": " + json.ToString()};
    }
  }

  // Oracle 2: the paper's cost claim — sharing never costs more.
  if (cse->cost() > conv->cost() * (1.0 + opts_.cost_slack)) {
    return Failure{"cost", "cse cost " + std::to_string(cse->cost()) +
                               " exceeds conventional cost " +
                               std::to_string(conv->cost())};
  }

  // Oracle 1, "reference": both plans execute to exactly the canonical
  // outputs of the single-machine reference evaluation of the bound logical
  // DAG (which shares no partitions, exchanges, spools or physical
  // properties with either plan), and every ORDER BY output arrives in
  // order. Implies conventional == cse.
  auto reference = EvaluateReference(compiled->bound.root);
  if (!reference.ok()) {
    return Failure{"execute", "reference: " + reference.status().ToString()};
  }
  ExecMetrics ref_run;
  ref_run.outputs = std::move(*reference);
  auto conv_run = RunPlan(conv->plan(), opts_.machines, /*exec_threads=*/1);
  if (!conv_run.ok()) {
    return Failure{"execute",
                   "conventional: " + conv_run.status().ToString()};
  }
  auto cse_run = RunPlan(cse->plan(), opts_.machines, /*exec_threads=*/1);
  if (!cse_run.ok()) {
    return Failure{"execute", "cse: " + cse_run.status().ToString()};
  }
  for (const auto& [mode, run] :
       {std::pair{"conventional", &*conv_run}, std::pair{"cse", &*cse_run}}) {
    if (!SameOutputs(ref_run, *run)) {
      return Failure{"reference", std::string(mode) + " plan vs reference: " +
                                      DescribeOutputDiff(ref_run, *run)};
    }
    Status order = CheckOutputOrder(compiled->bound.root, run->outputs);
    if (!order.ok()) {
      return Failure{"reference",
                     std::string(mode) + " plan: " + order.ToString()};
    }
  }

  // Oracle 3b: parallel execution is bit-identical to serial.
  if (opts_.threads > 1) {
    auto cse_par_run = RunPlan(cse->plan(), opts_.machines, opts_.threads);
    if (!cse_par_run.ok()) {
      return Failure{"execute",
                     "cse parallel: " + cse_par_run.status().ToString()};
    }
    std::string why;
    if (!MetricsEqual(*cse_run, *cse_par_run, /*same_fault_plan=*/true,
                      &why)) {
      return Failure{"exec-determinism",
                     std::to_string(opts_.threads) +
                         "-thread execution diverged from serial: " + why};
    }
  }

  // Fault-oracle family (oracles 8-9, docs/architecture.md §17). Only runs
  // when the harness is armed with a FaultPlan; everything above ran clean.
  if (opts_.fault_plan.Enabled()) {
    const FaultPlan& fp = opts_.fault_plan;

    // Oracle 8, "fault-identity": a faulted run recovers every lost
    // partition and stays bit-identical to the clean baseline — raw output
    // rows and every legacy counter (recovery is side-effect-free; the new
    // fault counters are strictly additive).
    auto fault_run =
        RunPlan(cse->plan(), opts_.machines, /*exec_threads=*/1, &fp);
    if (!fault_run.ok()) {
      return Failure{"execute",
                     "cse faulted: " + fault_run.status().ToString()};
    }
    std::string why;
    if (!MetricsEqual(*cse_run, *fault_run, /*same_fault_plan=*/false,
                      &why)) {
      return Failure{"fault-identity",
                     "faulted run diverged from the clean run: " + why};
    }
    if (fault_run->partitions_recovered !=
        fault_run->machine_failures_injected) {
      return Failure{
          "fault-identity",
          "injected " +
              std::to_string(fault_run->machine_failures_injected) +
              " machine failures but recovered " +
              std::to_string(fault_run->partitions_recovered) +
              " partitions"};
    }

    // Oracle 8b, "fault-determinism": the faulted run itself — fault
    // counters included — is bit-identical across the thread knob.
    if (opts_.threads > 1) {
      auto fault_par =
          RunPlan(cse->plan(), opts_.machines, opts_.threads, &fp);
      if (!fault_par.ok()) {
        return Failure{"execute", "cse faulted parallel: " +
                                      fault_par.status().ToString()};
      }
      if (!MetricsEqual(*fault_run, *fault_par, /*same_fault_plan=*/true,
                        &why)) {
        return Failure{"fault-determinism",
                       std::to_string(opts_.threads) +
                           "-thread faulted execution diverged from the "
                           "serial faulted run: " + why};
      }
    }
    // Oracle 9, "recovery-cost": recovery through surviving spools must
    // never recompute more rows or move more bytes than the pure-recompute
    // strategy (the disable_recovery_spool_reads arm), while both arms stay
    // output-identical. The failure sets of the two arms are equal by
    // construction — FailsAt() ignores the recovery strategy.
    {
      FaultPlan pure = fp;
      pure.disable_recovery_spool_reads = true;
      auto pure_run =
          RunPlan(cse->plan(), opts_.machines, /*exec_threads=*/1, &pure);
      if (!pure_run.ok()) {
        return Failure{"execute", "cse faulted pure-recompute: " +
                                      pure_run.status().ToString()};
      }
      if (!MetricsEqual(*cse_run, *pure_run, /*same_fault_plan=*/false,
                        &why)) {
        return Failure{"recovery-cost",
                       "pure-recompute recovery diverged from the clean "
                       "run: " + why};
      }
      if (fault_run->rows_recomputed > pure_run->rows_recomputed ||
          fault_run->recovery_bytes_moved > pure_run->recovery_bytes_moved) {
        return Failure{
            "recovery-cost",
            "spool-assisted recovery recomputed " +
                std::to_string(fault_run->rows_recomputed) + " rows / " +
                std::to_string(fault_run->recovery_bytes_moved) +
                " bytes, pure recomputation needed " +
                std::to_string(pure_run->rows_recomputed) + " rows / " +
                std::to_string(pure_run->recovery_bytes_moved) + " bytes"};
      }
    }
  }
  return std::nullopt;
}

std::string DiffHarness::Minimize(const Catalog& catalog,
                                  const std::string& script,
                                  const std::string& oracle) const {
  auto fails_same = [&](const std::string& candidate) {
    auto failure = RunOracles(catalog, candidate);
    return failure.has_value() && failure->oracle == oracle;
  };
  if (!fails_same(script)) return script;  // not reproducible; keep as-is

  std::vector<std::string> stmts = SplitStatements(script);
  bool improved = true;
  while (improved) {
    improved = false;
    // Pass 1: drop whole statements, last first (OUTPUTs sit at the end of
    // the generated scripts, so sinks shrink before producers).
    for (size_t i = stmts.size(); i-- > 0;) {
      if (stmts.size() <= 1) break;
      std::vector<std::string> candidate;
      for (size_t k = 0; k < stmts.size(); ++k) {
        if (k != i) candidate.push_back(stmts[k]);
      }
      if (fails_same(JoinStatements(candidate))) {
        stmts = std::move(candidate);
        improved = true;
      }
    }
    // Pass 2: shrink clauses (WHERE, ORDER BY, GROUP BY keys) per statement.
    for (size_t i = 0; i < stmts.size(); ++i) {
      bool shrunk = true;
      while (shrunk) {
        shrunk = false;
        for (const std::string& candidate : ShrinkStatement(stmts[i])) {
          std::vector<std::string> trial = stmts;
          trial[i] = candidate;
          if (fails_same(JoinStatements(trial))) {
            stmts[i] = candidate;
            improved = shrunk = true;
            break;
          }
        }
      }
    }
  }
  return JoinStatements(stmts);
}

OracleReport DiffHarness::Check(const Catalog& catalog,
                                const std::string& script,
                                uint64_t seed) const {
  OracleReport report;
  report.seed = seed;
  report.script = script;
  auto failure = RunOracles(catalog, script);
  if (!failure.has_value()) return report;

  report.ok = false;
  report.oracle = failure->oracle;
  report.detail = failure->detail;
  if (opts_.minimize) {
    report.minimized_script = Minimize(catalog, script, failure->oracle);
  }
  if (!opts_.corpus_dir.empty()) {
    const std::string& repro = report.minimized_script.empty()
                                   ? script
                                   : report.minimized_script;
    CorpusCase c;
    c.seed = seed;
    c.oracle = failure->oracle;
    c.machines = opts_.machines;
    c.threads = opts_.threads;
    c.fault_plan = opts_.fault_plan;
    c.catalog = PruneCatalog(catalog, repro);
    c.script = repro;
    std::error_code ec;
    std::filesystem::create_directories(opts_.corpus_dir, ec);
    std::string path = opts_.corpus_dir + "/seed" + std::to_string(seed) +
                       "_" + failure->oracle + ".scx";
    std::ofstream out(path);
    if (out) {
      out << CorpusCaseToText(c);
      report.corpus_path = path;
    }
  }
  return report;
}

namespace {

/// Total data movement of one run: store reads + network + spool writes.
/// This is the quantity batching can only shrink — a merged sub-DAG trades
/// (K-1) repeated extractions/shuffles for one spool write of its result.
int64_t BytesMoved(const ExecMetrics& m) {
  return m.bytes_extracted + m.bytes_shuffled + m.bytes_spooled;
}

}  // namespace

OracleReport DiffHarness::CheckBatch(const Catalog& catalog,
                                     const std::vector<std::string>& scripts,
                                     uint64_t seed) const {
  OracleReport report;
  report.seed = seed;
  for (size_t i = 0; i < scripts.size(); ++i) {
    report.script +=
        "---- script " + std::to_string(i) + " ----\n" + scripts[i];
  }
  auto fail = [&](const std::string& oracle, const std::string& detail) {
    report.ok = false;
    report.oracle = oracle;
    report.detail = detail;
    return report;
  };

  OptimizerConfig cfg;
  cfg.cluster.machines = opts_.machines;
  cfg.cluster.exec_threads = 1;
  cfg.budget_seconds = 1e9;  // see RunOracles

  // Sequential arm: each script compiled, optimized (kCse), and executed
  // alone. Engine::Execute never touches the cross-query cache, so this is
  // exactly the single-script behaviour batching must reproduce.
  Engine seq_engine(catalog, cfg);
  // The merged plan may legally reorder rows within an (unordered) sink —
  // the sharing decisions change exchange shapes — so the comparison with
  // the sequential runs is canonical, like oracle 1; raw order is still
  // pinned by the knob and resubmission probes, which compare merged runs
  // to merged runs.
  std::vector<std::map<std::string, std::vector<Row>>> seq_outputs;
  int64_t seq_bytes = 0;
  for (size_t i = 0; i < scripts.size(); ++i) {
    std::string tag = "script " + std::to_string(i) + ": ";
    auto compiled = seq_engine.Compile(scripts[i]);
    if (!compiled.ok()) {
      return fail("batch-compile", tag + compiled.status().ToString());
    }
    auto cse = seq_engine.Optimize(*compiled, OptimizerMode::kCse);
    if (!cse.ok()) {
      return fail("batch-optimize", tag + cse.status().ToString());
    }
    auto run = seq_engine.Execute(*cse);
    if (!run.ok()) {
      return fail("batch-execute", tag + run.status().ToString());
    }
    seq_bytes += BytesMoved(*run);
    seq_outputs.push_back(std::move(run->outputs));
  }

  // Batched arm: one merged submission on a fresh engine (cold cache).
  Engine batch_engine(catalog, cfg);
  auto batch = batch_engine.SubmitBatch(scripts, OptimizerMode::kCse);
  if (!batch.ok()) {
    return fail("batch-execute", "merged: " + batch.status().ToString());
  }
  if (batch->script_outputs.size() != scripts.size()) {
    return fail("batch-vs-sequential",
                "merged run demultiplexed " +
                    std::to_string(batch->script_outputs.size()) +
                    " scripts, submitted " + std::to_string(scripts.size()));
  }
  for (size_t i = 0; i < scripts.size(); ++i) {
    if (!SameOutputs(batch->script_outputs[i], seq_outputs[i])) {
      return fail("batch-vs-sequential",
                  "script " + std::to_string(i) +
                      ": batched outputs differ from running it alone");
    }
  }
  int64_t batch_bytes = BytesMoved(batch->metrics);
  if (batch_bytes > seq_bytes) {
    return fail("batch-vs-sequential",
                "batched run moved " + std::to_string(batch_bytes) +
                    " bytes, sequential runs moved " +
                    std::to_string(seq_bytes));
  }

  // Determinism probe: the merged run is bit-identical (outputs and every
  // counter) at opts_.threads executor threads.
  {
    OptimizerConfig kcfg = cfg;
    kcfg.cluster.exec_threads = opts_.threads;
    Engine knob_engine(catalog, kcfg);
    auto knob = knob_engine.SubmitBatch(scripts, OptimizerMode::kCse);
    if (!knob.ok()) {
      return fail("batch-execute",
                  "merged knob run: " + knob.status().ToString());
    }
    std::string why;
    if (!MetricsEqual(batch->metrics, knob->metrics,
                      /*same_fault_plan=*/true, &why)) {
      return fail("batch-determinism",
                  "merged run diverged at threads=" +
                      std::to_string(opts_.threads) + ": " + why);
    }
    if (!SameRawScriptOutputs(knob->script_outputs, batch->script_outputs)) {
      return fail("batch-determinism",
                  "per-script outputs diverged under knob changes");
    }
  }

  // Resubmission probe: the same batch through the now-warm cross-query
  // spool cache reproduces identical outputs, and actually hits the cache
  // whenever the merged plan spools anything.
  {
    auto again = batch_engine.SubmitBatch(scripts, OptimizerMode::kCse);
    if (!again.ok()) {
      return fail("batch-execute",
                  "resubmission: " + again.status().ToString());
    }
    if (!SameRawScriptOutputs(again->script_outputs,
                              batch->script_outputs)) {
      return fail("batch-vs-sequential",
                  "resubmission through the warm cross-query cache changed "
                  "per-script outputs");
    }
    if (batch->metrics.spool_executions > 0 &&
        again->metrics.cross_query_spool_hits == 0) {
      return fail("batch-vs-sequential",
                  "resubmission missed the cross-query spool cache (" +
                      std::to_string(batch->metrics.spool_executions) +
                      " spools executed in the cold run)");
    }
  }

  // Fault probe (oracle 8 over merged runs): a machine failure in the
  // middle of a cross-query batched run — where a lost partition may be
  // recoverable from the run-local spools of the merged plan or from the
  // cross-query cache — must still demultiplex per-script outputs
  // bit-identical to the clean merged run, with identical legacy counters.
  if (opts_.fault_plan.Enabled()) {
    OptimizerConfig fcfg = cfg;
    fcfg.cluster.fault_plan = opts_.fault_plan;
    Engine fault_engine(catalog, fcfg);
    auto faulted = fault_engine.SubmitBatch(scripts, OptimizerMode::kCse);
    if (!faulted.ok()) {
      return fail("batch-execute",
                  "merged faulted run: " + faulted.status().ToString());
    }
    std::string why;
    if (!MetricsEqual(batch->metrics, faulted->metrics,
                      /*same_fault_plan=*/false, &why)) {
      return fail("fault-identity",
                  "merged faulted run diverged from the clean merged run: " +
                      why);
    }
    if (!SameRawScriptOutputs(faulted->script_outputs,
                              batch->script_outputs)) {
      return fail("fault-identity",
                  "merged faulted run changed per-script outputs");
    }
  }
  return report;
}

namespace {

/// %g keeps probabilities/factors round-trip stable without trailing zeros
/// (the harness only ever arms short decimal literals).
std::string FormatG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string CorpusCaseToText(const CorpusCase& c) {
  std::string out = "# scxcheck repro\n";
  out += "# seed: " + std::to_string(c.seed) + "\n";
  if (!c.oracle.empty()) out += "# oracle: " + c.oracle + "\n";
  out += "# machines: " + std::to_string(c.machines) +
         " threads: " + std::to_string(c.threads) + "\n";
  if (c.fault_plan.Enabled()) {
    const FaultPlan& f = c.fault_plan;
    out += "# fault: seed=" + std::to_string(f.seed) +
           " prob=" + FormatG(f.failure_prob) +
           " max=" + std::to_string(f.max_failures) + " straggler=" +
           FormatG(f.straggler_prob) + "x" + FormatG(f.straggler_factor);
    if (f.disable_recovery_spool_reads) out += " norecovery";
    if (!f.failures.empty()) {
      out += " events=";
      for (size_t i = 0; i < f.failures.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(f.failures[i].pass) + "@" +
               std::to_string(f.failures[i].machine);
      }
    }
    out += "\n";
  }
  out += CatalogToText(c.catalog);
  out += "---\n";
  out += c.script;
  if (!c.script.empty() && c.script.back() != '\n') out += "\n";
  return out;
}

Result<CorpusCase> ParseCorpusText(const std::string& text) {
  CorpusCase c;
  std::string catalog_text;
  std::istringstream lines(text);
  std::string line;
  bool in_script = false;
  while (std::getline(lines, line)) {
    if (in_script) {
      c.script += line + "\n";
      continue;
    }
    if (line == "---") {
      in_script = true;
      continue;
    }
    if (line.rfind("# seed:", 0) == 0) {
      c.seed = std::stoull(line.substr(7));
    } else if (line.rfind("# oracle:", 0) == 0) {
      size_t b = line.find_first_not_of(' ', 9);
      if (b != std::string::npos) c.oracle = line.substr(b);
    } else if (line.rfind("# machines:", 0) == 0) {
      std::istringstream words(line.substr(1));
      std::string word;
      while (words >> word) {
        if (word == "machines:") words >> c.machines;
        if (word == "threads:") words >> c.threads;
      }
    } else if (line.rfind("# fault:", 0) == 0) {
      std::istringstream words(line.substr(8));
      std::string word;
      FaultPlan& f = c.fault_plan;
      while (words >> word) {
        if (word.rfind("seed=", 0) == 0) {
          f.seed = std::stoull(word.substr(5));
        } else if (word.rfind("prob=", 0) == 0) {
          f.failure_prob = std::stod(word.substr(5));
        } else if (word.rfind("max=", 0) == 0) {
          f.max_failures = std::stoi(word.substr(4));
        } else if (word.rfind("straggler=", 0) == 0) {
          std::string spec = word.substr(10);
          size_t x = spec.find('x');
          if (x == std::string::npos) {
            return Status::ParseError("fault straggler spec '" + spec +
                                      "' needs <prob>x<factor>");
          }
          f.straggler_prob = std::stod(spec.substr(0, x));
          f.straggler_factor = std::stod(spec.substr(x + 1));
        } else if (word == "norecovery") {
          f.disable_recovery_spool_reads = true;
        } else if (word.rfind("events=", 0) == 0) {
          std::string list = word.substr(7);
          size_t pos = 0;
          while (pos < list.size()) {
            size_t comma = list.find(',', pos);
            std::string ev = list.substr(
                pos, comma == std::string::npos ? std::string::npos
                                                : comma - pos);
            size_t at = ev.find('@');
            if (at == std::string::npos) {
              return Status::ParseError("fault event '" + ev +
                                        "' needs <pass>@<machine>");
            }
            FaultEvent e;
            e.pass = std::stoll(ev.substr(0, at));
            e.machine = std::stoi(ev.substr(at + 1));
            f.failures.push_back(e);
            pos = comma == std::string::npos ? list.size() : comma + 1;
          }
        } else {
          return Status::ParseError("unknown fault field '" + word + "'");
        }
      }
    } else if (!line.empty() && line[0] != '#') {
      catalog_text += line + "\n";
    }
  }
  if (!in_script || c.script.empty()) {
    return Status::ParseError("corpus file has no '---' script section");
  }
  SCX_ASSIGN_OR_RETURN(c.catalog, ParseCatalogText(catalog_text));
  return c;
}

std::vector<std::string> ListCorpusFiles(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scx") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<CorpusCase> LoadCorpusFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open corpus file " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseCorpusText(ss.str());
}

}  // namespace scx
