#ifndef SCX_TESTING_DIFF_HARNESS_H_
#define SCX_TESTING_DIFF_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "cost/cost_model.h"

namespace scx {

/// Options for one differential-testing run.
struct HarnessOptions {
  int machines = 8;
  /// Executor thread count (ClusterConfig::exec_threads) of the parallel
  /// arm of the execution-determinism oracles (the serial arm is always 1).
  int threads = 4;
  /// Slack for the cost oracle: cse_cost <= conv_cost * (1 + cost_slack).
  double cost_slack = 1e-4;
  bool minimize = true;
  /// When nonempty, failing (minimized) repros are written here as corpus
  /// files named seed<seed>_<oracle>.scx.
  std::string corpus_dir;
  /// When Enabled(), the fault-oracle family (8 and 9) also runs: faulted
  /// executions of the CSE plan must be bit-identical to the clean runs in
  /// outputs and every legacy counter, at any thread/batch/morsel knobs
  /// ("fault-identity" / "fault-determinism"), and recovery served by
  /// surviving spools must never move more bytes than pure recomputation
  /// ("recovery-cost"). Oracles 1-7 always run clean.
  FaultPlan fault_plan;
};

/// Result of checking one script against the oracles. `oracle` is one of
/// the failure tags below; empty when everything passed.
///
/// The paper-level invariants map onto the tags as:
///   (1) equivalence    -> "outputs"
///   (2) cost claim     -> "cost"
///   (3) determinism    -> "exec-determinism"
///   (4) plan hygiene   -> "validate" / "roundtrip"
///   (5) batch identity -> "batch-identity" (the vectorized executor must
///       be bit-identical — raw rows and legacy counters — to the
///       batch_size=1 row-at-a-time path)
/// plus pipeline failures "compile" / "optimize" / "execute" (a generated
/// script must never fail to compile, optimize, or run).
struct OracleReport {
  bool ok = true;
  std::string oracle;
  std::string detail;
  uint64_t seed = 0;
  std::string script;            ///< the script as checked
  std::string minimized_script;  ///< filled when minimization ran
  std::string corpus_path;       ///< repro file written, when corpus_dir set
};

/// Differential-testing oracle harness (the scxcheck core). For one
/// (catalog, script) case it checks:
///   1. kConventional and kCse plans execute to identical canonical outputs;
///   2. estimated cost of the CSE plan <= conventional (paper Fig. 6/7);
///   3. serial and multi-threaded execution of the CSE plan are
///      bit-identical (same ExecMetrics counters and raw output rows);
///   4. both plans pass ValidatePlan and their JSON serialization survives a
///      parse -> serialize round-trip byte for byte;
///   5. columnar-batch execution (the default) is bit-identical to the
///      batch_size=1 legacy row path: same raw output rows and same legacy
///      counters (batch-only counters — batches_evaluated, exprs_deduped,
///      rows_converted, batch_pipeline_breaks — are excluded from this
///      oracle: they count batch-pipeline work and are 0 by definition on
///      the row path; the determinism oracle still compares them between
///      same-batch-size runs).
/// On failure it greedily minimizes the script (drop outputs -> drop
/// operators -> shrink WHERE/ORDER BY/GROUP BY clauses), re-checking the
/// failing oracle at every step, and optionally writes the shrunken repro
/// (with its seed and catalog) to a corpus directory.
class DiffHarness {
 public:
  explicit DiffHarness(HarnessOptions options = {}) : opts_(options) {}

  /// Runs all oracles on `script`; minimizes and records on failure.
  OracleReport Check(const Catalog& catalog, const std::string& script,
                     uint64_t seed = 0) const;

  /// Oracle 7, "batch-vs-sequential": submitting `scripts` through
  /// Engine::SubmitBatch as one merged run must (a) produce per-script raw
  /// outputs bit-identical to executing each script alone in kCse mode, (b)
  /// move no more bytes (shuffled + spooled) than the sequential runs
  /// combined, (c) stay bit-identical under thread-count and batch/morsel
  /// knob changes, and (d) reproduce identical outputs on resubmission
  /// through the warmed cross-query spool cache. Failures are reproducible
  /// from the seed alone (no multi-script minimizer / corpus writer).
  OracleReport CheckBatch(const Catalog& catalog,
                          const std::vector<std::string>& scripts,
                          uint64_t seed = 0) const;

  /// Minimizes `script` so that it still fails `oracle` (used by Check;
  /// exposed for replaying corpus entries and for tests).
  std::string Minimize(const Catalog& catalog, const std::string& script,
                       const std::string& oracle) const;

  const HarnessOptions& options() const { return opts_; }

 private:
  struct Failure {
    std::string oracle;
    std::string detail;
  };

  /// Runs the oracle battery; nullopt when all pass.
  std::optional<Failure> RunOracles(const Catalog& catalog,
                                    const std::string& script) const;

  HarnessOptions opts_;
};

/// One corpus repro: everything needed to replay a failure from the ctest
/// log or a checked-in file alone.
struct CorpusCase {
  uint64_t seed = 0;
  std::string oracle;  ///< empty for pass-regression entries
  int machines = 8;
  /// Replayed into HarnessOptions::threads (executor threads).
  int threads = 4;
  /// Replayed into HarnessOptions::fault_plan; default-constructed (and the
  /// `# fault:` line absent) for clean repros.
  FaultPlan fault_plan;
  Catalog catalog;
  std::string script;
};

/// Serializes a corpus case:
///   # scxcheck repro
///   # seed: <n>
///   # oracle: <tag>
///   # machines: <n> threads: <n>
///   # fault: seed=<n> prob=<p> max=<n> straggler=<p>x<f> [norecovery]
///            [events=<pass>@<machine>,...]        (only when fault-armed)
///   file <path> rows=<n> seed=<n> <col>:<ndv> ...
///   ---
///   <script>
std::string CorpusCaseToText(const CorpusCase& c);
Result<CorpusCase> ParseCorpusText(const std::string& text);

/// Sorted *.scx paths under `dir` (empty when the directory is missing).
std::vector<std::string> ListCorpusFiles(const std::string& dir);

/// Reads and parses one corpus file.
Result<CorpusCase> LoadCorpusFile(const std::string& path);

}  // namespace scx

#endif  // SCX_TESTING_DIFF_HARNESS_H_
