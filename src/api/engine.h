#ifndef SCX_API_ENGINE_H_
#define SCX_API_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/spool_cache.h"
#include "plan/binder.h"

namespace scx {

/// A parsed and bound script, ready to be optimized any number of times.
struct CompiledScript {
  std::string source;
  BoundScript bound;
};

/// A batch of scripts parsed and bound into one merged multi-root DAG (see
/// BoundBatch): all scripts share one column-id space and one memo, which is
/// what lets the optimizer's fingerprint merge unify structurally equal
/// sub-DAGs across script boundaries.
struct CompiledBatch {
  std::vector<std::string> sources;
  BoundBatch bound;

  size_t num_scripts() const { return sources.size(); }
};

/// The result of one optimization run: the chosen plan, its cost under the
/// mode's accounting, diagnostics, and the optimizer kept alive for
/// introspection (memo, shared-group info, property histories).
struct OptimizedScript {
  OptimizerMode mode = OptimizerMode::kConventional;
  OptimizeResult result;
  std::shared_ptr<Optimizer> optimizer;

  const PhysicalNodePtr& plan() const { return result.plan; }
  double cost() const { return result.cost; }
  std::string Explain() const { return PrintPhysicalPlan(result.plan); }
};

/// One batched execution: the merged plan, the merged run's metrics (sinks
/// keyed by provenance-tagged paths), and each script's outputs demultiplexed
/// back under its original paths — bit-identical to running that script
/// alone.
struct BatchExecution {
  OptimizedScript optimized;
  ExecMetrics metrics;
  /// Per script, in submission order: original output path -> rows.
  std::vector<std::map<std::string, std::vector<Row>>> script_outputs;
};

/// Top-level library entry point: compile a SCOPE-dialect script against a
/// catalog, optimize it conventionally or with the common-subexpression
/// framework, and execute the plan on the simulated cluster.
///
/// Typical use:
///   Engine engine(catalog);
///   auto compiled  = engine.Compile(script).ValueOrDie();
///   auto cse       = engine.Optimize(compiled, OptimizerMode::kCse)
///                        .ValueOrDie();
///   auto metrics   = engine.Execute(cse).ValueOrDie();
class Engine {
 public:
  explicit Engine(Catalog catalog, OptimizerConfig config = {})
      : catalog_(std::move(catalog)), config_(std::move(config)) {}

  /// Parses and binds `source`.
  Result<CompiledScript> Compile(const std::string& source) const;

  /// Builds a fresh memo from the compiled script and runs the optimizer in
  /// the requested mode. InvalidArgument when config().cluster has fewer
  /// than one machine (as from every entry point that optimizes or
  /// executes).
  Result<OptimizedScript> Optimize(const CompiledScript& script,
                                   OptimizerMode mode) const;

  /// Executes the chosen plan on the simulated cluster. Never touches the
  /// cross-query spool cache: single-script submissions through this path
  /// are bit-identical to an engine that has executed nothing before.
  Result<ExecMetrics> Execute(const OptimizedScript& optimized) const;

  // --- Cross-query batching (docs/architecture.md §16) ---

  /// Parses and binds a batch of concurrently submitted scripts into one
  /// merged multi-root DAG with per-script output provenance.
  Result<CompiledBatch> CompileBatch(
      const std::vector<std::string>& sources) const;

  /// Optimizes the merged DAG as one plan: every script root hangs under a
  /// shared Sequence, so Algorithm 1's fingerprint merge unifies equal
  /// sub-DAGs from different scripts into one group and the spool cost
  /// trade-off counts consumers across script boundaries.
  Result<OptimizedScript> OptimizeBatch(const CompiledBatch& batch,
                                        OptimizerMode mode) const;

  /// Optimizes and executes the merged DAG, serving/filling the engine's
  /// persistent cross-query spool cache, and demultiplexes the sinks back
  /// into per-script outputs.
  Result<BatchExecution> ExecuteBatch(const CompiledBatch& batch,
                                      OptimizerMode mode = OptimizerMode::kCse);

  /// The batching front door: compile + optimize + execute a set of
  /// concurrently arriving scripts as one merged run.
  Result<BatchExecution> SubmitBatch(const std::vector<std::string>& sources,
                                     OptimizerMode mode = OptimizerMode::kCse);

  /// The engine's persistent cross-query spool cache (created on first use
  /// with the ClusterConfig::spool_cache_bytes budget). Entries are keyed by
  /// canonical sub-DAG serialization + catalog version, so they survive
  /// across SubmitBatch calls but never across a catalog change.
  CrossQuerySpoolCache& spool_cache();

  /// Convenience: compile + optimize in both modes, for cost comparisons.
  struct Comparison {
    CompiledScript compiled;
    OptimizedScript conventional;
    OptimizedScript cse;
    /// cse cost / conventional cost (paper Fig. 7 reports ~0.43–0.79).
    double cost_ratio = 1.0;
  };
  Result<Comparison> Compare(const std::string& source) const;

  const Catalog& catalog() const { return catalog_; }
  const OptimizerConfig& config() const { return config_; }
  OptimizerConfig* mutable_config() { return &config_; }

 private:
  /// Shared implementation of Optimize/OptimizeBatch. `script_roots` (empty
  /// for single scripts) locates each script's root group in the merged
  /// memo for the cross-script diagnostics.
  Result<OptimizedScript> OptimizeBound(
      const BoundScript& bound, OptimizerMode mode,
      const std::vector<LogicalNodePtr>& script_roots) const;

  Catalog catalog_;
  OptimizerConfig config_;
  /// shared_ptr keeps Engine copyable; copies share the cache, matching the
  /// "one engine front door per cluster" reading of a copy.
  std::shared_ptr<CrossQuerySpoolCache> cross_cache_;
};

}  // namespace scx

#endif  // SCX_API_ENGINE_H_
