#include "api/engine.h"

#include <optional>
#include <thread>
#include <utility>

#include "opt/plan_validator.h"
#include "script/parser.h"

namespace scx {

Result<CompiledScript> Engine::Compile(const std::string& source) const {
  SCX_ASSIGN_OR_RETURN(AstScript ast, ParseScript(source));
  SCX_ASSIGN_OR_RETURN(BoundScript bound, BindScript(ast, catalog_));
  CompiledScript out;
  out.source = source;
  out.bound = std::move(bound);
  return out;
}

namespace {

/// Builds a single-shot Optimizer over a fresh memo for `bound`, declaring
/// the memo groups of `script_roots` when batching.
std::shared_ptr<Optimizer> MakeOptimizer(
    const BoundScript& bound, const std::vector<LogicalNodePtr>& script_roots,
    const OptimizerConfig& config) {
  std::map<const LogicalNode*, GroupId> node_groups;
  Memo memo = Memo::FromLogicalDag(
      bound.root, script_roots.empty() ? nullptr : &node_groups);
  // Each run gets a private copy of the registry: exploration rules mint
  // columns (aggregate split), and one CompiledScript may be optimized from
  // several threads at once.
  auto columns = std::make_shared<ColumnRegistry>(*bound.columns);
  auto optimizer = std::make_shared<Optimizer>(std::move(memo),
                                               std::move(columns), config);
  if (!script_roots.empty()) {
    std::vector<GroupId> roots;
    roots.reserve(script_roots.size());
    for (const LogicalNodePtr& r : script_roots) {
      roots.push_back(node_groups.at(r.get()));
    }
    optimizer->SetScriptRoots(std::move(roots));
  }
  return optimizer;
}

}  // namespace

Result<OptimizedScript> Engine::OptimizeBound(
    const BoundScript& bound, OptimizerMode mode,
    const std::vector<LogicalNodePtr>& script_roots) const {
  // The executor rejects a cluster without machines the same way.
  if (config_.cluster.machines < 1) {
    return Status::InvalidArgument("cluster needs at least one machine, got " +
                                   std::to_string(config_.cluster.machines));
  }
  auto optimizer = MakeOptimizer(bound, script_roots, config_);
  SCX_ASSIGN_OR_RETURN(OptimizeResult result, optimizer->Run(mode));
  SCX_RETURN_IF_ERROR(ValidatePlan(result.plan));

  // The kCse search space forces every common subexpression through a
  // spool, so the no-sharing plan is not among its alternatives. A
  // cost-based optimizer must never pick sharing it estimates to be worse
  // than recomputation (degenerate case: near-empty inputs, where the
  // spool's fixed overhead exceeds the recompute saving), so compare
  // against the conventional plan and keep the cheaper of the two.
  if (mode == OptimizerMode::kCse) {
    auto conv_optimizer = MakeOptimizer(bound, script_roots, config_);
    SCX_ASSIGN_OR_RETURN(OptimizeResult conv,
                         conv_optimizer->Run(OptimizerMode::kConventional));
    if (conv.cost < result.cost) {
      SCX_RETURN_IF_ERROR(ValidatePlan(conv.plan));
      result.plan = std::move(conv.plan);
      result.cost = conv.cost;
      result.diagnostics.final_cost = conv.cost;
      result.diagnostics.fell_back_to_conventional = true;
      optimizer = std::move(conv_optimizer);
    }
  }

  OptimizedScript out;
  out.mode = mode;
  out.result = std::move(result);
  out.optimizer = std::move(optimizer);
  return out;
}

Result<OptimizedScript> Engine::Optimize(const CompiledScript& script,
                                         OptimizerMode mode) const {
  return OptimizeBound(script.bound, mode, {});
}

Result<Engine::Comparison> Engine::Compare(const std::string& source) const {
  Comparison out;
  SCX_ASSIGN_OR_RETURN(out.compiled, Compile(source));
  // The two optimizer runs are fully independent (fresh memo and registry
  // each); overlap them.
  std::optional<Result<OptimizedScript>> conv;
  std::thread conv_thread([&] {
    conv.emplace(Optimize(out.compiled, OptimizerMode::kConventional));
  });
  Result<OptimizedScript> cse = Optimize(out.compiled, OptimizerMode::kCse);
  conv_thread.join();
  SCX_ASSIGN_OR_RETURN(out.conventional, std::move(*conv));
  SCX_ASSIGN_OR_RETURN(out.cse, std::move(cse));
  out.cost_ratio = out.conventional.cost() > 0
                       ? out.cse.cost() / out.conventional.cost()
                       : 1.0;
  return out;
}

Result<ExecMetrics> Engine::Execute(const OptimizedScript& optimized) const {
  Executor executor(config_.cluster);
  return executor.Execute(optimized.plan());
}

Result<CompiledBatch> Engine::CompileBatch(
    const std::vector<std::string>& sources) const {
  SCX_ASSIGN_OR_RETURN(std::vector<AstScript> asts, ParseScriptBatch(sources));
  SCX_ASSIGN_OR_RETURN(BoundBatch bound, BindScriptBatch(asts, catalog_));
  CompiledBatch out;
  out.sources = sources;
  out.bound = std::move(bound);
  return out;
}

Result<OptimizedScript> Engine::OptimizeBatch(const CompiledBatch& batch,
                                              OptimizerMode mode) const {
  return OptimizeBound(batch.bound.merged, mode, batch.bound.script_roots);
}

CrossQuerySpoolCache& Engine::spool_cache() {
  if (cross_cache_ == nullptr) {
    cross_cache_ = std::make_shared<CrossQuerySpoolCache>(
        config_.cluster.spool_cache_bytes);
  }
  return *cross_cache_;
}

Result<BatchExecution> Engine::ExecuteBatch(const CompiledBatch& batch,
                                            OptimizerMode mode) {
  BatchExecution out;
  SCX_ASSIGN_OR_RETURN(out.optimized, OptimizeBatch(batch, mode));
  Executor executor(config_.cluster, &spool_cache(), catalog_.version());
  SCX_ASSIGN_OR_RETURN(out.metrics, executor.Execute(out.optimized.plan()));
  // Demultiplex the merged run's sinks back to per-script outputs keyed by
  // each script's original paths.
  out.script_outputs.reserve(batch.bound.outputs.size());
  for (const auto& prov : batch.bound.outputs) {
    std::map<std::string, std::vector<Row>> script;
    for (const auto& [merged_path, original] : prov) {
      auto it = out.metrics.outputs.find(merged_path);
      script[original] =
          it != out.metrics.outputs.end() ? it->second : std::vector<Row>{};
    }
    out.script_outputs.push_back(std::move(script));
  }
  return out;
}

Result<BatchExecution> Engine::SubmitBatch(
    const std::vector<std::string>& sources, OptimizerMode mode) {
  SCX_ASSIGN_OR_RETURN(CompiledBatch batch, CompileBatch(sources));
  return ExecuteBatch(batch, mode);
}

}  // namespace scx
