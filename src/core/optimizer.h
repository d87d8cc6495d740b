#ifndef SCX_CORE_OPTIMIZER_H_
#define SCX_CORE_OPTIMIZER_H_

#include <memory>

#include "core/optimization_context.h"
#include "core/round_scheduler.h"
#include "core/round_task.h"

namespace scx {

/// The SCOPE-style Cascades optimizer extended with the paper's
/// common-subexpression framework, split into three layers:
///
///  * OptimizationContext — everything a run reads that is not specific to
///    one round (memo, stats, cost model, shared info, phase-1 property
///    histories). Built during phase 1, frozen immutable before phase 2.
///  * RoundTask — the group-optimization recursion (Algorithms 2, 4, 5)
///    plus the state one pass mutates: winner cache, spool-base cache, the
///    active enforcement assignment.
///  * RoundScheduler — executes the phase-2 rounds of each LCA one after
///    another on the task and enforces the round budget.
///
/// This class only orchestrates: phase 1 (bottom-up required-properties
/// optimization with history recording), shared-group propagation and LCA
/// identification between phases (Algorithm 3 / SharedInfo), then phase 2
/// (one re-optimization round per combination of history entries at each
/// LCA, enforcing the chosen property set so every consumer reads one
/// materialized spool).
class Optimizer {
 public:
  Optimizer(Memo memo, ColumnRegistryPtr columns, OptimizerConfig config);

  /// Declares the memo groups holding each merged script's root, for
  /// batch optimization (Engine::SubmitBatch). Must be called before Run;
  /// feeds the num_scripts / cross_script_shared_groups diagnostics.
  void SetScriptRoots(std::vector<GroupId> roots) {
    ctx_->set_script_roots(std::move(roots));
  }

  /// Runs the optimizer. Single-shot: a second call returns
  /// FailedPrecondition (the context is frozen and the memo restructured by
  /// then — build a fresh Optimizer to re-optimize).
  Result<OptimizeResult> Run(OptimizerMode mode);

  const Memo& memo() const { return ctx_->memo(); }
  const SharedInfo* shared_info() const { return ctx_->shared_info(); }
  const CardinalityEstimator& estimator() const { return ctx_->estimator(); }
  const PropertyHistory* HistoryOf(GroupId g) const {
    return ctx_->HistoryOf(g);
  }

 private:
  /// Fills diag_.cross_script_shared_groups: shared groups reachable from
  /// two or more script roots. No-op for single-script runs.
  void ComputeCrossScriptSharing();

  // Declaration order is destruction-critical: the scheduler and the master
  // task both reference the context, so they are destroyed first (members
  // are destroyed in reverse order).
  std::unique_ptr<OptimizationContext> ctx_;
  std::unique_ptr<RoundScheduler> scheduler_;
  std::unique_ptr<RoundTask> master_;
  bool ran_ = false;
  OptimizeDiagnostics diag_;
};

}  // namespace scx

#endif  // SCX_CORE_OPTIMIZER_H_
