#ifndef SCX_CORE_OPTIMIZATION_CONTEXT_H_
#define SCX_CORE_OPTIMIZATION_CONTEXT_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/property_history.h"
#include "core/props_interner.h"
#include "core/shared_info.h"
#include "cost/cost_model.h"
#include "memo/memo.h"
#include "opt/physical_plan.h"

namespace scx {

/// Which optimizer to run.
///  * kConventional reproduces the baseline SCOPE optimizer: no spools,
///    each consumer re-executes shared subexpressions, tree-cost
///    accounting (paper Fig. 8(a)).
///  * kNaiveSharing reproduces the earlier multi-query-optimization
///    techniques the paper argues against ([10]-[12] in its Sec. II):
///    shared subexpressions are identified and executed once, but the
///    shared plan is the LOCALLY optimal one — consumers compensate above
///    the spool with their own enforcers instead of the spool's properties
///    being chosen cost-based across consumers.
///  * kCse runs the paper's full framework of Secs. IV–VIII.
enum class OptimizerMode { kConventional, kNaiveSharing, kCse };

/// Tunables for optimization. The Sec. VIII large-script extensions can be
/// toggled individually for ablation benchmarks.
struct OptimizerConfig {
  ClusterConfig cluster;
  CostConstants costs;
  /// Max column-set size for full subset expansion (history recording and
  /// exchange-enforcer candidates). Larger sets use singletons + full set.
  int max_expand_cols = 4;
  /// Enable the local/global aggregate-split transformation rule.
  bool enable_agg_split = true;
  /// Enable the join-commutativity transformation rule.
  bool enable_join_commute = true;
  /// Phase-2 optimization budget (paper: 30 s for LS1, 60 s for LS2).
  double budget_seconds = 30.0;
  /// Hard cap on phase-2 rounds across all LCAs.
  long max_rounds = 1000000;
  bool exploit_independent_groups = true;  ///< Sec. VIII-A
  bool rank_shared_groups = true;          ///< Sec. VIII-B
  bool rank_properties = true;             ///< Sec. VIII-C
  /// Record a RoundTraceEntry per phase-2 round in the diagnostics.
  bool trace_rounds = true;
};

/// One phase-2 re-optimization round, as recorded in the optimization
/// trace: which LCA ran it, which history entries were enforced, and what
/// the resulting plan cost.
struct RoundTraceEntry {
  GroupId lca = kInvalidGroup;
  long round_index = 0;  ///< global, across all LCAs
  std::map<GroupId, int> assignment;
  double cost = 0;
  double best_so_far = 0;  ///< best cost at this LCA after this round
};

/// Per-run cache/pruning instrumentation of the group-optimization
/// recursion (winner cache, spool-base cache, interner, branch-and-bound).
/// Counts are totals over the whole run and reproducible run to run.
struct OptCacheCounters {
  long winner_hits = 0;
  long winner_misses = 0;
  long spool_hits = 0;
  long spool_misses = 0;
  /// Candidate plans abandoned because a cost lower bound already matched
  /// or exceeded the running best (never changes the winner).
  long pruned_alternatives = 0;
  /// Always 0: round-level pruning is gone. Kept only because perfbench
  /// reads it (`core.pruned_rounds`); it goes at the next benchmark change.
  long pruned_rounds = 0;
  long interner_size = 0;  ///< distinct RequiredProps values interned
};

/// Measurements and derived facts exposed alongside the chosen plan.
struct OptimizeDiagnostics {
  double phase1_cost = 0;  ///< best cost after phase 1 (mode accounting)
  double final_cost = 0;
  long rounds_planned = 0;
  long rounds_executed = 0;
  int num_shared_groups = 0;
  int explicit_shared = 0;
  int merged_subexpressions = 0;
  int reachable_groups = 0;
  /// Scripts merged into this memo (1 for an ordinary single-script run).
  int num_scripts = 1;
  /// Shared groups reachable from two or more script roots — sub-DAGs whose
  /// spool decision amortizes across script boundaries. 0 when num_scripts
  /// is 1 or in conventional mode (no shared-info pass).
  int cross_script_shared_groups = 0;
  double optimize_seconds = 0;
  double phase2_seconds = 0;  ///< wall time of the phase-2 walk alone
  bool budget_exhausted = false;
  /// kCse estimated every sharing plan worse than plain recomputation, so
  /// the conventional plan was returned instead (degenerate inputs).
  bool fell_back_to_conventional = false;
  OptCacheCounters cache;
  /// shared group -> its LCA.
  std::map<GroupId, GroupId> lca_of;
  /// shared group -> history size after phase 1.
  std::map<GroupId, int> history_sizes;
  /// Per-round trace (populated when OptimizerConfig::trace_rounds).
  std::vector<RoundTraceEntry> round_trace;
};

struct OptimizeResult {
  PhysicalNodePtr plan;
  double cost = 0;
  OptimizeDiagnostics diagnostics;
};

/// Everything one optimization run reads that is not specific to one round:
/// the memo, the column registry, the estimator/cost model, the shared-group
/// info, and the phase-1 property histories. Each Optimizer owns its own
/// context; nothing in it is shared between runs or threads.
///
/// Lifecycle: during phase 1 the context is under construction — exploration
/// rules append memo expressions, requirements are recorded into histories,
/// the estimator derives NDVs. Freeze() then (a) ranks histories
/// (Sec. VIII-C), (b) explores every reachable group to fixpoint so phase 2
/// never mutates the memo, and (c) precomputes the sorted shared-below
/// sets the enforcement signature walks. After Freeze() only the props
/// interner still grows.
class OptimizationContext {
 public:
  OptimizationContext(Memo memo, ColumnRegistryPtr columns,
                      OptimizerConfig config);

  // --- build phase (before Freeze) ---

  Memo& mutable_memo() { return memo_; }
  void set_mode(OptimizerMode mode) { mode_ = mode; }
  /// Declares the memo groups holding each merged script's root (batch
  /// compilation). Empty (the default) means a single-script memo.
  void set_script_roots(std::vector<GroupId> roots) {
    script_roots_ = std::move(roots);
  }
  /// (Re-)estimates stats of all groups reachable from the root.
  void EstimateMemo() { estimator_.EstimateMemo(memo_); }
  /// Applies transformation rules (join commutativity, aggregate split) to
  /// a group, once.
  void EnsureExplored(GroupId g);
  /// Records the requirement `req` in `g`'s property history (paper Sec. V;
  /// subset-range requirements expand into exact entries).
  void RecordHistory(GroupId g, const RequiredProps& req);
  /// Credits the history entry matching a phase-1 winner's delivered
  /// properties (Sec. VIII-C ranking input).
  void CreditDelivered(GroupId g, const DeliveredProps& delivered);
  /// Runs SharedInfo::Compute over the (restructured) memo.
  void ComputeSharedInfo();
  /// Rank histories, explore all groups to fixpoint, and precompute the
  /// sorted shared-below sets.
  void Freeze();

  // --- reads ---

  const Memo& memo() const { return memo_; }
  OptimizerMode mode() const { return mode_; }
  const OptimizerConfig& config() const { return config_; }
  const CardinalityEstimator& estimator() const { return estimator_; }
  const CostModel& cost_model() const { return cost_model_; }
  const GroupStats& StatsOf(GroupId g) const { return estimator_.StatsOf(g); }
  const SharedInfo* shared_info() const {
    return shared_.has_value() ? &*shared_ : nullptr;
  }
  const std::vector<GroupId>& script_roots() const { return script_roots_; }
  const PropertyHistory* HistoryOf(GroupId g) const;
  /// Interns a property set to its dense run-local id (stays live after
  /// Freeze — phase-2 rounds may still meet new requirement sets).
  PropsId InternProps(const RequiredProps& props) {
    return props_interner_.Intern(props);
  }
  const PropsInterner& props_interner() const { return props_interner_; }
  /// Shared groups at or below `g` as a sorted vector (precomputed by
  /// Freeze from SharedInfo::SharedBelow; empty before Freeze or for groups
  /// the shared-info pass never saw — matching the on-demand set lookup the
  /// string-keyed cache suffix used).
  const std::vector<GroupId>& SharedBelowSorted(GroupId g) const {
    static const std::vector<GroupId> kEmpty;
    size_t i = static_cast<size_t>(g);
    return i < shared_below_sorted_.size() ? shared_below_sorted_[i] : kEmpty;
  }
  /// Candidate partitioning column sets an exchange enforcer may produce
  /// for a requirement.
  std::vector<ColumnSet> EnforceCandidates(const PartitioningReq& req) const;
  /// Mode-appropriate plan objective (tree cost conventionally, DAG cost
  /// with CSE).
  double PlanCost(const PhysicalNodePtr& plan) const;

 private:
  Memo memo_;
  ColumnRegistryPtr columns_;
  OptimizerConfig config_;
  OptimizerMode mode_ = OptimizerMode::kConventional;
  CardinalityEstimator estimator_;
  CostModel cost_model_;
  std::map<GroupId, PropertyHistory> history_;
  PropsInterner props_interner_;
  std::vector<std::vector<GroupId>> shared_below_sorted_;
  std::optional<SharedInfo> shared_;
  std::vector<GroupId> script_roots_;
  std::set<GroupId> explored_;
};

}  // namespace scx

#endif  // SCX_CORE_OPTIMIZATION_CONTEXT_H_
