#ifndef SCX_CORE_OPTIMIZER_H_
#define SCX_CORE_OPTIMIZER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/optimization_context.h"
#include "core/rounds.h"

namespace scx {

/// The SCOPE-style Cascades optimizer extended with the paper's
/// common-subexpression framework. One serial search over one
/// OptimizationContext (memo, stats, cost model, shared info, phase-1
/// property histories):
///
///  * phase 1 — bottom-up required-properties optimization (Algorithm 2)
///    that explores the memo and records each shared group's property
///    history;
///  * between the phases — shared-group propagation and LCA identification
///    (Algorithm 3 / SharedInfo), then OptimizationContext::Freeze;
///  * phase 2 — the same recursion (Algorithms 4, 5) re-walks the DAG, and
///    at each LCA runs one re-optimization round per combination of history
///    entries (RunRoundsAt), enforcing the chosen property set so every
///    consumer reads one materialized spool.
///
/// The winner and spool-base caches live across both phases. Their keys are
/// fully numeric: the requirement is interned to a dense PropsId, and the
/// active enforcement assignment restricted to the shared groups below the
/// keyed group is summarized by a 64-bit signature (EnforcementSig).
class Optimizer {
 public:
  Optimizer(Memo memo, ColumnRegistryPtr columns, OptimizerConfig config);

  /// Declares the memo groups holding each merged script's root, for
  /// batch optimization (Engine::SubmitBatch). Must be called before Run;
  /// feeds the num_scripts / cross_script_shared_groups diagnostics.
  void SetScriptRoots(std::vector<GroupId> roots) {
    ctx_.set_script_roots(std::move(roots));
  }

  /// Runs the optimizer. Single-shot: a second call returns
  /// FailedPrecondition (the context is frozen and the memo restructured by
  /// then — build a fresh Optimizer to re-optimize).
  Result<OptimizeResult> Run(OptimizerMode mode);

  const Memo& memo() const { return ctx_.memo(); }
  const SharedInfo* shared_info() const { return ctx_.shared_info(); }
  const CardinalityEstimator& estimator() const { return ctx_.estimator(); }
  const PropertyHistory* HistoryOf(GroupId g) const {
    return ctx_.HistoryOf(g);
  }

 private:
  /// Winner-cache key: (group, interned requirement, enforcement
  /// signature). Packed POD — hashing and equality never touch the heap.
  struct WinnerKey {
    GroupId group;
    PropsId props;
    uint64_t sig;
    bool operator==(const WinnerKey& o) const {
      return group == o.group && props == o.props && sig == o.sig;
    }
  };
  struct WinnerKeyHash {
    size_t operator()(const WinnerKey& k) const {
      uint64_t h = Mix64((static_cast<uint64_t>(static_cast<uint32_t>(k.group))
                          << 32) |
                         static_cast<uint32_t>(k.props));
      return static_cast<size_t>(HashCombine(h, k.sig));
    }
  };
  /// Spool-base key: (shared group, history entry, enforcement signature of
  /// the group below the spool).
  struct SpoolKey {
    GroupId group;
    int entry;
    uint64_t sig;
    bool operator==(const SpoolKey& o) const {
      return group == o.group && entry == o.entry && sig == o.sig;
    }
  };
  struct SpoolKeyHash {
    size_t operator()(const SpoolKey& k) const {
      uint64_t h = Mix64((static_cast<uint64_t>(static_cast<uint32_t>(k.group))
                          << 32) |
                         static_cast<uint32_t>(k.entry));
      return static_cast<size_t>(HashCombine(h, k.sig));
    }
  };
  /// Running cheapest alternative of one group optimization (alternatives.cc).
  class AltAccumulator;

  /// Fills diag_.cross_script_shared_groups: shared groups reachable from
  /// two or more script roots. No-op for single-script runs.
  void ComputeCrossScriptSharing();

  /// Algorithm 2 / 4: optimize `g` under `req` with winner memoization.
  PhysicalNodePtr OptimizeGroup(GroupId g, const RequiredProps& req);

  /// Runs the phase-2 rounds at LCA `g` (paper Algorithm 4 lines 4-12 +
  /// Sec. VIII) and returns the winning plan.
  PhysicalNodePtr RunRoundsAt(GroupId g, const RequiredProps& req);

  // --- Algorithm 5: logical exploration + physical optimization ---
  // `out_cost` (optional) receives the winner's cost under the mode's
  // objective (+inf when no plan), saving the caller a re-walk.
  PhysicalNodePtr LogPhysOpt(GroupId g, const RequiredProps& req,
                             double* out_cost = nullptr);
  // Phase 2: optimize a shared group under the enforced property set and
  // compensate above the fixed spool for the consumer's requirement.
  PhysicalNodePtr OptimizeSharedEnforced(GroupId g, const RequiredProps& req);
  // The materialized spool for (shared group, history entry) — one instance
  // shared by every consumer in the round.
  PhysicalNodePtr SpoolBase(GroupId g, int entry_index);

  // Native (non-enforcer) implementation alternatives for one expression.
  void ImplementExpr(GroupId g, const GroupExpr& expr,
                     const RequiredProps& req, AltAccumulator* acc);
  void ImplementJoin(GroupId g, const GroupExpr& expr,
                     const RequiredProps& req, AltAccumulator* acc);
  // Enforcer alternatives wrapping re-optimizations with relaxed
  // requirements.
  void EnforceAlternatives(GroupId g, const RequiredProps& req,
                           AltAccumulator* acc);
  // Wraps enforcers over a fixed base plan to satisfy `req` (used above
  // enforced spools).
  void WrapEnforcersOverBase(GroupId g, const PhysicalNodePtr& base,
                             const RequiredProps& req, AltAccumulator* acc);

  /// Installs/removes a round assignment in `enforced_` and advances the
  /// signature epoch so cached per-group signatures are recomputed lazily.
  void InstallAssignment(const RoundAssignment& assignment);
  void RemoveAssignment(const RoundAssignment& assignment);

  /// 64-bit signature of the active assignment restricted to the shared
  /// groups below `g`: 0 in phase 1 / when no shared group lies below `g`
  /// (those winners are enforcement-independent); otherwise a nonzero seed
  /// (standing for "phase 2, enforcement-aware") combined via Mix64 /
  /// HashCombine over the (group, entry) pairs in ascending group order.
  /// Memoized per group and invalidated by the epoch counter, so repeated
  /// probes between assignment changes are O(1). Two distinct restricted
  /// assignments colliding is a ~2^-64 event per pair — accepted and
  /// documented (docs/architecture.md §11).
  uint64_t EnforcementSig(GroupId g);

  const GroupStats& StatsOf(GroupId g) const { return ctx_.StatsOf(g); }

  OptimizationContext ctx_;
  OptimizeDiagnostics diag_;  ///< diag_.cache holds the search counters
  bool ran_ = false;
  /// 1 while the context is built (exploration, history recording), 2 once
  /// it is frozen and the phase-2 walk runs.
  int phase_ = 1;
  std::chrono::steady_clock::time_point phase2_start_;

  std::unordered_map<WinnerKey, std::optional<PhysicalNodePtr>, WinnerKeyHash>
      winners_;
  std::unordered_map<SpoolKey, PhysicalNodePtr, SpoolKeyHash> spool_bases_;

  std::map<GroupId, int> enforced_;  ///< active round assignment
  /// Epoch stamp of `enforced_`, bumped by Install/RemoveAssignment.
  /// Starts at 1 so zero-initialized memo slots are never valid.
  uint64_t enforce_epoch_ = 1;
  /// Per-group signature memo: (epoch the value was computed at, value).
  std::vector<std::pair<uint64_t, uint64_t>> sig_memo_;
  /// LCAs whose rounds are running (a nested visit optimizes them plainly).
  std::set<GroupId> in_rounds_;
};

}  // namespace scx

#endif  // SCX_CORE_OPTIMIZER_H_
