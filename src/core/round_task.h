#ifndef SCX_CORE_ROUND_TASK_H_
#define SCX_CORE_ROUND_TASK_H_

#include <cstdint>
#include <limits>
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

class RoundScheduler;

/// Sentinel history index used by OptimizerMode::kNaiveSharing: enforce no
/// requirement at the shared group (locally cheapest shared plan).
inline constexpr int kNaiveEntryIndex = -1;

/// The group-optimization recursion (paper Algorithms 2, 4 and 5) plus the
/// state one optimization run mutates: the winner cache, the spool-base
/// cache, and the active enforcement assignment.
///
/// Cache keys are fully numeric: the requirement is interned to a dense
/// PropsId by the context, and the active enforcement assignment restricted
/// to the shared groups below the keyed group is summarized by a 64-bit
/// signature maintained incrementally as assignments are installed/removed
/// (see EnforcementSig below) — replacing the two heap strings the
/// string-keyed scheme built per probe.
///
/// One task drives the whole run: phase 1 (where it is also allowed to
/// mutate the context: exploration rules, history recording) and the
/// phase-2 walk, whose rounds the RoundScheduler evaluates one after
/// another on this task, so its caches are a single evolving store.
class RoundTask {
 public:
  /// `ctx` may still be under construction (phase 1).
  RoundTask(OptimizationContext* ctx, RoundScheduler* scheduler);

  /// Enters phase 2: the context must be frozen; the task stops invoking
  /// build-phase context hooks but keeps its phase-1 winner cache (subtrees
  /// without shared groups below keep their phase-1 winners).
  void BeginPhase2();
  int phase() const { return phase_; }

  /// Algorithm 2 / 4: optimize `g` under `req` with winner memoization.
  PhysicalNodePtr OptimizeGroup(GroupId g, const RequiredProps& req);

  const OptCacheCounters& counters() const { return counters_; }

 private:
  friend class RoundScheduler;

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
  using WinnerMap =
      std::unordered_map<WinnerKey, std::optional<PhysicalNodePtr>,
                         WinnerKeyHash>;
  using SpoolMap = std::unordered_map<SpoolKey, PhysicalNodePtr, SpoolKeyHash>;

  /// Streaming replacement for the collect-then-scan candidate vector:
  /// keeps the running cheapest alternative under the mode's objective,
  /// with the exact tie rule of the old scan (strict `<`, first wins).
  /// Under DAG costing it first compares the candidate's precomputed
  /// cost_lb — own cost + the largest child cost_lb, filled in by
  /// MakePhysicalNode, so the check is O(children) with no DAG walk ever
  /// (an earlier version used own cost + the largest child DagCost, whose
  /// memoized walks were cold for the fresh enforcer/spool intermediates
  /// every round mints, making the "fast" path slower than the traced one
  /// on join-heavy scripts) — against the running best, and skips the
  /// candidate's full DAG walk when the bound already rules it out
  /// (DagCost(p) >= p->own_cost + DagCost(child) >= p->own_cost +
  /// child->cost_lb for every child, by induction from the leaves).
  /// The skip only drops candidates whose true cost is >= the running
  /// best, which the strict-`<` rule would have rejected anyway, so winner
  /// and cost are bit-identical to the unpruned scan — and because the
  /// bound is a pure function of the candidate, the pruned count is
  /// deterministic too. Seeding `bound` starts the comparison cost there
  /// with no plan: used at round roots for branch-and-bound across rounds.
  class AltAccumulator {
   public:
    AltAccumulator(OptimizerMode mode, double bound, OptCacheCounters* c)
        : mode_(mode), best_cost_(bound), counters_(c) {}

    void Consider(PhysicalNodePtr p) {
      if (p == nullptr) return;
      if (mode_ == OptimizerMode::kConventional) {
        double c = TreeCost(p);  // O(1): precomputed at node build
        if (c < best_cost_) {
          best_cost_ = c;
          best_ = std::move(p);
        }
        return;
      }
      if (best_cost_ < std::numeric_limits<double>::infinity() &&
          p->cost_lb >= best_cost_) {
        ++counters_->pruned_alternatives;
        return;
      }
      double c = DagCost(p);
      if (c < best_cost_) {
        best_cost_ = c;
        best_ = std::move(p);
      }
    }

    const PhysicalNodePtr& best() const { return best_; }
    PhysicalNodePtr TakeBest() { return std::move(best_); }
    /// Cost of best(); +inf when no candidate beat the seed bound.
    double best_cost() const {
      return best_ != nullptr ? best_cost_
                              : std::numeric_limits<double>::infinity();
    }

   private:
    OptimizerMode mode_;
    PhysicalNodePtr best_;
    double best_cost_;
    OptCacheCounters* counters_;
  };

  // --- Algorithm 5: logical exploration + physical optimization ---
  // `out_cost` (optional) receives the winner's cost under the mode's
  // objective (+inf when no plan), saving the caller a re-walk. `bound`
  // seeds the alternative comparison (see AltAccumulator); kept +inf for
  // every nested/cached optimization so cache entries stay exact.
  PhysicalNodePtr LogPhysOpt(
      GroupId g, const RequiredProps& req, double* out_cost = nullptr,
      double bound = std::numeric_limits<double>::infinity());
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

  const std::optional<PhysicalNodePtr>* FindWinner(const WinnerKey& key) const;
  const PhysicalNodePtr* FindSpool(const SpoolKey& key) const;

  const GroupStats& StatsOf(GroupId g) const { return ctx_->StatsOf(g); }

  const OptimizationContext* ctx_ = nullptr;
  /// Non-null only while the master task runs phase 1 (the context is still
  /// being built: exploration, histories, derived stats).
  OptimizationContext* build_ctx_ = nullptr;
  RoundScheduler* scheduler_ = nullptr;
  int phase_ = 1;

  WinnerMap winners_;
  SpoolMap spool_bases_;

  std::map<GroupId, int> enforced_;  ///< active round assignment
  /// Epoch stamp of `enforced_`, bumped by Install/RemoveAssignment.
  /// Starts at 1 so zero-initialized memo slots are never valid.
  uint64_t enforce_epoch_ = 1;
  /// Per-group signature memo: (epoch the value was computed at, value).
  std::vector<std::pair<uint64_t, uint64_t>> sig_memo_;
  std::set<GroupId> in_rounds_;

  OptCacheCounters counters_;
};

}  // namespace scx

#endif  // SCX_CORE_ROUND_TASK_H_
