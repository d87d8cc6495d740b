#ifndef SCX_CORE_ROUND_SCHEDULER_H_
#define SCX_CORE_ROUND_SCHEDULER_H_

#include <chrono>

#include "core/optimization_context.h"
#include "core/round_task.h"
#include "core/rounds.h"

namespace scx {

/// Owns phase-2 round execution: partitions the round space of each LCA by
/// independence-class structure (RoundEnumerator), evaluates the rounds
/// one after another on the calling task, and tracks the global round
/// budget.
///
/// Determinism contract (see docs/architecture.md): for a fixed script and
/// config, the chosen plan, its cost, rounds_planned/rounds_executed and the
/// round trace are reproducible run to run as long as the time budget does
/// not expire. Winner selection uses strict less-than, so ties go to the
/// earliest round. Branch-and-bound across rounds (trace off) uses only the
/// enumerator's class-local best — it abandons rounds that provably lose
/// both the winner and the pin comparison, so the chosen plan and cost
/// still match the unpruned path bit for bit (docs §11).
class RoundScheduler {
 public:
  RoundScheduler(const OptimizationContext* ctx, OptimizeDiagnostics* diag);
  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  /// Starts the phase-2 budget clock.
  void StartPhase2();

  /// Sticky flag: a budget stop happened somewhere; remaining LCAs fall
  /// back to phase-1-style optimization.
  bool budget_exhausted() const { return budget_exhausted_; }

  /// Runs the phase-2 rounds at LCA `g` for `task` (paper Algorithm 4
  /// lines 4-12 + Sec. VIII) and returns the winning plan.
  PhysicalNodePtr RunRoundsAt(RoundTask* task, GroupId g,
                              const RequiredProps& req);

 private:
  /// True when the time budget expired or a budget stop already happened.
  bool BudgetExceeded() const;

  const OptimizationContext* ctx_;
  OptimizeDiagnostics* diag_;

  std::chrono::steady_clock::time_point phase2_start_;
  bool budget_exhausted_ = false;
};

}  // namespace scx

#endif  // SCX_CORE_ROUND_SCHEDULER_H_
