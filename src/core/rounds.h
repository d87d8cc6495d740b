#ifndef SCX_CORE_ROUNDS_H_
#define SCX_CORE_ROUNDS_H_

#include <map>
#include <vector>

#include "memo/memo.h"

namespace scx {

/// One phase-2 re-optimization round: a choice of history-entry index for
/// every shared group associated with the LCA being optimized.
using RoundAssignment = std::map<GroupId, int>;

/// Enumerates the phase-2 rounds for one LCA (paper Sec. VII with the
/// Sec. VIII-A extension).
///
/// Input: independence classes of shared groups (each class is a list of
/// group ids, already ranked per Sec. VIII-B) and the history size of each
/// group (entries already ranked per Sec. VIII-C, so index 0 is the most
/// promising entry).
///
/// Without the independence extension callers pass a single class holding
/// all groups; the enumerator then produces the full Cartesian product,
/// varying the first group fastest (paper Sec. VII example ordering).
///
/// With independent classes, classes are processed sequentially: while a
/// class is being enumerated, earlier classes are pinned to their best
/// observed assignment and later classes to entry 0. Subsequent classes skip
/// their all-zero combination (it was already evaluated during the previous
/// class), reproducing the paper's 8+8 → 8+7 = 15 rounds example.
class RoundEnumerator {
 public:
  RoundEnumerator(std::vector<std::vector<GroupId>> classes,
                  std::map<GroupId, int> history_sizes);

  /// Total number of rounds this enumerator will produce. The count is a
  /// Cartesian product over history sizes, so it is computed with
  /// saturating arithmetic: adversarially large histories report LONG_MAX
  /// instead of a wrapped (possibly negative) count. Enumeration itself is
  /// unaffected — the budget/round cap stops it long before.
  long TotalRounds() const { return total_rounds_; }

  /// Produces the next assignment; false when enumeration is complete.
  /// After each successful Next(), the caller must call ReportCost() with
  /// the cost of the produced plan before calling Next() again.
  bool Next(RoundAssignment* out);

  /// Reports the cost of the assignment most recently returned by Next().
  void ReportCost(double cost);

 private:
  /// Builds the assignment for the current class state.
  RoundAssignment CurrentAssignment() const;
  /// Advances the mixed-radix counter of the current class; returns false
  /// on wrap-around (class exhausted).
  bool AdvanceCounter();
  /// Pins the finished class to `pin` and enters the next class; returns
  /// false when no class remains (enumeration done).
  bool BeginNextClass(const std::vector<int>& pin);

  std::vector<std::vector<GroupId>> classes_;
  std::map<GroupId, int> history_sizes_;
  long total_rounds_ = 0;

  size_t current_class_ = 0;
  std::vector<int> counter_;           // per group of current class
  bool counter_fresh_ = true;          // counter not yet consumed
  bool pending_report_ = false;
  RoundAssignment last_assignment_;
  double best_cost_in_class_ = 0;
  bool have_best_in_class_ = false;
  std::vector<int> best_counter_;
  RoundAssignment fixed_;              // best choices of completed classes
  bool done_ = false;
};

}  // namespace scx

#endif  // SCX_CORE_ROUNDS_H_
