#include "core/rounds.h"

#include <limits>

namespace scx {

RoundEnumerator::RoundEnumerator(std::vector<std::vector<GroupId>> classes,
                                 std::map<GroupId, int> history_sizes)
    : classes_(std::move(classes)), history_sizes_(std::move(history_sizes)) {
  // Drop classes whose groups all have empty histories.
  std::vector<std::vector<GroupId>> kept;
  for (auto& cls : classes_) {
    bool any = false;
    for (GroupId g : cls) {
      if (history_sizes_[g] > 0) any = true;
      if (history_sizes_[g] == 0) history_sizes_[g] = 1;  // degenerate entry
    }
    if (any && !cls.empty()) kept.push_back(std::move(cls));
  }
  classes_ = std::move(kept);

  for (size_t k = 0; k < classes_.size(); ++k) {
    long combos = 1;
    for (GroupId g : classes_[k]) {
      if (__builtin_mul_overflow(combos, static_cast<long>(history_sizes_[g]),
                                 &combos)) {
        combos = std::numeric_limits<long>::max();
        break;  // saturated; further factors are >= 1
      }
    }
    long add = (k == 0) ? combos : combos - 1;
    if (__builtin_add_overflow(total_rounds_, add, &total_rounds_)) {
      total_rounds_ = std::numeric_limits<long>::max();
    }
  }
  if (classes_.empty()) {
    done_ = true;
    return;
  }
  counter_.assign(classes_[0].size(), 0);
  counter_fresh_ = true;
}

RoundAssignment RoundEnumerator::CurrentAssignment() const {
  RoundAssignment out = fixed_;
  // Current class: counter values.
  const std::vector<GroupId>& cls = classes_[current_class_];
  for (size_t i = 0; i < cls.size(); ++i) {
    out[cls[i]] = counter_[i];
  }
  // Later classes: their most promising entry (index 0).
  for (size_t k = current_class_ + 1; k < classes_.size(); ++k) {
    for (GroupId g : classes_[k]) out[g] = 0;
  }
  return out;
}

bool RoundEnumerator::AdvanceCounter() {
  const std::vector<GroupId>& cls = classes_[current_class_];
  // The paper varies the FIRST shared group fastest.
  for (size_t i = 0; i < counter_.size(); ++i) {
    ++counter_[i];
    if (counter_[i] < history_sizes_[cls[i]]) return true;
    counter_[i] = 0;
  }
  return false;
}

bool RoundEnumerator::BeginNextClass(const std::vector<int>& pin) {
  const std::vector<GroupId>& cls = classes_[current_class_];
  for (size_t i = 0; i < cls.size(); ++i) {
    fixed_[cls[i]] = i < pin.size() ? pin[i] : 0;
  }
  ++current_class_;
  if (current_class_ >= classes_.size()) {
    done_ = true;
    return false;
  }
  counter_.assign(classes_[current_class_].size(), 0);
  have_best_in_class_ = false;
  // The all-zero combination of a later class was already evaluated while
  // the previous class enumerated (later classes are pinned at 0 there).
  counter_fresh_ = false;
  return true;
}

bool RoundEnumerator::Next(RoundAssignment* out) {
  if (done_ || pending_report_) return false;
  if (!counter_fresh_) {
    if (!AdvanceCounter()) {
      // Class exhausted: pin its best assignment, move to the next class.
      if (!BeginNextClass(have_best_in_class_
                              ? best_counter_
                              : std::vector<int>(counter_.size(), 0))) {
        return false;
      }
      // Skip the all-zero combination.
      if (!AdvanceCounter()) {
        // Single-combination class: nothing new to evaluate; recurse.
        return Next(out);
      }
    }
  }
  counter_fresh_ = false;
  last_assignment_ = CurrentAssignment();
  *out = last_assignment_;
  pending_report_ = true;
  return true;
}

void RoundEnumerator::ReportCost(double cost) {
  if (!pending_report_) return;
  pending_report_ = false;
  if (!have_best_in_class_ || cost < best_cost_in_class_) {
    have_best_in_class_ = true;
    best_cost_in_class_ = cost;
    best_counter_ = counter_;
  }
}

}  // namespace scx
