#ifndef SCX_CORE_PROPERTY_HISTORY_H_
#define SCX_CORE_PROPERTY_HISTORY_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/props_interner.h"
#include "props/physical_props.h"

namespace scx {

/// Paper Sec. V: the history of physical property sets requested at a shared
/// group during phase 1. A partitioning requirement [∅,C] is expanded by the
/// recorder into one kHashExact entry per non-empty subset of C; `wins`
/// counts how often an entry matched a best local plan (used by the
/// Sec. VIII-C property ranking).
///
/// Membership is tracked by interned PropsId in a hash index, so Add is
/// O(1) amortized instead of a linear scan with full RequiredProps equality
/// per phase-1 record. Insertion order of entries_ is preserved (rounds
/// enumerate entries by index), and RankByWins keeps the index in sync.
class PropertyHistory {
 public:
  struct Entry {
    RequiredProps props;
    PropsId props_id = -1;
    int wins = 0;
  };

  /// Adds `props` unless present. Returns true when added.
  bool Add(const RequiredProps& props, PropsInterner& interner) {
    PropsId id = interner.Intern(props);
    auto [it, inserted] = index_.emplace(id, static_cast<int>(entries_.size()));
    if (!inserted) return false;
    entries_.push_back(Entry{props, id, 0});
    return true;
  }

  bool Contains(PropsId id) const { return index_.count(id) != 0; }

  /// Credits the most specific entry consistent with a winner that
  /// delivered `delivered` (paper Sec. VIII-C: how often a property set
  /// generated a best local plan in phase 1). Stays a linear scan: this is
  /// a compatibility match (delivered sort satisfying a required prefix),
  /// not an equality lookup, so the hash index does not apply.
  void CreditDelivered(const DeliveredProps& delivered) {
    Entry* best = nullptr;
    for (Entry& e : entries_) {
      bool part_match =
          (e.props.partitioning.kind == PartReqKind::kHashExact &&
           delivered.partitioning.kind == PartitioningKind::kHash &&
           delivered.partitioning.cols == e.props.partitioning.cols) ||
          (e.props.partitioning.kind == PartReqKind::kSerial &&
           delivered.partitioning.kind == PartitioningKind::kSerial);
      if (!part_match) continue;
      if (!delivered.sort.SatisfiesPrefix(e.props.sort)) continue;
      if (best == nullptr ||
          e.props.sort.cols.size() > best->props.sort.cols.size()) {
        best = &e;
      }
    }
    if (best != nullptr) ++best->wins;
  }

  /// Reorders entries by descending win count (stable) — Sec. VIII-C.
  void RankByWins() {
    std::stable_sort(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.wins > b.wins; });
    for (size_t i = 0; i < entries_.size(); ++i) {
      index_[entries_[i].props_id] = static_cast<int>(i);
    }
  }

  const std::vector<Entry>& entries() const { return entries_; }
  int size() const { return static_cast<int>(entries_.size()); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(int i) const { return entries_[static_cast<size_t>(i)]; }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<PropsId, int> index_;  ///< props_id → entries_ position
};

}  // namespace scx

#endif  // SCX_CORE_PROPERTY_HISTORY_H_
