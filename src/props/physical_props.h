#ifndef SCX_PROPS_PHYSICAL_PROPS_H_
#define SCX_PROPS_PHYSICAL_PROPS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/column_set.h"

namespace scx {

/// How a delivered row stream is distributed over the cluster.
enum class PartitioningKind {
  kRandom,  ///< no co-location guarantee (e.g. raw extract)
  kHash,    ///< hash-partitioned on `cols`: rows equal on cols are co-located
  kRange,   ///< range-partitioned on the ordered `range_cols`: partition i
            ///< holds a contiguous lexicographic key range; equal rows are
            ///< co-located AND partition order follows key order
  kSerial,  ///< single partition on one machine
};

/// Delivered (physical) partitioning of a row stream.
struct Partitioning {
  PartitioningKind kind = PartitioningKind::kRandom;
  ColumnSet cols;  ///< kHash: hash columns; kRange: set view of range_cols
  /// kRange only: the ordered key columns defining the ranges.
  std::vector<ColumnId> range_cols;

  static Partitioning Random() { return {PartitioningKind::kRandom, {}, {}}; }
  static Partitioning Serial() { return {PartitioningKind::kSerial, {}, {}}; }
  static Partitioning Hash(ColumnSet c) {
    return {PartitioningKind::kHash, std::move(c), {}};
  }
  static Partitioning Range(std::vector<ColumnId> ordered) {
    Partitioning p;
    p.kind = PartitioningKind::kRange;
    p.cols = ColumnSet::FromVector(ordered);
    p.range_cols = std::move(ordered);
    return p;
  }

  uint64_t HashValue() const;
  std::string ToString(
      const std::function<std::string(ColumnId)>& namer) const;

  friend bool operator==(const Partitioning& a, const Partitioning& b) {
    return a.kind == b.kind && a.cols == b.cols &&
           a.range_cols == b.range_cols;
  }
};

/// A partitioning *requirement*. The paper specifies partitioning
/// requirements as ranges, e.g. [∅, {A,B,C}] — satisfied by hash
/// partitioning on any non-empty subset of {A,B,C} (kHashSubset here).
/// kHashExact pins the scheme exactly; it is how phase 2 enforces one
/// particular history entry at a shared group.
enum class PartReqKind {
  kNone,        ///< anything goes
  kSerial,      ///< must be a single partition
  kHashSubset,  ///< co-located on any non-empty S ⊆ cols (hash or range),
                ///< or serial
  kHashExact,   ///< hash on exactly cols
  kRangeExact,  ///< range on exactly the ordered cols (in `range_cols`)
};

struct PartitioningReq {
  PartReqKind kind = PartReqKind::kNone;
  ColumnSet cols;
  /// kRangeExact only: the required ordered range columns.
  std::vector<ColumnId> range_cols;

  static PartitioningReq None() { return {PartReqKind::kNone, {}, {}}; }
  static PartitioningReq Serial() { return {PartReqKind::kSerial, {}, {}}; }
  static PartitioningReq SubsetOf(ColumnSet c) {
    return {PartReqKind::kHashSubset, std::move(c), {}};
  }
  static PartitioningReq Exactly(ColumnSet c) {
    return {PartReqKind::kHashExact, std::move(c), {}};
  }
  static PartitioningReq RangeExactly(std::vector<ColumnId> ordered) {
    PartitioningReq r;
    r.kind = PartReqKind::kRangeExact;
    r.cols = ColumnSet::FromVector(ordered);
    r.range_cols = std::move(ordered);
    return r;
  }

  /// True iff `delivered` satisfies this requirement. A single partition
  /// trivially co-locates everything, so kSerial satisfies kHashSubset.
  bool SatisfiedBy(const Partitioning& delivered) const;

  uint64_t HashValue() const;
  std::string ToString(
      const std::function<std::string(ColumnId)>& namer) const;

  friend bool operator==(const PartitioningReq& a, const PartitioningReq& b) {
    return a.kind == b.kind && a.cols == b.cols &&
           a.range_cols == b.range_cols;
  }
};

/// A per-partition (local) sort order: ascending on each listed column.
struct SortSpec {
  std::vector<ColumnId> cols;

  bool Empty() const { return cols.empty(); }

  /// True iff this delivered order satisfies `required` — i.e. `required`
  /// is a prefix of this order.
  bool SatisfiesPrefix(const SortSpec& required) const;

  /// Set view of the sort columns.
  ColumnSet AsSet() const { return ColumnSet::FromVector(cols); }

  uint64_t HashValue() const;
  std::string ToString(
      const std::function<std::string(ColumnId)>& namer) const;

  friend bool operator==(const SortSpec& a, const SortSpec& b) {
    return a.cols == b.cols;
  }
};

/// Properties required of the rows a plan delivers (paper's ReqProp):
/// global partitioning plus per-partition sort order.
struct RequiredProps {
  PartitioningReq partitioning;
  SortSpec sort;

  uint64_t HashValue() const;
  std::string ToString(
      const std::function<std::string(ColumnId)>& namer) const;
  std::string ToString() const;

  friend bool operator==(const RequiredProps& a, const RequiredProps& b) {
    return a.partitioning == b.partitioning && a.sort == b.sort;
  }
};

/// Properties actually delivered by a physical plan (paper's DlvdProp).
struct DeliveredProps {
  Partitioning partitioning;
  SortSpec sort;

  std::string ToString(
      const std::function<std::string(ColumnId)>& namer) const;
  std::string ToString() const;

  friend bool operator==(const DeliveredProps& a, const DeliveredProps& b) {
    return a.partitioning == b.partitioning && a.sort == b.sort;
  }
};

/// Paper's PropertySatisfied: `delivered` meets `required`.
bool PropertySatisfied(const RequiredProps& required,
                       const DeliveredProps& delivered);

}  // namespace scx

#endif  // SCX_PROPS_PHYSICAL_PROPS_H_
