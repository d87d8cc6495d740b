#ifndef SCX_EXEC_COLUMN_BATCH_H_
#define SCX_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/value.h"

namespace scx {

/// Physical representation of one column of a batch. Typed reps store the
/// raw payloads contiguously; kValue is the mixed-type fallback that keeps
/// the executor's dynamic-typing semantics exact when a column's cells do
/// not all share one runtime type.
enum class ColumnRep { kInt64, kDouble, kString, kValue };

/// Indices of the batch rows that survived a filter, in row order. Kernels
/// consume a selection instead of compacting the batch.
using SelectionVector = std::vector<uint32_t>;

/// A typed column of a few thousand cells with optional null support. The
/// rep is adopted from the first appended cell and demoted to kValue on the
/// first mismatching append, so `ValueAt(i)` is always bit-identical to the
/// row cell the column was built from.
///
/// The row format cannot represent nulls, so converter-built columns are
/// always fully valid; the null mask exists for kernel-level intermediates
/// and is validated by tests (ToRows-style conversions require 0 nulls).
class ColumnVector {
 public:
  ColumnVector() = default;
  explicit ColumnVector(ColumnRep rep) : rep_(rep), adopted_(true) {}

  ColumnRep rep() const { return rep_; }
  size_t size() const;
  bool empty() const { return size() == 0; }

  void Reserve(size_t n);
  void Clear();

  /// Appends one cell, adopting the rep on the first append and demoting
  /// the whole column to kValue when `v`'s runtime type does not match.
  void AppendValue(const Value& v);

  /// Appends a null cell (a typed placeholder plus a validity-mask entry).
  void AppendNull();

  bool IsNull(size_t i) const {
    return i < nulls_.size() && nulls_[i] != 0;
  }
  size_t null_count() const;

  /// The cell as a Value — bit-identical to the source row cell.
  Value ValueAt(size_t i) const;

  /// Value equality of cell i against `v` (exact Value::operator==
  /// semantics: types must match, then payloads compare equal).
  bool CellEquals(size_t i, const Value& v) const;

  /// Hash of cell i, identical to ValueAt(i).Hash().
  uint64_t CellHash(size_t i) const;

  /// Appends all of `src`'s cells (or only `sel`'s, in selection order).
  /// Bulk typed copy when the reps line up; falls back to per-cell
  /// AppendValue (with its adopt/demote semantics) otherwise, so the result
  /// is always cell-for-cell identical to an AppendValue loop.
  void AppendColumn(const ColumnVector& src, const SelectionVector* sel);

  /// Typed payloads; valid only for the matching rep.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<Value>& values() const { return values_; }
  std::vector<int64_t>* mutable_ints() { return &ints_; }
  std::vector<double>* mutable_doubles() { return &doubles_; }

 private:
  void Demote();  // rewrite the typed payload as kValue

  ColumnRep rep_ = ColumnRep::kValue;
  bool adopted_ = false;  ///< rep fixed (first append or explicit ctor)
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> values_;
  std::vector<uint8_t> nulls_;  ///< empty = no nulls; else 1 bit per cell
};

/// A horizontal slice of a partition in columnar form. Columns are aligned
/// with the producing operator's schema positions; only the positions a
/// kernel asked for are materialized (the rest stay empty), so converting
/// costs one pass over the referenced cells only.
struct ColumnBatch {
  size_t rows = 0;
  std::vector<ColumnVector> columns;

  const ColumnVector& col(int pos) const {
    return columns[static_cast<size_t>(pos)];
  }
};

/// Converts rows[begin, end) into a batch of `num_columns` columns,
/// materializing only the `wanted` schema positions (duplicates are fine).
ColumnBatch BatchFromRows(const std::vector<Row>& rows, size_t begin,
                          size_t end, size_t num_columns,
                          const std::vector<int>& wanted);

/// Appends the batch's rows (all columns, which must all be materialized
/// and null-free) to `out` — the inverse of a full-width BatchFromRows.
void AppendBatchRows(const ColumnBatch& batch, std::vector<Row>* out);

/// Appends one output row per batch row, cell j taken from cols[j]. Used
/// by the Compute operator to fold evaluated expression columns back into
/// the row stream at the operator boundary.
void AppendRowsFromColumns(const std::vector<const ColumnVector*>& cols,
                           size_t rows, std::vector<Row>* out);

/// Gathers sel's cells of `col` into a new column (same rep, nulls kept).
ColumnVector GatherColumn(const ColumnVector& col,
                          const SelectionVector& sel);

/// Exact Value::operator<=> of cell i of `a` vs cell j of `b` as -1/0/+1
/// (cross-type orders by type index, the canonical Value ordering), with
/// typed fast paths when both columns share a non-kValue rep. The cell
/// ordering SortRowIndices reproduces (and is tested against).
int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j);

/// Sorts `perm` — row indices into the `keys` columns — ascending on the
/// keys, compared left to right with the CompareCells chain. A single-key
/// sort resolves the column's rep once and compares its raw payload array
/// directly; every such comparison outcome equals CompareCells', and
/// std::sort's control flow depends only on those outcomes and the element
/// count, so the resulting permutation is exactly the CompareCells sort's
/// (and that of sorting the materialized rows with Value's ordering).
void SortRowIndices(const std::vector<const ColumnVector*>& keys,
                    SelectionVector* perm);

/// Exact `a.CellEquals(i, b.ValueAt(j))` — Value::operator== semantics, so
/// NaN never equals itself and null cells compare by their placeholder —
/// without materializing the Value when the reps match. The key equality
/// of the batch executor's representative-row hash tables.
inline bool CellsEqual(const ColumnVector& a, size_t i, const ColumnVector& b,
                       size_t j) {
  if (a.rep() == b.rep()) {
    switch (a.rep()) {
      case ColumnRep::kInt64:
        return a.ints()[i] == b.ints()[j];
      case ColumnRep::kDouble:
        return a.doubles()[i] == b.doubles()[j];
      case ColumnRep::kString:
        return a.strings()[i] == b.strings()[j];
      case ColumnRep::kValue:
        return a.values()[i] == b.values()[j];
    }
  }
  if (a.rep() != ColumnRep::kValue && b.rep() != ColumnRep::kValue) {
    return false;  // two different typed reps: the runtime types differ
  }
  return a.CellEquals(i, b.ValueAt(j));
}

/// Exact Value::operator<=> of cell i of `a` vs `v` as -1/0/+1, with typed
/// fast paths when the rep matches v's runtime type. Used by the range
/// exchange to compare key cells against quantile boundary Values.
int CompareCellValue(const ColumnVector& a, size_t i, const Value& v);

/// Sum of Value::ByteWidth over the column's cells (or only `sel`'s) —
/// the executor's shuffle/spool byte accounting, computed without
/// materializing Values.
int64_t ColumnLiveBytes(const ColumnVector& col, const SelectionVector* sel);

// ---------------------------------------------------------------------------
// Batch-native operator boundaries (docs/architecture.md §14).
//
// The executor's operators exchange BatchData: one BatchPartition per
// simulated machine, each a set of
// immutable, shareable columns plus an optional selection vector. Columns
// are reference-counted so a spool cache hit or a broadcast hands consumers
// the same physical column storage instead of copying rows; a filter's
// output shares its input's columns and only narrows the selection.

/// An immutable, shareable column. Every producer finishes a column before
/// publishing it and no consumer ever mutates one in place, so sharing
/// across operators, spool readers, and worker threads is safe.
using ColumnPtr = std::shared_ptr<const ColumnVector>;

/// A borrowed, non-owning view of a batch: `rows` physical rows and one
/// column pointer per schema position (positions a caller never asks for
/// may be null). The common argument type of the vectorized kernels.
struct ColumnBatchView {
  size_t rows = 0;
  std::vector<const ColumnVector*> columns;

  const ColumnVector& col(int pos) const {
    return *columns[static_cast<size_t>(pos)];
  }
};

/// Returns the borrowed view of an owning ColumnBatch.
ColumnBatchView ViewOf(const ColumnBatch& batch);

/// One machine's slice of an operator's output in columnar form. `columns`
/// are aligned with the producing operator's schema positions and all
/// materialized. When `filtered`, only the `sel` rows (ascending) are live;
/// the physical columns may be shared with the unfiltered producer.
struct BatchPartition {
  size_t rows = 0;  ///< physical rows in every column
  std::vector<ColumnPtr> columns;
  SelectionVector sel;
  bool filtered = false;

  size_t LiveRows() const { return filtered ? sel.size() : rows; }
  const SelectionVector* Selection() const {
    return filtered ? &sel : nullptr;
  }
  ColumnBatchView View() const;
};

/// A whole operator output, split across the simulated cluster's machines.
struct BatchData {
  Schema schema;
  std::vector<BatchPartition> partitions;

  int64_t TotalLiveRows() const;
  int64_t TotalLiveBytes() const;  ///< Value::ByteWidth sum over live cells
};

/// Densifies a partition: gathers the selected rows of every column. A
/// partition that is not filtered is returned as-is (columns shared, no
/// copy) — the spool materialization fast path.
BatchPartition CompactPartition(const BatchPartition& part);

/// Full-width rows -> columns conversion for one partition (builds kernel
/// inputs from literal rows).
BatchPartition PartitionFromRows(const std::vector<Row>& rows,
                                 size_t num_columns);

/// Appends the partition's live rows (selection order) to `out` — the
/// conversion at Output.
void AppendPartitionRows(const BatchPartition& part, std::vector<Row>* out);

/// Splits [0, n) into batches of at most `rows_per_batch` rows and returns
/// the number of batches (the executor's batches_evaluated accounting).
inline int64_t NumBatches(size_t n, size_t rows_per_batch) {
  if (n == 0 || rows_per_batch == 0) return 0;
  return static_cast<int64_t>((n + rows_per_batch - 1) / rows_per_batch);
}

}  // namespace scx

#endif  // SCX_EXEC_COLUMN_BATCH_H_
