#ifndef SCX_EXEC_KEY_TABLE_H_
#define SCX_EXEC_KEY_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "exec/column_batch.h"

namespace scx {

/// Open-addressed index from a key's 64-bit hash to a dense id in insertion
/// order; the caller owns the keys and supplies the equality test. Lookups
/// cost a linear probe plus a key comparison only on a matching hash.
///
/// Capacity is a power of two kept at most half full; rehashing reuses the
/// stored hashes, so keys are never re-hashed. Pre-size with the expected
/// key count (e.g. the input cardinality) to avoid rehashes entirely.
///
/// ColumnKeyTable below keeps its keys on top of it.
class KeyIdIndex {
 public:
  static constexpr size_t kNotFound = ~size_t{0};

  explicit KeyIdIndex(size_t expected_keys = 0) {
    size_t cap = kMinSlots;
    while (cap < 2 * expected_keys) cap *= 2;
    slots_.assign(cap, kEmptySlot);
    mask_ = cap - 1;
    hashes_.reserve(expected_keys);
  }

  size_t size() const { return hashes_.size(); }

  /// Dense id of the stored key that hashes to `hash` and satisfies
  /// `eq(id)`, inserting a new id when there is none. Returns
  /// {id, inserted}; `eq` is only called on ids with an equal hash.
  template <typename EqFn>
  std::pair<size_t, bool> FindOrInsert(uint64_t hash, EqFn eq) {
    size_t i = hash & mask_;
    while (slots_[i] != kEmptySlot) {
      size_t id = slots_[i];
      if (hashes_[id] == hash && eq(id)) return {id, false};
      i = (i + 1) & mask_;
    }
    size_t id = hashes_.size();
    hashes_.push_back(hash);
    slots_[i] = id;
    if (2 * hashes_.size() > slots_.size()) Grow();
    return {id, true};
  }

  /// Dense id of the stored key matching `hash` and `eq`, or kNotFound.
  template <typename EqFn>
  size_t Find(uint64_t hash, EqFn eq) const {
    size_t i = hash & mask_;
    while (slots_[i] != kEmptySlot) {
      size_t id = slots_[i];
      if (hashes_[id] == hash && eq(id)) return id;
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

 private:
  static constexpr size_t kEmptySlot = ~size_t{0};
  static constexpr size_t kMinSlots = 16;

  void Grow() {
    size_t cap = slots_.size() * 2;
    slots_.assign(cap, kEmptySlot);
    mask_ = cap - 1;
    for (size_t id = 0; id < hashes_.size(); ++id) {
      size_t i = hashes_[id] & mask_;
      while (slots_[i] != kEmptySlot) i = (i + 1) & mask_;
      slots_[i] = id;
    }
  }

  std::vector<size_t> slots_;  ///< dense id per slot, or kEmptySlot
  size_t mask_ = 0;
  std::vector<uint64_t> hashes_;  ///< key hash per dense id
};

/// The executor's aggregation/join key table: keys are the rows of fixed
/// key columns, each stored as the row index of its first insertion (its
/// representative), so no key is ever materialized. Key equality is
/// CellsEqual cell by cell — exactly Value equality on the cells, so NaN
/// never matches. Dense ids are assigned in first-insertion order.
class ColumnKeyTable {
 public:
  static constexpr size_t kNotFound = KeyIdIndex::kNotFound;

  /// `keys` must outlive the table; an empty list is the grand-total case
  /// (every row maps to one key).
  ColumnKeyTable(std::vector<const ColumnVector*> keys, size_t expected_keys)
      : keys_(std::move(keys)), index_(expected_keys) {
    reps_.reserve(expected_keys);
  }

  size_t size() const { return reps_.size(); }

  /// Representative row per dense id — the gather list for the key
  /// columns of a one-row-per-key output.
  const SelectionVector& reps() const { return reps_; }

  /// Dense id of row r's key (hash `hash`), inserting it with r as its
  /// representative when absent. Returns {id, inserted}.
  std::pair<size_t, bool> FindOrInsert(size_t r, uint64_t hash) {
    auto [id, inserted] = index_.FindOrInsert(hash, [&](size_t id) {
      const size_t rep = reps_[id];
      for (const ColumnVector* col : keys_) {
        if (!CellsEqual(*col, r, *col, rep)) return false;
      }
      return true;
    });
    if (inserted) reps_.push_back(static_cast<uint32_t>(r));
    return {id, inserted};
  }

  /// Dense id of the key formed by row i of the `probe` columns (aligned
  /// with the key columns; hash `hash`), or kNotFound.
  size_t Find(const std::vector<const ColumnVector*>& probe, size_t i,
              uint64_t hash) const {
    return index_.Find(hash, [&](size_t id) {
      const size_t rep = reps_[id];
      for (size_t j = 0; j < keys_.size(); ++j) {
        if (!CellsEqual(*probe[j], i, *keys_[j], rep)) return false;
      }
      return true;
    });
  }

 private:
  std::vector<const ColumnVector*> keys_;
  KeyIdIndex index_;
  SelectionVector reps_;
};

}  // namespace scx

#endif  // SCX_EXEC_KEY_TABLE_H_
