#ifndef SCX_EXEC_ROW_KEY_TABLE_H_
#define SCX_EXEC_ROW_KEY_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"
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
/// Two key stores sit on top: RowKeyTable (materialized Row keys, the row
/// path) and ColumnKeyTable (one representative row per key, the batch
/// path). Both see the same probe sequence, growth policy and id
/// assignment, so equal inputs build equal tables.
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

/// Hash table mapping a row key — the values of a fixed set of column
/// positions — to a dense id in insertion order: a KeyIdIndex plus the
/// materialized keys. This is the row path's aggregation/join building
/// block, replacing the `std::map<std::vector<Value>, ...>` tree maps:
/// lookups cost one 64-bit key hash (HashRowKey, the same Mix64/HashCombine
/// chain the fingerprint and shuffle paths use) plus a linear probe, and a
/// full key comparison only on a matching hash. Keys are materialized once,
/// on insertion — probes compare the stored key against the row's key
/// positions in place.
class RowKeyTable {
 public:
  static constexpr size_t kNotFound = KeyIdIndex::kNotFound;

  explicit RowKeyTable(size_t expected_keys = 0) : index_(expected_keys) {
    keys_.reserve(expected_keys);
  }

  size_t size() const { return keys_.size(); }

  /// The id-th inserted key (ids are dense, in insertion order).
  const Row& KeyAt(size_t id) const { return keys_[id]; }

  /// Dense id of the key `row[positions[0]], row[positions[1]], ...`,
  /// inserting it when absent. Returns {id, inserted}. An empty position
  /// list is the grand-total case: every row maps to one empty key.
  std::pair<size_t, bool> FindOrInsert(const Row& row,
                                       const std::vector<int>& positions) {
    auto [id, inserted] =
        index_.FindOrInsert(HashRowKey(row, positions), [&](size_t id) {
          return KeyEquals(keys_[id], row, positions);
        });
    if (inserted) {
      Row key;
      key.reserve(positions.size());
      for (int p : positions) key.push_back(row[static_cast<size_t>(p)]);
      keys_.push_back(std::move(key));
    }
    return {id, inserted};
  }

  /// FindOrInsert with a caller-supplied full key and its hash (tests use
  /// this to force hash collisions; generic callers can key on anything
  /// they can hash consistently).
  std::pair<size_t, bool> FindOrInsertKey(Row key, uint64_t hash) {
    auto [id, inserted] =
        index_.FindOrInsert(hash, [&](size_t id) { return keys_[id] == key; });
    if (inserted) keys_.push_back(std::move(key));
    return {id, inserted};
  }

  /// Dense id of the probe key, or kNotFound.
  size_t Find(const Row& row, const std::vector<int>& positions) const {
    return index_.Find(HashRowKey(row, positions), [&](size_t id) {
      return KeyEquals(keys_[id], row, positions);
    });
  }

 private:
  static bool KeyEquals(const Row& key, const Row& row,
                        const std::vector<int>& positions) {
    for (size_t j = 0; j < positions.size(); ++j) {
      if (!(key[j] == row[static_cast<size_t>(positions[j])])) return false;
    }
    return true;
  }

  KeyIdIndex index_;
  std::vector<Row> keys_;  ///< indexed by dense id
};

/// The batch path's key table: keys are the rows of fixed key columns,
/// each stored as the row index of its first insertion (its
/// representative), so no key is ever materialized. Key equality is
/// CellsEqual cell by cell — exactly the row path's Value equality, so NaN
/// never matches and null cells compare by their placeholder — and with
/// HashColumnCells hashes the dense ids equal those RowKeyTable assigns to
/// the same rows materialized.
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

#endif  // SCX_EXEC_ROW_KEY_TABLE_H_
