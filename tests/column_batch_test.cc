// Unit tests for the columnar batch layer (src/exec/column_batch): the
// row <-> batch converters must be lossless and bit-identical, selection
// vectors must gather exactly the selected cells, rep adoption/demotion
// must keep mixed-type columns exact, and the null mask must stay scoped
// to kernel-level intermediates. The executor's representative-row key
// table must group exactly like a linear scan with Value equality, and its
// typed sort comparator must agree exactly with the CompareCells ordering.

#include "exec/column_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/value.h"
#include "exec/key_table.h"
#include "exec/vector_kernels.h"

namespace scx {
namespace {

std::vector<Row> MixedRows() {
  // 3 columns: pure int, pure double, mixed (int then string).
  return {
      {Value::Int(1), Value::Real(1.5), Value::Int(10)},
      {Value::Int(2), Value::Real(-0.0), Value::Str("x")},
      {Value::Int(3), Value::Real(2.5), Value::Int(30)},
      {Value::Int(-4), Value::Real(1e300), Value::Str("")},
  };
}

TEST(ColumnVectorTest, AdoptsRepFromFirstAppendAndDemotesOnMismatch) {
  ColumnVector col;
  col.AppendValue(Value::Int(7));
  EXPECT_EQ(col.rep(), ColumnRep::kInt64);
  col.AppendValue(Value::Int(8));
  ASSERT_EQ(col.ints().size(), 2u);

  // A double arrives: the whole column demotes to kValue, and every cell —
  // including the previously typed ones — reads back bit-identically.
  col.AppendValue(Value::Real(2.25));
  EXPECT_EQ(col.rep(), ColumnRep::kValue);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.ValueAt(0), Value::Int(7));
  EXPECT_EQ(col.ValueAt(1), Value::Int(8));
  EXPECT_EQ(col.ValueAt(2), Value::Real(2.25));
}

TEST(ColumnVectorTest, CellEqualsUsesExactValueSemantics) {
  ColumnVector col;
  col.AppendValue(Value::Int(5));
  col.AppendValue(Value::Real(5.0));
  // Type must match: Int(5) != Real(5.0) under Value::operator==.
  EXPECT_TRUE(col.CellEquals(0, Value::Int(5)));
  EXPECT_FALSE(col.CellEquals(0, Value::Real(5.0)));
  EXPECT_TRUE(col.CellEquals(1, Value::Real(5.0)));
  EXPECT_FALSE(col.CellEquals(1, Value::Int(5)));
}

TEST(ColumnVectorTest, CellHashMatchesValueHash) {
  ColumnVector col;
  std::vector<Value> cells = {Value::Int(42), Value::Real(-0.0),
                              Value::Str("abc"), Value::Int(-1)};
  for (const Value& v : cells) col.AppendValue(v);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(col.CellHash(i), col.ValueAt(i).Hash()) << "cell " << i;
  }
}

TEST(ColumnVectorTest, NullMaskTracksAppendNull) {
  ColumnVector col(ColumnRep::kInt64);
  col.AppendValue(Value::Int(1));
  col.AppendNull();
  col.AppendValue(Value::Int(3));
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  // Fully-valid columns never allocate a mask.
  ColumnVector valid;
  valid.AppendValue(Value::Int(1));
  EXPECT_EQ(valid.null_count(), 0u);
  EXPECT_FALSE(valid.IsNull(0));
}

TEST(ColumnBatchTest, RowBatchRoundTripIsBitIdentical) {
  std::vector<Row> rows = MixedRows();
  ColumnBatch batch =
      BatchFromRows(rows, 0, rows.size(), 3, /*wanted=*/{0, 1, 2});
  ASSERT_EQ(batch.rows, rows.size());
  // The mixed column demoted to kValue; the typed ones adopted their rep.
  EXPECT_EQ(batch.col(0).rep(), ColumnRep::kInt64);
  EXPECT_EQ(batch.col(1).rep(), ColumnRep::kDouble);
  EXPECT_EQ(batch.col(2).rep(), ColumnRep::kValue);

  std::vector<Row> back;
  AppendBatchRows(batch, &back);
  EXPECT_EQ(back, rows);  // raw Value equality, row for row
}

TEST(ColumnBatchTest, ChunkedConversionPreservesRowOrder) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({Value::Int(i)});
  std::vector<Row> back;
  for (size_t begin = 0; begin < rows.size(); begin += 3) {
    size_t end = std::min(begin + 3, rows.size());
    ColumnBatch batch = BatchFromRows(rows, begin, end, 1, {0});
    AppendBatchRows(batch, &back);
  }
  EXPECT_EQ(back, rows);
}

TEST(ColumnBatchTest, MaterializesOnlyWantedPositions) {
  std::vector<Row> rows = MixedRows();
  // Duplicate positions in `wanted` must be harmless.
  ColumnBatch batch = BatchFromRows(rows, 1, 3, 3, {2, 2, 0, 0});
  EXPECT_EQ(batch.rows, 2u);
  ASSERT_EQ(batch.columns.size(), 3u);
  EXPECT_EQ(batch.col(0).size(), 2u);
  EXPECT_TRUE(batch.col(1).empty());  // not requested: stays empty
  EXPECT_EQ(batch.col(2).size(), 2u);
  EXPECT_EQ(batch.col(0).ValueAt(0), rows[1][0]);
  EXPECT_EQ(batch.col(2).ValueAt(1), rows[2][2]);
}

TEST(ColumnBatchTest, GatherColumnFollowsSelectionVector) {
  ColumnVector col;
  for (int64_t i = 0; i < 6; ++i) col.AppendValue(Value::Int(i * 10));
  SelectionVector sel = {1, 3, 4};
  ColumnVector picked = GatherColumn(col, sel);
  EXPECT_EQ(picked.rep(), ColumnRep::kInt64);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked.ValueAt(0), Value::Int(10));
  EXPECT_EQ(picked.ValueAt(1), Value::Int(30));
  EXPECT_EQ(picked.ValueAt(2), Value::Int(40));

  // Empty selection: empty column, rep kept.
  ColumnVector none = GatherColumn(col, {});
  EXPECT_TRUE(none.empty());
}

TEST(ColumnBatchTest, GatherColumnKeepsNullMask) {
  ColumnVector col(ColumnRep::kInt64);
  col.AppendValue(Value::Int(1));
  col.AppendNull();
  col.AppendValue(Value::Int(3));
  ColumnVector picked = GatherColumn(col, {1, 2});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_TRUE(picked.IsNull(0));
  EXPECT_FALSE(picked.IsNull(1));
  EXPECT_EQ(picked.ValueAt(1), Value::Int(3));
}

TEST(ColumnBatchTest, AppendRowsFromColumnsZipsColumns) {
  ColumnVector a, b;
  for (int64_t i = 0; i < 3; ++i) {
    a.AppendValue(Value::Int(i));
    b.AppendValue(Value::Str(std::to_string(i)));
  }
  std::vector<Row> out;
  AppendRowsFromColumns({&a, &b}, 3, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2], (Row{Value::Int(2), Value::Str("2")}));
  // The same column may back several output positions (shared CSE slot).
  std::vector<Row> dup;
  AppendRowsFromColumns({&a, &a}, 3, &dup);
  EXPECT_EQ(dup[1], (Row{Value::Int(1), Value::Int(1)}));
}

TEST(ColumnBatchTest, AppendColumnBulkCopyMatchesPerCellFallback) {
  // Typed source into typed accumulator: the bulk memcpy-style path.
  ColumnVector src;
  for (int64_t i = 0; i < 5; ++i) src.AppendValue(Value::Int(i * 3));
  ColumnVector all;
  all.AppendColumn(src, nullptr);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all.rep(), ColumnRep::kInt64);
  EXPECT_EQ(all.ValueAt(4), Value::Int(12));

  // With a selection: only the selected cells, in selection order.
  SelectionVector sel = {4, 0};
  ColumnVector some;
  some.AppendColumn(src, &sel);
  ASSERT_EQ(some.size(), 2u);
  EXPECT_EQ(some.ValueAt(0), Value::Int(12));
  EXPECT_EQ(some.ValueAt(1), Value::Int(0));

  // Mixed-rep append (int column into an accumulator that already adopted
  // kValue): per-cell fallback, still cell-for-cell identical.
  ColumnVector mixed;
  mixed.AppendValue(Value::Str("s"));
  mixed.AppendColumn(src, &sel);
  ASSERT_EQ(mixed.size(), 3u);
  EXPECT_EQ(mixed.rep(), ColumnRep::kValue);
  EXPECT_EQ(mixed.ValueAt(1), Value::Int(12));
}

TEST(ColumnBatchTest, CompareCellsMatchesValueOrdering) {
  // Cross-type ordering is Value's: int < double < string by type index.
  ColumnVector a, b;
  a.AppendValue(Value::Int(5));
  a.AppendValue(Value::Str("abc"));
  b.AppendValue(Value::Int(7));
  b.AppendValue(Value::Real(0.5));
  EXPECT_LT(CompareCells(a, 0, b, 0), 0);  // 5 < 7
  EXPECT_GT(CompareCells(b, 0, a, 0), 0);
  EXPECT_GT(CompareCells(a, 1, b, 1), 0);  // string > double
  EXPECT_EQ(CompareCells(a, 0, a, 0), 0);
  // Same-rep typed fast path agrees with the generic Value path.
  ColumnVector c, d;
  c.AppendValue(Value::Int(-1));
  d.AppendValue(Value::Int(2));
  EXPECT_LT(CompareCells(c, 0, d, 0), 0);
}

TEST(ColumnBatchTest, CompactPartitionGathersSurvivorsOnce) {
  BatchPartition part;
  part.rows = 4;
  ColumnVector col;
  for (int64_t i = 0; i < 4; ++i) col.AppendValue(Value::Int(i));
  part.columns.push_back(std::make_shared<ColumnVector>(std::move(col)));
  part.sel = {1, 3};
  part.filtered = true;

  BatchPartition dense = CompactPartition(part);
  EXPECT_FALSE(dense.filtered);
  EXPECT_EQ(dense.rows, 2u);
  EXPECT_EQ(dense.LiveRows(), 2u);
  ASSERT_EQ(dense.columns.size(), 1u);
  EXPECT_EQ(dense.columns[0]->ValueAt(0), Value::Int(1));
  EXPECT_EQ(dense.columns[0]->ValueAt(1), Value::Int(3));

  // Unfiltered partitions pass through sharing the same columns.
  BatchPartition through = CompactPartition(dense);
  EXPECT_EQ(through.columns[0].get(), dense.columns[0].get());
}

TEST(ColumnBatchTest, PartitionRowConvertersRoundTrip) {
  std::vector<Row> rows = MixedRows();
  BatchPartition part = PartitionFromRows(rows, 3);
  EXPECT_EQ(part.rows, rows.size());
  EXPECT_FALSE(part.filtered);
  ASSERT_EQ(part.columns.size(), 3u);

  std::vector<Row> back;
  AppendPartitionRows(part, &back);
  EXPECT_EQ(back, rows);

  // With a selection, only live rows convert, in selection order.
  part.sel = {2, 0};
  part.filtered = true;
  std::vector<Row> live;
  AppendPartitionRows(part, &live);
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0], rows[2]);
  EXPECT_EQ(live[1], rows[0]);
}

/// Reference grouping by linear scan: the dense id of `key` among `keys`
/// (first-insertion order) under Value equality, or keys->size() after
/// appending it. Shares no code with ColumnKeyTable or KeyIdIndex.
size_t LinearKeyId(std::vector<Row>* keys, const Row& key, bool insert) {
  for (size_t id = 0; id < keys->size(); ++id) {
    const Row& k = (*keys)[id];
    bool same = true;
    for (size_t j = 0; j < key.size(); ++j) {
      if (!(k[j] == key[j])) {
        same = false;
        break;
      }
    }
    if (same) return id;
  }
  if (insert) keys->push_back(key);
  return insert ? keys->size() - 1 : ColumnKeyTable::kNotFound;
}

// Groups the first `n` rows of `cols` twice: with ColumnKeyTable over the
// columns and with a linear scan over the same rows materialized. Hashes,
// dense ids, insert flags and the key values gathered at the
// representatives must all agree. Returns ColumnKeyTable's dense id per
// row.
std::vector<size_t> ExpectSameGrouping(const std::vector<ColumnVector>& cols,
                                       size_t n, size_t expected_keys) {
  std::vector<const ColumnVector*> keys;
  for (const ColumnVector& c : cols) keys.push_back(&c);
  std::vector<int> positions(cols.size());
  std::iota(positions.begin(), positions.end(), 0);
  std::vector<uint64_t> hashes(n, kRowKeySeed);
  for (const ColumnVector* c : keys) HashColumnCells(*c, n, hashes.data());

  ColumnKeyTable table(keys, expected_keys);
  std::vector<Row> ref;
  std::vector<size_t> ids;
  for (size_t r = 0; r < n; ++r) {
    Row row;
    for (const ColumnVector* c : keys) row.push_back(c->ValueAt(r));
    EXPECT_EQ(hashes[r], HashRowKey(row, positions)) << "row " << r;
    const size_t ref_size = ref.size();
    auto [id, inserted] = table.FindOrInsert(r, hashes[r]);
    const size_t ref_id = LinearKeyId(&ref, row, /*insert=*/true);
    EXPECT_EQ(id, ref_id) << "row " << r;
    EXPECT_EQ(inserted, ref.size() > ref_size) << "row " << r;
    ids.push_back(id);
  }
  EXPECT_EQ(table.size(), ref.size());
  EXPECT_EQ(table.reps().size(), table.size());
  for (size_t j = 0; j < cols.size(); ++j) {
    ColumnVector gathered = GatherColumn(cols[j], table.reps());
    EXPECT_EQ(gathered.size(), table.size());
    if (gathered.size() != table.size()) continue;
    for (size_t id = 0; id < table.size(); ++id) {
      const Value got = gathered.ValueAt(id);
      const Value want = ref[id][j];
      // Bitwise, so NaN keys compare too.
      EXPECT_EQ(got.ToString(), want.ToString()) << "key " << id;
      EXPECT_EQ(got.type(), want.type()) << "key " << id;
    }
  }
  return ids;
}

TEST(ColumnKeyTableTest, NaNKeysNeverMatchAndSignedZerosDo) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ColumnVector col;
  for (double d : {1.0, nan, 1.0, nan, -0.0, 0.0, nan}) {
    col.AppendValue(Value::Real(d));
  }
  std::vector<size_t> ids = ExpectSameGrouping({col}, col.size(), 0);
  // Value equality: every NaN row opens its own group; -0.0 == 0.0.
  EXPECT_EQ(ids, (std::vector<size_t>{0, 1, 0, 2, 3, 3, 4}));
}

TEST(ColumnKeyTableTest, NullKeysCompareByPlaceholderLikeCellEquals) {
  // CellEquals ignores the null mask (nulls exist only in kernel-level
  // intermediates), so a null int cell keys like its 0 placeholder.
  ColumnVector col(ColumnRep::kInt64);
  col.AppendValue(Value::Int(0));
  col.AppendNull();
  col.AppendValue(Value::Int(5));
  col.AppendNull();
  ASSERT_EQ(col.null_count(), 2u);
  std::vector<size_t> ids = ExpectSameGrouping({col}, col.size(), 0);
  EXPECT_EQ(ids, (std::vector<size_t>{0, 0, 1, 0}));
}

TEST(ColumnKeyTableTest, MixedIntDoubleValueColumnKeepsTypesApart) {
  ColumnVector mixed;  // demotes to kValue on the first double
  ColumnVector ints;
  const Value cells[] = {Value::Int(1), Value::Real(1.0), Value::Int(1),
                         Value::Real(1.0), Value::Int(2), Value::Real(2.0)};
  for (size_t i = 0; i < 6; ++i) {
    mixed.AppendValue(cells[i]);
    ints.AppendValue(Value::Int(static_cast<int64_t>(i % 2)));
  }
  ASSERT_EQ(mixed.rep(), ColumnRep::kValue);
  std::vector<size_t> ids = ExpectSameGrouping({mixed}, 6, 0);
  EXPECT_EQ(ids, (std::vector<size_t>{0, 1, 0, 1, 2, 3}));
  ExpectSameGrouping({ints, mixed}, 6, 0);
}

TEST(ColumnKeyTableTest, StringKeys) {
  ColumnVector col;
  for (const char* s : {"a", "b", "a", "", "b", "", "ab"}) {
    col.AppendValue(Value::Str(s));
  }
  std::vector<size_t> ids = ExpectSameGrouping({col}, col.size(), 0);
  EXPECT_EQ(ids, (std::vector<size_t>{0, 1, 0, 2, 1, 2, 3}));
}

TEST(ColumnKeyTableTest, GrandTotalOverZeroAndManyRows) {
  // No key columns: zero rows give zero groups, any rows give one group.
  ColumnKeyTable empty({}, 0);
  EXPECT_EQ(empty.size(), 0u);
  ColumnKeyTable total({}, 0);
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(total.FindOrInsert(r, kRowKeySeed).first, 0u);
  }
  EXPECT_EQ(total.size(), 1u);
  EXPECT_EQ(total.reps(), SelectionVector{0});
}

TEST(ColumnKeyTableTest, GrowsPastInitialCapacity) {
  // 1000 distinct composite keys (each seen twice) into a table sized for
  // none: the index rehashes several times mid-scan and the ids must still
  // be the linear scan's.
  ColumnVector a, b;
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t k = 0; k < 1000; ++k) {
      a.AppendValue(Value::Int(k % 37));
      b.AppendValue(Value::Str("s" + std::to_string(k / 37)));
    }
  }
  std::vector<size_t> ids = ExpectSameGrouping({a, b}, a.size(), 0);
  for (size_t r = 0; r < 1000; ++r) {
    EXPECT_EQ(ids[r], r);
    EXPECT_EQ(ids[r + 1000], r);
  }
}

TEST(ColumnKeyTableTest, FindProbesAnotherColumnWithValueEquality) {
  // Build on an int column, probe with a mixed column: Int(2) matches,
  // Real(2.0) does not (Value equality).
  ColumnVector build;
  for (int64_t v : {2, 4, 2}) build.AppendValue(Value::Int(v));
  std::vector<uint64_t> bh(3, kRowKeySeed);
  HashColumnCells(build, 3, bh.data());
  ColumnKeyTable table({&build}, 3);
  std::vector<Row> ref;
  for (size_t r = 0; r < 3; ++r) {
    table.FindOrInsert(r, bh[r]);
    LinearKeyId(&ref, Row{build.ValueAt(r)}, /*insert=*/true);
  }
  ColumnVector probe;
  for (const Value& v : {Value::Int(4), Value::Real(2.0), Value::Int(2),
                         Value::Str("2"), Value::Int(3)}) {
    probe.AppendValue(v);
  }
  std::vector<uint64_t> ph(probe.size(), kRowKeySeed);
  HashColumnCells(probe, probe.size(), ph.data());
  std::vector<size_t> found;
  for (size_t i = 0; i < probe.size(); ++i) {
    size_t id = table.Find({&probe}, i, ph[i]);
    EXPECT_EQ(id, LinearKeyId(&ref, Row{probe.ValueAt(i)}, /*insert=*/false))
        << "probe " << i;
    found.push_back(id);
  }
  EXPECT_EQ(found, (std::vector<size_t>{1, ColumnKeyTable::kNotFound, 0,
                                        ColumnKeyTable::kNotFound,
                                        ColumnKeyTable::kNotFound}));
  EXPECT_EQ(table.size(), 2u) << "Find must not insert";
}

/// One int64 key column holding `values`, and its HashRowKey-chain hashes.
struct IntKeys {
  ColumnVector col{ColumnRep::kInt64};
  std::vector<uint64_t> hashes;

  explicit IntKeys(const std::vector<int64_t>& values) {
    for (int64_t v : values) col.AppendValue(Value::Int(v));
    hashes.assign(values.size(), kRowKeySeed);
    HashColumnCells(col, values.size(), hashes.data());
  }
};

TEST(ColumnKeyTableTest, CollidingHashesStayDistinct) {
  // Force distinct keys onto the same hash: open addressing must probe past
  // the collision and keep both keys findable with separate ids — in the
  // table and in the shared KeyIdIndex core under it.
  const uint64_t hash = 0xdeadbeefULL;
  IntKeys k({1, 2, 1, 2});
  ColumnKeyTable table({&k.col}, 0);
  std::vector<size_t> ids;
  std::vector<bool> inserted;
  for (size_t r = 0; r < 4; ++r) {
    auto [id, ins] = table.FindOrInsert(r, hash);
    ids.push_back(id);
    inserted.push_back(ins);
  }
  EXPECT_EQ(inserted, (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(ids, (std::vector<size_t>{0, 1, 0, 1}));
  EXPECT_EQ(table.Find({&k.col}, 1, hash), 1u);

  KeyIdIndex index;
  const int64_t keys[] = {1, 2, 1, 2};
  std::vector<int64_t> stored;
  for (int64_t key : keys) {
    auto [id, ins] = index.FindOrInsert(
        hash, [&](size_t id) { return stored[id] == key; });
    if (ins) stored.push_back(key);
    EXPECT_EQ(stored[id], key);
  }
  EXPECT_EQ(index.size(), 2u);
}

TEST(ColumnKeyTableTest, SurvivesRehash) {
  // Default capacity is tiny; hundreds of keys force several growth steps.
  // Pre-sized for all of them, the table never grows; ids are the same.
  const int kKeys = 500;
  std::vector<int64_t> values;
  for (int i = 0; i < kKeys; ++i) values.push_back(i);
  IntKeys k(values);
  IntKeys absent({kKeys});
  for (size_t expected_keys : {size_t{0}, values.size()}) {
    ColumnKeyTable table({&k.col}, expected_keys);
    for (size_t r = 0; r < values.size(); ++r) {
      auto [id, inserted] = table.FindOrInsert(r, k.hashes[r]);
      EXPECT_TRUE(inserted);
      EXPECT_EQ(id, r);  // ids stay dense across growth
    }
    EXPECT_EQ(table.size(), values.size());
    for (size_t r = 0; r < values.size(); ++r) {
      EXPECT_EQ(table.Find({&k.col}, r, k.hashes[r]), r);
    }
    EXPECT_EQ(table.Find({&absent.col}, 0, absent.hashes[0]),
              ColumnKeyTable::kNotFound);
  }
}

// The sort key column kinds the typed comparator specializes on.
enum class KeyKind { kInt, kDouble, kString, kValue, kDemoted, kNulls };

const KeyKind kAllKinds[] = {KeyKind::kInt,    KeyKind::kDouble,
                             KeyKind::kString, KeyKind::kValue,
                             KeyKind::kDemoted, KeyKind::kNulls};

// `n` cells of the given kind from small domains, so sorts see many ties
// and later keys break them.
ColumnVector KeyColumn(KeyKind kind, size_t n, bool with_nan, uint32_t seed) {
  std::mt19937 rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {-0.0, 0.0, 1.5, -2.0,
                            std::numeric_limits<double>::infinity(),
                            with_nan ? nan : 3.0};
  const char* strings[] = {"", "a", "b", "ab"};
  ColumnVector col;
  if (kind == KeyKind::kValue) col = ColumnVector(ColumnRep::kValue);
  if (kind == KeyKind::kNulls) col = ColumnVector(ColumnRep::kInt64);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t x = rng();
    switch (kind) {
      case KeyKind::kInt:
        col.AppendValue(Value::Int(static_cast<int64_t>(x % 4) - 1));
        break;
      case KeyKind::kDouble:
        col.AppendValue(Value::Real(doubles[x % 6]));
        break;
      case KeyKind::kString:
        col.AppendValue(Value::Str(strings[x % 4]));
        break;
      case KeyKind::kValue:
      case KeyKind::kDemoted:
        // kDemoted starts typed (int) and demotes at its first non-int.
        if (i < n / 2 && kind == KeyKind::kDemoted) {
          col.AppendValue(Value::Int(x % 3));
        } else if (x % 3 == 0) {
          col.AppendValue(Value::Int(x % 2));
        } else if (x % 3 == 1) {
          col.AppendValue(Value::Real(doubles[x % 6]));
        } else {
          col.AppendValue(Value::Str(strings[x % 4]));
        }
        break;
      case KeyKind::kNulls:
        if (x % 3 == 0) {
          col.AppendNull();
        } else {
          col.AppendValue(Value::Int(x % 3));
        }
        break;
    }
  }
  return col;
}

SelectionVector Identity(size_t n) {
  SelectionVector perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  return perm;
}

SelectionVector SortWithCompareCells(const std::vector<ColumnVector>& cols,
                                     SelectionVector perm) {
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    for (const ColumnVector& col : cols) {
      int c = CompareCells(col, a, col, b);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return perm;
}

SelectionVector SortTyped(const std::vector<ColumnVector>& cols,
                          SelectionVector perm) {
  std::vector<const ColumnVector*> keys;
  for (const ColumnVector& col : cols) keys.push_back(&col);
  SortRowIndices(keys, &perm);
  return perm;
}

TEST(SortRowIndicesTest, SameTwoKeyPermutationAsCompareCellsForEveryRepPair) {
  // 16 rows (NaN included: insertion-sort range, where a NaN key cannot
  // walk std::sort out of bounds) and 300 rows (introsort partitioning;
  // no NaN, whose incomparability is not a strict weak order).
  for (auto [n, with_nan] : {std::pair<size_t, bool>{16, true},
                             std::pair<size_t, bool>{300, false}}) {
    uint32_t seed = 1;
    for (KeyKind k1 : kAllKinds) {
      for (KeyKind k2 : kAllKinds) {
        std::vector<ColumnVector> cols = {KeyColumn(k1, n, with_nan, seed),
                                          KeyColumn(k2, n, with_nan, seed + 1)};
        seed += 2;
        if (k1 == KeyKind::kDemoted) {
          ASSERT_EQ(cols[0].rep(), ColumnRep::kValue);
        }
        // Sorted from identity, and from a selection-like subset.
        SelectionVector all = Identity(n);
        EXPECT_EQ(SortTyped(cols, all), SortWithCompareCells(cols, all))
            << "kinds " << static_cast<int>(k1) << "," << static_cast<int>(k2)
            << " n " << n;
        SelectionVector odd;
        for (uint32_t i = 1; i < n; i += 2) odd.push_back(i);
        EXPECT_EQ(SortTyped(cols, odd), SortWithCompareCells(cols, odd));
        // Single-key sorts take the raw-payload fast path.
        std::vector<ColumnVector> one = {cols[0]};
        EXPECT_EQ(SortTyped(one, all), SortWithCompareCells(one, all))
            << "kind " << static_cast<int>(k1) << " n " << n;
      }
    }
  }
}

TEST(SortRowIndicesTest, NoKeysLeavesEveryRowTied) {
  SelectionVector perm = Identity(40);
  EXPECT_EQ(SortTyped({}, perm), SortWithCompareCells({}, perm));
}

TEST(NumBatchesTest, CeilDivisionAndEdgeCases) {
  EXPECT_EQ(NumBatches(0, 4096), 0);
  EXPECT_EQ(NumBatches(1, 4096), 1);
  EXPECT_EQ(NumBatches(4096, 4096), 1);
  EXPECT_EQ(NumBatches(4097, 4096), 2);
  EXPECT_EQ(NumBatches(10, 1), 10);
  EXPECT_EQ(NumBatches(10, 0), 0);  // guarded: batch paths never use 0
}

}  // namespace
}  // namespace scx
