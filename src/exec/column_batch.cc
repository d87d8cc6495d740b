#include "exec/column_batch.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/hash.h"

namespace scx {

namespace {

ColumnRep RepOf(const Value& v) {
  if (v.is_int()) return ColumnRep::kInt64;
  if (v.is_double()) return ColumnRep::kDouble;
  return ColumnRep::kString;
}

}  // namespace

size_t ColumnVector::size() const {
  switch (rep_) {
    case ColumnRep::kInt64:
      return ints_.size();
    case ColumnRep::kDouble:
      return doubles_.size();
    case ColumnRep::kString:
      return strings_.size();
    case ColumnRep::kValue:
      return values_.size();
  }
  return 0;
}

void ColumnVector::Reserve(size_t n) {
  switch (rep_) {
    case ColumnRep::kInt64:
      ints_.reserve(n);
      break;
    case ColumnRep::kDouble:
      doubles_.reserve(n);
      break;
    case ColumnRep::kString:
      strings_.reserve(n);
      break;
    case ColumnRep::kValue:
      values_.reserve(n);
      break;
  }
}

void ColumnVector::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  values_.clear();
  nulls_.clear();
}

void ColumnVector::Demote() {
  std::vector<Value> vals;
  vals.reserve(size());
  for (size_t i = 0; i < size(); ++i) vals.push_back(ValueAt(i));
  values_ = std::move(vals);
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  rep_ = ColumnRep::kValue;
}

void ColumnVector::AppendValue(const Value& v) {
  if (!adopted_) {
    rep_ = RepOf(v);
    adopted_ = true;
  }
  switch (rep_) {
    case ColumnRep::kInt64:
      if (v.is_int()) {
        ints_.push_back(v.as_int());
      } else {
        Demote();
        values_.push_back(v);
      }
      break;
    case ColumnRep::kDouble:
      if (v.is_double()) {
        doubles_.push_back(v.as_double());
      } else {
        Demote();
        values_.push_back(v);
      }
      break;
    case ColumnRep::kString:
      if (v.is_string()) {
        strings_.push_back(v.as_string());
      } else {
        Demote();
        values_.push_back(v);
      }
      break;
    case ColumnRep::kValue:
      values_.push_back(v);
      break;
  }
  if (!nulls_.empty()) nulls_.push_back(0);
}

void ColumnVector::AppendNull() {
  if (nulls_.empty()) nulls_.assign(size(), 0);
  switch (rep_) {
    case ColumnRep::kInt64:
      ints_.push_back(0);
      break;
    case ColumnRep::kDouble:
      doubles_.push_back(0.0);
      break;
    case ColumnRep::kString:
      strings_.emplace_back();
      break;
    case ColumnRep::kValue:
      values_.emplace_back();
      break;
  }
  adopted_ = true;
  nulls_.push_back(1);
}

size_t ColumnVector::null_count() const {
  size_t n = 0;
  for (uint8_t b : nulls_) n += b;
  return n;
}

Value ColumnVector::ValueAt(size_t i) const {
  switch (rep_) {
    case ColumnRep::kInt64:
      return Value::Int(ints_[i]);
    case ColumnRep::kDouble:
      return Value::Real(doubles_[i]);
    case ColumnRep::kString:
      return Value::Str(strings_[i]);
    case ColumnRep::kValue:
      return values_[i];
  }
  return Value::Int(0);
}

bool ColumnVector::CellEquals(size_t i, const Value& v) const {
  switch (rep_) {
    case ColumnRep::kInt64:
      return v.is_int() && v.as_int() == ints_[i];
    case ColumnRep::kDouble:
      return v.is_double() && v.as_double() == doubles_[i];
    case ColumnRep::kString:
      return v.is_string() && v.as_string() == strings_[i];
    case ColumnRep::kValue:
      return values_[i] == v;
  }
  return false;
}

uint64_t ColumnVector::CellHash(size_t i) const {
  switch (rep_) {
    case ColumnRep::kInt64:
      return Mix64(static_cast<uint64_t>(ints_[i]));
    case ColumnRep::kDouble: {
      double d = doubles_[i];
      if (d == 0.0) d = 0.0;  // normalize -0.0, mirroring Value::Hash
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits ^ 0x5555555555555555ULL);
    }
    case ColumnRep::kString:
      return Fnv1a64(strings_[i]);
    case ColumnRep::kValue:
      return values_[i].Hash();
  }
  return 0;
}

ColumnBatch BatchFromRows(const std::vector<Row>& rows, size_t begin,
                          size_t end, size_t num_columns,
                          const std::vector<int>& wanted) {
  ColumnBatch batch;
  batch.rows = end - begin;
  batch.columns.resize(num_columns);
  for (int pos : wanted) {
    ColumnVector& col = batch.columns[static_cast<size_t>(pos)];
    if (!col.empty()) continue;  // duplicate request
    col.Reserve(batch.rows);
    for (size_t r = begin; r < end; ++r) {
      col.AppendValue(rows[r][static_cast<size_t>(pos)]);
    }
  }
  return batch;
}

void AppendBatchRows(const ColumnBatch& batch, std::vector<Row>* out) {
  out->reserve(out->size() + batch.rows);
  for (size_t i = 0; i < batch.rows; ++i) {
    Row row;
    row.reserve(batch.columns.size());
    for (const ColumnVector& col : batch.columns) {
      if (col.IsNull(i)) {
        std::fprintf(stderr,
                     "scx: fatal: null cell in row conversion (rows cannot "
                     "represent nulls)\n");
        std::abort();
      }
      row.push_back(col.ValueAt(i));
    }
    out->push_back(std::move(row));
  }
}

void AppendRowsFromColumns(const std::vector<const ColumnVector*>& cols,
                           size_t rows, std::vector<Row>* out) {
  out->reserve(out->size() + rows);
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    row.reserve(cols.size());
    for (const ColumnVector* col : cols) row.push_back(col->ValueAt(i));
    out->push_back(std::move(row));
  }
}

void ColumnVector::AppendColumn(const ColumnVector& src,
                                const SelectionVector* sel) {
  const size_t n = sel != nullptr ? sel->size() : src.size();
  if (n == 0) return;
  // Per-cell fallback keeps adopt/demote and null semantics exact whenever
  // a bulk copy is not obviously equivalent.
  const bool bulk = src.nulls_.empty() && nulls_.empty() &&
                    (!adopted_ || rep_ == src.rep_);
  if (!bulk) {
    for (size_t k = 0; k < n; ++k) {
      size_t i = sel != nullptr ? (*sel)[k] : k;
      if (src.IsNull(i)) {
        AppendNull();
      } else {
        AppendValue(src.ValueAt(i));
      }
    }
    return;
  }
  if (!adopted_) {
    rep_ = src.rep_;
    adopted_ = true;
  }
  auto copy = [&](auto& dst, const auto& from) {
    if (sel == nullptr) {
      dst.insert(dst.end(), from.begin(), from.end());
      return;
    }
    dst.reserve(dst.size() + n);
    for (uint32_t i : *sel) dst.push_back(from[i]);
  };
  switch (rep_) {
    case ColumnRep::kInt64:
      copy(ints_, src.ints_);
      break;
    case ColumnRep::kDouble:
      copy(doubles_, src.doubles_);
      break;
    case ColumnRep::kString:
      copy(strings_, src.strings_);
      break;
    case ColumnRep::kValue:
      copy(values_, src.values_);
      break;
  }
}

ColumnVector GatherColumn(const ColumnVector& col,
                          const SelectionVector& sel) {
  ColumnVector out(col.rep());
  out.Reserve(sel.size());
  out.AppendColumn(col, &sel);
  return out;
}

int CompareCells(const ColumnVector& a, size_t i, const ColumnVector& b,
                 size_t j) {
  if (a.rep() == b.rep()) {
    switch (a.rep()) {
      case ColumnRep::kInt64: {
        int64_t x = a.ints()[i], y = b.ints()[j];
        return (x > y) - (x < y);
      }
      case ColumnRep::kDouble: {
        double x = a.doubles()[i], y = b.doubles()[j];
        return (x > y) - (x < y);
      }
      case ColumnRep::kString: {
        int c = a.strings()[i].compare(b.strings()[j]);
        return (c > 0) - (c < 0);
      }
      case ColumnRep::kValue: {
        auto c = a.values()[i] <=> b.values()[j];
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
    }
  }
  auto c = a.ValueAt(i) <=> b.ValueAt(j);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

void SortRowIndices(const std::vector<const ColumnVector*>& keys,
                    SelectionVector* perm) {
  if (keys.size() == 1) {
    // `x < y` is exactly `CompareCells(...) < 0` for each rep (NaN included:
    // both are false).
    auto by = [&](const auto* v) {
      std::sort(perm->begin(), perm->end(),
                [v](uint32_t a, uint32_t b) { return v[a] < v[b]; });
    };
    const ColumnVector& col = *keys[0];
    switch (col.rep()) {
      case ColumnRep::kInt64:
        return by(col.ints().data());
      case ColumnRep::kDouble:
        return by(col.doubles().data());
      case ColumnRep::kString:
        return by(col.strings().data());
      case ColumnRep::kValue:
        return by(col.values().data());
    }
  }
  std::sort(perm->begin(), perm->end(), [&](uint32_t a, uint32_t b) {
    for (const ColumnVector* col : keys) {
      int c = CompareCells(*col, a, *col, b);
      if (c != 0) return c < 0;
    }
    return false;
  });
}

int CompareCellValue(const ColumnVector& a, size_t i, const Value& v) {
  switch (a.rep()) {
    case ColumnRep::kInt64:
      if (v.is_int()) {
        int64_t x = a.ints()[i], y = v.as_int();
        return (x > y) - (x < y);
      }
      break;
    case ColumnRep::kDouble:
      if (v.is_double()) {
        double x = a.doubles()[i], y = v.as_double();
        return (x > y) - (x < y);
      }
      break;
    case ColumnRep::kString:
      if (v.is_string()) {
        int c = a.strings()[i].compare(v.as_string());
        return (c > 0) - (c < 0);
      }
      break;
    case ColumnRep::kValue:
      break;
  }
  auto c = a.ValueAt(i) <=> v;
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

int64_t ColumnLiveBytes(const ColumnVector& col, const SelectionVector* sel) {
  const size_t n = sel != nullptr ? sel->size() : col.size();
  switch (col.rep()) {
    case ColumnRep::kInt64:
    case ColumnRep::kDouble:
      return static_cast<int64_t>(n) * 8;
    case ColumnRep::kString: {
      int64_t total = 0;
      if (sel != nullptr) {
        for (uint32_t i : *sel) {
          total += static_cast<int64_t>(col.strings()[i].size()) + 4;
        }
      } else {
        for (const std::string& s : col.strings()) {
          total += static_cast<int64_t>(s.size()) + 4;
        }
      }
      return total;
    }
    case ColumnRep::kValue: {
      int64_t total = 0;
      if (sel != nullptr) {
        for (uint32_t i : *sel) total += col.values()[i].ByteWidth();
      } else {
        for (const Value& v : col.values()) total += v.ByteWidth();
      }
      return total;
    }
  }
  return 0;
}

ColumnBatchView ViewOf(const ColumnBatch& batch) {
  ColumnBatchView view;
  view.rows = batch.rows;
  view.columns.reserve(batch.columns.size());
  for (const ColumnVector& col : batch.columns) view.columns.push_back(&col);
  return view;
}

ColumnBatchView BatchPartition::View() const {
  ColumnBatchView view;
  view.rows = rows;
  view.columns.reserve(columns.size());
  for (const ColumnPtr& col : columns) view.columns.push_back(col.get());
  return view;
}

int64_t BatchData::TotalLiveRows() const {
  int64_t n = 0;
  for (const BatchPartition& p : partitions) {
    n += static_cast<int64_t>(p.LiveRows());
  }
  return n;
}

int64_t BatchData::TotalLiveBytes() const {
  int64_t n = 0;
  for (const BatchPartition& p : partitions) {
    for (const ColumnPtr& col : p.columns) {
      if (col != nullptr) n += ColumnLiveBytes(*col, p.Selection());
    }
  }
  return n;
}

BatchPartition CompactPartition(const BatchPartition& part) {
  if (!part.filtered) return part;
  BatchPartition out;
  out.rows = part.sel.size();
  out.columns.reserve(part.columns.size());
  for (const ColumnPtr& col : part.columns) {
    if (col == nullptr) {
      out.columns.push_back(nullptr);
      continue;
    }
    out.columns.push_back(
        std::make_shared<ColumnVector>(GatherColumn(*col, part.sel)));
  }
  return out;
}

BatchPartition PartitionFromRows(const std::vector<Row>& rows,
                                 size_t num_columns) {
  BatchPartition out;
  out.rows = rows.size();
  out.columns.reserve(num_columns);
  for (size_t pos = 0; pos < num_columns; ++pos) {
    auto col = std::make_shared<ColumnVector>();
    col->Reserve(rows.size());
    for (const Row& r : rows) col->AppendValue(r[pos]);
    out.columns.push_back(std::move(col));
  }
  return out;
}

void AppendPartitionRows(const BatchPartition& part, std::vector<Row>* out) {
  const size_t n = part.LiveRows();
  out->reserve(out->size() + n);
  for (size_t k = 0; k < n; ++k) {
    size_t i = part.filtered ? part.sel[k] : k;
    Row row;
    row.reserve(part.columns.size());
    for (const ColumnPtr& col : part.columns) {
      if (col->IsNull(i)) {
        std::fprintf(stderr,
                     "scx: fatal: null cell in row conversion (rows cannot "
                     "represent nulls)\n");
        std::abort();
      }
      row.push_back(col->ValueAt(i));
    }
    out->push_back(std::move(row));
  }
}

}  // namespace scx
