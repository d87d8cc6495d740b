#ifndef SCX_PLAN_COLUMN_REGISTRY_H_
#define SCX_PLAN_COLUMN_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/column_set.h"
#include "common/value.h"

namespace scx {

/// Plan-wide metadata for one column id.
struct ColumnMeta {
  std::string name;
  DataType type = DataType::kInt64;
  /// Distinct-value count for base (extracted) columns; 0 when the value must
  /// be derived by the cardinality estimator (aggregate outputs etc.).
  int64_t base_ndv = 0;
  /// Average byte width.
  int64_t avg_width = 8;
};

/// Dense registry of every column id minted while binding one script.
/// Shared by the plan, the optimizer's cardinality estimation, and the
/// executor.
class ColumnRegistry {
 public:
  /// Mints a fresh column id with the given metadata.
  ColumnId Create(ColumnMeta meta) {
    columns_.push_back(std::move(meta));
    return static_cast<ColumnId>(columns_.size() - 1);
  }

  const ColumnMeta& Get(ColumnId id) const {
    return columns_[static_cast<size_t>(id)];
  }

  int NumColumns() const { return static_cast<int>(columns_.size()); }

 private:
  std::vector<ColumnMeta> columns_;
};

using ColumnRegistryPtr = std::shared_ptr<ColumnRegistry>;

}  // namespace scx

#endif  // SCX_PLAN_COLUMN_REGISTRY_H_
