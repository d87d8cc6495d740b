#ifndef SCX_COMMON_VALUE_H_
#define SCX_COMMON_VALUE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"

namespace scx {

/// Column data types supported by the engine.
enum class DataType {
  kInt64,
  kDouble,
  kString,
};

/// Returns "INT64" / "DOUBLE" / "STRING".
const char* DataTypeName(DataType type);

/// A single scalar value. Small, copyable, totally ordered within a type.
/// Cross-type comparisons order by type index first (deterministic canonical
/// ordering used when sorting result sets for comparison in tests).
class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Str(std::string v) { return Value(std::move(v)); }

  DataType type() const {
    switch (data_.index()) {
      case 0:
        return DataType::kInt64;
      case 1:
        return DataType::kDouble;
      default:
        return DataType::kString;
    }
  }

  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  int64_t as_int() const { return std::get<int64_t>(data_); }
  double as_double() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 widened to double; dies on strings.
  double AsNumeric() const;

  /// Stable 64-bit hash used for hash partitioning and hash aggregation.
  uint64_t Hash() const;

  /// Approximate serialized width in bytes (used by the cost model and the
  /// executor's shuffle byte accounting).
  int64_t ByteWidth() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.data_ == b.data_;
  }
  friend std::strong_ordering operator<=>(const Value& a, const Value& b);

 private:
  std::variant<int64_t, double, std::string> data_;
};

/// A row is a flat vector of values positionally aligned with a Schema.
using Row = std::vector<Value>;

/// Stable hash of selected row positions (for partitioning on a column set).
uint64_t HashRowKey(const Row& row, const std::vector<int>& positions);

/// int64 +, - and * with two's-complement wraparound: the scripts' integer
/// arithmetic and integer Sum semantics. Signed overflow is undefined in
/// C++, so the operation runs on uint64_t, where it wraps by definition,
/// and converts back (a modular conversion since C++20).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

}  // namespace scx

#endif  // SCX_COMMON_VALUE_H_
