#include "plan/scalar.h"

#include "common/hash.h"

namespace scx {

const char* BinOpName(ScalarExpr::BinOp op) {
  switch (op) {
    case ScalarExpr::BinOp::kAdd:
      return "+";
    case ScalarExpr::BinOp::kSub:
      return "-";
    case ScalarExpr::BinOp::kMul:
      return "*";
    case ScalarExpr::BinOp::kDiv:
      return "/";
  }
  return "?";
}

ScalarExprPtr ScalarExpr::Column(ColumnId id) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kColumn;
  e->column_ = id;
  return e;
}

ScalarExprPtr ScalarExpr::Literal(Value value) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ScalarExprPtr ScalarExpr::Binary(BinOp op, ScalarExprPtr lhs,
                                 ScalarExprPtr rhs) {
  auto e = std::shared_ptr<ScalarExpr>(new ScalarExpr());
  e->kind_ = Kind::kBinary;
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

Value ScalarExpr::Evaluate(const Row& row, const Schema& schema) const {
  switch (kind_) {
    case Kind::kColumn:
      return row[static_cast<size_t>(schema.PositionOf(column_))];
    case Kind::kLiteral:
      return literal_;
    case Kind::kBinary: {
      Value l = lhs_->Evaluate(row, schema);
      Value r = rhs_->Evaluate(row, schema);
      if (op_ == BinOp::kDiv) {
        double d = r.AsNumeric();
        return Value::Real(d == 0 ? 0.0 : l.AsNumeric() / d);
      }
      if (l.is_int() && r.is_int()) {
        int64_t a = l.as_int(), b = r.as_int();
        switch (op_) {
          case BinOp::kAdd:
            return Value::Int(WrapAdd(a, b));
          case BinOp::kSub:
            return Value::Int(WrapSub(a, b));
          case BinOp::kMul:
            return Value::Int(WrapMul(a, b));
          case BinOp::kDiv:
            break;  // handled above
        }
      }
      double a = l.AsNumeric(), b = r.AsNumeric();
      switch (op_) {
        case BinOp::kAdd:
          return Value::Real(a + b);
        case BinOp::kSub:
          return Value::Real(a - b);
        case BinOp::kMul:
          return Value::Real(a * b);
        case BinOp::kDiv:
          break;
      }
      return Value::Real(0);
    }
  }
  return Value::Int(0);
}

DataType ScalarExpr::ResultType(
    const std::function<DataType(ColumnId)>& type_of) const {
  switch (kind_) {
    case Kind::kColumn:
      return type_of(column_);
    case Kind::kLiteral:
      return literal_.type();
    case Kind::kBinary: {
      if (op_ == BinOp::kDiv) return DataType::kDouble;
      DataType l = lhs_->ResultType(type_of);
      DataType r = rhs_->ResultType(type_of);
      if (l == DataType::kInt64 && r == DataType::kInt64) {
        return DataType::kInt64;
      }
      return DataType::kDouble;
    }
  }
  return DataType::kInt64;
}

ColumnSet ScalarExpr::ReferencedColumns() const {
  switch (kind_) {
    case Kind::kColumn:
      return ColumnSet::Of({column_});
    case Kind::kLiteral:
      return {};
    case Kind::kBinary:
      return lhs_->ReferencedColumns().Union(rhs_->ReferencedColumns());
  }
  return {};
}

uint64_t ScalarExpr::Hash() const {
  switch (kind_) {
    case Kind::kColumn:
      return HashCombine(0x6c01, column_);
    case Kind::kLiteral:
      return HashCombine(0x6c02, literal_.Hash());
    case Kind::kBinary:
      return HashCombine(
          HashCombine(0x6c03, static_cast<uint64_t>(op_)),
          HashCombine(lhs_->Hash(), rhs_->Hash()));
  }
  return 0;
}

bool ScalarExpr::EqualsMapped(
    const ScalarExpr& other,
    const std::map<ColumnId, ColumnId>& other_to_this) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kColumn: {
      auto it = other_to_this.find(other.column_);
      ColumnId mapped = it == other_to_this.end() ? other.column_ : it->second;
      return column_ == mapped;
    }
    case Kind::kLiteral:
      return literal_ == other.literal_;
    case Kind::kBinary:
      return op_ == other.op_ &&
             lhs_->EqualsMapped(*other.lhs_, other_to_this) &&
             rhs_->EqualsMapped(*other.rhs_, other_to_this);
  }
  return false;
}

ScalarExprPtr ScalarExpr::Remap(
    const std::map<ColumnId, ColumnId>& remap) const {
  switch (kind_) {
    case Kind::kColumn: {
      auto it = remap.find(column_);
      if (it == remap.end()) return Column(column_);
      return Column(it->second);
    }
    case Kind::kLiteral:
      return Literal(literal_);
    case Kind::kBinary:
      return Binary(op_, lhs_->Remap(remap), rhs_->Remap(remap));
  }
  return nullptr;
}

std::string ScalarExpr::ToString(
    const std::function<std::string(ColumnId)>& namer) const {
  switch (kind_) {
    case Kind::kColumn:
      return namer(column_);
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kBinary:
      return "(" + lhs_->ToString(namer) + BinOpName(op_) +
             rhs_->ToString(namer) + ")";
  }
  return "?";
}

}  // namespace scx
