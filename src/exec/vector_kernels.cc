#include "exec/vector_kernels.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace scx {

namespace {

bool NumericRep(ColumnRep r) {
  return r == ColumnRep::kInt64 || r == ColumnRep::kDouble;
}

/// Three-way result of BoundPredicate::Evaluate's comparison rules.
inline int Cmp3(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

inline int CmpPredicateValues(const Value& l, const Value& r) {
  if (l.type() != r.type() && !l.is_string() && !r.is_string()) {
    return Cmp3(l.AsNumeric(), r.AsNumeric());
  }
  auto c = l <=> r;
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

inline bool PassOp(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

/// Which three-way compare outcomes (<, ==, >) an operator accepts, hoisted
/// out of the inner loops: the per-lane mask is then pure arithmetic —
/// no operator switch, no branch — which is what lets the compiler
/// auto-vectorize the dense compare loops.
struct CmpWants {
  uint8_t lt, eq, gt;
};

inline CmpWants WantsOf(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return {0, 1, 0};
    case CompareOp::kNe:
      return {1, 0, 1};
    case CompareOp::kLt:
      return {1, 0, 0};
    case CompareOp::kLe:
      return {1, 1, 0};
    case CompareOp::kGt:
      return {0, 0, 1};
    case CompareOp::kGe:
      return {0, 1, 1};
  }
  return {0, 0, 0};
}

/// `PassOp(op, c)` for a three-way compare c in {-1, 0, +1}, branch-free.
inline uint8_t MaskCmp3(const CmpWants& w, int c) {
  return static_cast<uint8_t>((w.lt & (c < 0)) | (w.eq & (c == 0)) |
                              (w.gt & (c > 0)));
}

/// Rows per compare-mask block of the dense selection path: small enough to
/// stay in L1 alongside the key column, large enough to amortize the call.
constexpr size_t kSelectBlock = 1024;

/// First-predicate selection over physical rows [0, rows): `fill` writes
/// a 0/1 byte mask for one block (the auto-vectorized compare loop), then
/// the passing indices are appended branchlessly — sel[w] = i; w += mask[i]
/// — so a selectivity-dependent branch never enters the hot loop.
template <typename MaskFill>
void DenseSelect(size_t rows, SelectionVector* sel, const MaskFill& fill) {
  sel->clear();
  sel->resize(rows);
  uint32_t* out = sel->data();
  size_t w = 0;
  uint8_t mask[kSelectBlock];
  for (size_t base = 0; base < rows; base += kSelectBlock) {
    const size_t n = std::min(rows - base, kSelectBlock);
    fill(base, n, mask);
    for (size_t i = 0; i < n; ++i) {
      out[w] = static_cast<uint32_t>(base + i);
      w += mask[i];
    }
  }
  sel->resize(w);
}

/// Re-filter of an existing selection: compacts it in place, branch-free
/// on the predicate outcome (`pass` returns 0 or 1).
template <typename PassFn>
void SparseSelect(SelectionVector* sel, const PassFn& pass) {
  uint32_t* data = sel->data();
  const size_t m = sel->size();
  size_t w = 0;
  for (size_t k = 0; k < m; ++k) {
    const uint32_t i = data[k];
    data[w] = i;
    w += pass(i);
  }
  sel->resize(w);
}

/// Generic fallback: runs `pass(i)` over rows [0, rows) (first
/// predicate) or over the current selection, compacting it in place. Used
/// by the string and mixed-rep paths that cannot vectorize anyway.
template <typename PassFn>
void RunSelect(size_t rows, bool first, SelectionVector* sel, PassFn pass) {
  if (first) {
    sel->clear();
    sel->reserve(rows);
    for (uint32_t i = 0; i < static_cast<uint32_t>(rows); ++i) {
      if (pass(i)) sel->push_back(i);
    }
    return;
  }
  size_t w = 0;
  for (uint32_t i : *sel) {
    if (pass(i)) (*sel)[w++] = i;
  }
  sel->resize(w);
}

/// Cell as double; caller guarantees a numeric rep.
inline double NumericAt(const ColumnVector& col, size_t i) {
  return col.rep() == ColumnRep::kInt64
             ? static_cast<double>(col.ints()[i])
             : col.doubles()[i];
}

/// The exact binary-operator semantics of ScalarExpr::Evaluate, on cells.
Value EvalBinaryValue(ScalarExpr::BinOp op, const Value& l, const Value& r) {
  if (op == ScalarExpr::BinOp::kDiv) {
    double d = r.AsNumeric();
    return Value::Real(d == 0 ? 0.0 : l.AsNumeric() / d);
  }
  if (l.is_int() && r.is_int()) {
    int64_t a = l.as_int(), b = r.as_int();
    switch (op) {
      case ScalarExpr::BinOp::kAdd:
        return Value::Int(WrapAdd(a, b));
      case ScalarExpr::BinOp::kSub:
        return Value::Int(WrapSub(a, b));
      case ScalarExpr::BinOp::kMul:
        return Value::Int(WrapMul(a, b));
      case ScalarExpr::BinOp::kDiv:
        break;
    }
  }
  double a = l.AsNumeric(), b = r.AsNumeric();
  switch (op) {
    case ScalarExpr::BinOp::kAdd:
      return Value::Real(a + b);
    case ScalarExpr::BinOp::kSub:
      return Value::Real(a - b);
    case ScalarExpr::BinOp::kMul:
      return Value::Real(a * b);
    case ScalarExpr::BinOp::kDiv:
      break;
  }
  return Value::Real(0);
}

}  // namespace

void HashColumnCells(const ColumnVector& col, size_t n, uint64_t* h) {
  switch (col.rep()) {
    case ColumnRep::kInt64: {
      const int64_t* d = col.ints().data();
      // simd-guard: hash-mix-int64
      for (size_t i = 0; i < n; ++i) {
        h[i] = HashCombine(h[i], Mix64(static_cast<uint64_t>(d[i])));
      }
      break;
    }
    case ColumnRep::kDouble: {
      const double* d = col.doubles().data();
      // simd-guard: hash-mix-double
      for (size_t i = 0; i < n; ++i) {
        double v = d[i] == 0.0 ? 0.0 : d[i];  // -0.0 normalize, as Value::Hash
        uint64_t bits;
        __builtin_memcpy(&bits, &v, sizeof(bits));
        h[i] = HashCombine(h[i], Mix64(bits ^ 0x5555555555555555ULL));
      }
      break;
    }
    case ColumnRep::kString: {
      const std::vector<std::string>& d = col.strings();
      for (size_t i = 0; i < n; ++i) {
        h[i] = HashCombine(h[i], Fnv1a64(d[i]));
      }
      break;
    }
    case ColumnRep::kValue: {
      const std::vector<Value>& d = col.values();
      for (size_t i = 0; i < n; ++i) {
        h[i] = HashCombine(h[i], d[i].Hash());
      }
      break;
    }
  }
}

bool PredicatePassCells(CompareOp op, const Value& l, const Value& r) {
  return PassOp(op, CmpPredicateValues(l, r));
}

void SelectByPredicate(const ColumnVector& lhs, const ColumnVector* rhs,
                       const Value& literal, CompareOp op, size_t rows,
                       bool first, SelectionVector* sel) {
  const ColumnVector& l = lhs;
  const ColumnVector* rcol = rhs;
  const Value& lit = literal;
  const ColumnRep lr = l.rep();
  const ColumnRep rr = rcol != nullptr
                           ? rcol->rep()
                           : (lit.is_int() ? ColumnRep::kInt64
                              : lit.is_double() ? ColumnRep::kDouble
                                                : ColumnRep::kString);
  const CmpWants w = WantsOf(op);

  // Both sides int64: the canonical integer ordering.
  if (lr == ColumnRep::kInt64 && rr == ColumnRep::kInt64) {
    const int64_t* a = l.ints().data();
    if (rcol != nullptr) {
      const int64_t* b = rcol->ints().data();
      if (first) {
        DenseSelect(rows, sel,
                    [&](size_t base, size_t n, uint8_t* mask) {
                      const int64_t* pa = a + base;
                      const int64_t* pb = b + base;
                      // simd-guard: predicate-mask-int64-col
                      for (size_t i = 0; i < n; ++i) {
                        mask[i] = MaskCmp3(w, (pa[i] > pb[i]) - (pa[i] < pb[i]));
                      }
                    });
      } else {
        SparseSelect(sel, [&](uint32_t i) {
          return MaskCmp3(w, (a[i] > b[i]) - (a[i] < b[i]));
        });
      }
    } else {
      const int64_t b = lit.as_int();
      if (first) {
        DenseSelect(rows, sel,
                    [&](size_t base, size_t n, uint8_t* mask) {
                      const int64_t* pa = a + base;
                      // simd-guard: predicate-mask-int64-lit
                      for (size_t i = 0; i < n; ++i) {
                        mask[i] = MaskCmp3(w, (pa[i] > b) - (pa[i] < b));
                      }
                    });
      } else {
        SparseSelect(sel, [&](uint32_t i) {
          return MaskCmp3(w, (a[i] > b) - (a[i] < b));
        });
      }
    }
    return;
  }
  // int64 column vs double literal: the mixed-type numeric rule, with the
  // int lane cast to double (exactly Value::AsNumeric).
  if (lr == ColumnRep::kInt64 && rr == ColumnRep::kDouble && rcol == nullptr) {
    const int64_t* a = l.ints().data();
    const double b = lit.AsNumeric();
    if (first) {
      DenseSelect(rows, sel, [&](size_t base, size_t n, uint8_t* mask) {
        const int64_t* pa = a + base;
        // Branchless but unguarded: the s64->f64 lane convert needs
        // AVX-512DQ, which the CI vectorization baseline does not assume.
        for (size_t i = 0; i < n; ++i) {
          const double x = static_cast<double>(pa[i]);
          mask[i] = MaskCmp3(w, (x > b) - (x < b));
        }
      });
    } else {
      SparseSelect(sel, [&](uint32_t i) {
        const double x = static_cast<double>(a[i]);
        return MaskCmp3(w, (x > b) - (x < b));
      });
    }
    return;
  }
  // Double column vs double column or numeric literal: Cmp3's three-way
  // outcome computed per lane (NaN lands on the cmp==0 case, exactly as
  // BoundPredicate::Evaluate's comparison does).
  if (lr == ColumnRep::kDouble &&
      (rcol == nullptr ? NumericRep(rr) : rr == ColumnRep::kDouble)) {
    const double* a = l.doubles().data();
    if (rcol != nullptr) {
      const double* b = rcol->doubles().data();
      if (first) {
        DenseSelect(rows, sel,
                    [&](size_t base, size_t n, uint8_t* mask) {
                      const double* pa = a + base;
                      const double* pb = b + base;
                      // simd-guard: predicate-mask-double-col
                      for (size_t i = 0; i < n; ++i) {
                        mask[i] = MaskCmp3(w, (pa[i] > pb[i]) - (pa[i] < pb[i]));
                      }
                    });
      } else {
        SparseSelect(sel, [&](uint32_t i) {
          return MaskCmp3(w, (a[i] > b[i]) - (a[i] < b[i]));
        });
      }
    } else {
      const double b = lit.AsNumeric();
      if (first) {
        DenseSelect(rows, sel,
                    [&](size_t base, size_t n, uint8_t* mask) {
                      const double* pa = a + base;
                      // simd-guard: predicate-mask-double-lit
                      for (size_t i = 0; i < n; ++i) {
                        mask[i] = MaskCmp3(w, (pa[i] > b) - (pa[i] < b));
                      }
                    });
      } else {
        SparseSelect(sel, [&](uint32_t i) {
          return MaskCmp3(w, (a[i] > b) - (a[i] < b));
        });
      }
    }
    return;
  }
  // Remaining numeric pairs (mixed int64/double columns): numeric
  // comparison cell-at-a-time — both the mixed-type rule and the all-double
  // Value ordering reduce to Cmp3.
  if (NumericRep(lr) && NumericRep(rr)) {
    if (rcol != nullptr) {
      RunSelect(rows, first, sel, [&](uint32_t i) {
        return PassOp(op, Cmp3(NumericAt(l, i), NumericAt(*rcol, i)));
      });
    } else {
      const double b = lit.AsNumeric();
      RunSelect(rows, first, sel, [&](uint32_t i) {
        return PassOp(op, Cmp3(NumericAt(l, i), b));
      });
    }
    return;
  }
  // Both sides strings: plain string ordering.
  if (lr == ColumnRep::kString && rr == ColumnRep::kString) {
    const std::vector<std::string>& a = l.strings();
    if (rcol != nullptr) {
      const std::vector<std::string>& b = rcol->strings();
      RunSelect(rows, first, sel, [&](uint32_t i) {
        int c = a[i].compare(b[i]);
        return PassOp(op, (c > 0) - (c < 0));
      });
    } else {
      const std::string& b = lit.as_string();
      RunSelect(rows, first, sel, [&](uint32_t i) {
        int c = a[i].compare(b);
        return PassOp(op, (c > 0) - (c < 0));
      });
    }
    return;
  }
  // Mixed-rep columns or string/numeric pairs: the generic Value rules.
  RunSelect(rows, first, sel, [&](uint32_t i) {
    Value lv = l.ValueAt(i);
    Value rv = rcol != nullptr ? rcol->ValueAt(i) : lit;
    return PassOp(op, CmpPredicateValues(lv, rv));
  });
}

ColumnVector SplatColumn(const Value& v, size_t n) {
  ColumnVector out;
  out.Reserve(n);
  for (size_t i = 0; i < n; ++i) out.AppendValue(v);
  return out;
}

void EvalBinaryColumns(ScalarExpr::BinOp op, const ColumnVector& l,
                       const ColumnVector& r, size_t n, ColumnVector* out) {
  const ColumnRep lr = l.rep(), rr = r.rep();
  // Mixed-runtime-type columns fall back to cell-at-a-time Values — the
  // dynamic dispatch of ScalarExpr::Evaluate, reproduced verbatim.
  if (lr == ColumnRep::kValue || rr == ColumnRep::kValue ||
      !NumericRep(lr) || !NumericRep(rr)) {
    ColumnVector generic;
    generic.Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      generic.AppendValue(EvalBinaryValue(op, l.ValueAt(i), r.ValueAt(i)));
    }
    *out = std::move(generic);
    return;
  }
  if (op == ScalarExpr::BinOp::kDiv) {
    ColumnVector res(ColumnRep::kDouble);
    std::vector<double>* d = res.mutable_doubles();
    d->resize(n);
    if (lr == ColumnRep::kDouble && rr == ColumnRep::kDouble) {
      const double* a = l.doubles().data();
      const double* b = r.doubles().data();
      double* o = d->data();
      // Not if-converted under default trapping-math (the zero-divisor
      // guard is semantic, not speculation-safe), so no simd-guard here.
      for (size_t i = 0; i < n; ++i) {
        o[i] = b[i] == 0 ? 0.0 : a[i] / b[i];
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        double b = NumericAt(r, i);
        (*d)[i] = b == 0 ? 0.0 : NumericAt(l, i) / b;
      }
    }
    *out = std::move(res);
    return;
  }
  if (lr == ColumnRep::kInt64 && rr == ColumnRep::kInt64) {
    const int64_t* a = l.ints().data();
    const int64_t* b = r.ints().data();
    ColumnVector res(ColumnRep::kInt64);
    std::vector<int64_t>* ov = res.mutable_ints();
    ov->resize(n);
    int64_t* o = ov->data();
    switch (op) {
      case ScalarExpr::BinOp::kAdd:
        // simd-guard: arith-int64-add
        for (size_t i = 0; i < n; ++i) o[i] = WrapAdd(a[i], b[i]);
        break;
      case ScalarExpr::BinOp::kSub:
        // simd-guard: arith-int64-sub
        for (size_t i = 0; i < n; ++i) o[i] = WrapSub(a[i], b[i]);
        break;
      case ScalarExpr::BinOp::kMul:
        // simd-guard: arith-int64-mul
        for (size_t i = 0; i < n; ++i) o[i] = WrapMul(a[i], b[i]);
        break;
      case ScalarExpr::BinOp::kDiv:
        break;  // handled above
    }
    *out = std::move(res);
    return;
  }
  ColumnVector res(ColumnRep::kDouble);
  std::vector<double>* ov = res.mutable_doubles();
  ov->resize(n);
  double* o = ov->data();
  if (lr == ColumnRep::kDouble && rr == ColumnRep::kDouble) {
    const double* a = l.doubles().data();
    const double* b = r.doubles().data();
    switch (op) {
      case ScalarExpr::BinOp::kAdd:
        // simd-guard: arith-double-add
        for (size_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
        break;
      case ScalarExpr::BinOp::kSub:
        // simd-guard: arith-double-sub
        for (size_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
        break;
      case ScalarExpr::BinOp::kMul:
        // simd-guard: arith-double-mul
        for (size_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
        break;
      case ScalarExpr::BinOp::kDiv:
        break;  // handled above
    }
    *out = std::move(res);
    return;
  }
  // One int64 side: cast that lane to double (Value::AsNumeric), cell-major.
  switch (op) {
    case ScalarExpr::BinOp::kAdd:
      for (size_t i = 0; i < n; ++i) o[i] = NumericAt(l, i) + NumericAt(r, i);
      break;
    case ScalarExpr::BinOp::kSub:
      for (size_t i = 0; i < n; ++i) o[i] = NumericAt(l, i) - NumericAt(r, i);
      break;
    case ScalarExpr::BinOp::kMul:
      for (size_t i = 0; i < n; ++i) o[i] = NumericAt(l, i) * NumericAt(r, i);
      break;
    case ScalarExpr::BinOp::kDiv:
      break;  // handled above
  }
  *out = std::move(res);
}

}  // namespace scx
