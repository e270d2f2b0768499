#include "plan/vector_eval.h"

#include <string>
#include <utility>

#include "kernels/simd/simd_dispatch.h"
#include "util/logging.h"

namespace gus {

namespace {

/// Either a borrowed column (leaf references into the batch) or an owned
/// intermediate — avoids copying whole columns for column-reference leaves.
struct EvalOut {
  const ColumnData* ref = nullptr;
  ColumnData owned;

  const ColumnData& get() const { return ref != nullptr ? *ref : owned; }
};

double ElemToDouble(const ColumnData& col, int64_t i) {
  return col.type == ValueType::kInt64 ? static_cast<double>(col.i64[i])
                                       : col.f64[i];
}

Status NumericOperandError(ExprOp op) {
  return Status::TypeError(std::string("operator ") + ExprOpSymbol(op) +
                           " requires numeric operands");
}

Result<EvalOut> ArithmeticBatch(ExprOp op, const ColumnData& l,
                                const ColumnData& r, int64_t n) {
  if (l.type == ValueType::kString || r.type == ValueType::kString) {
    return NumericOperandError(op);
  }
  EvalOut out;
  // Integer arithmetic stays integral; mixed and division promote to
  // float64 (mirrors NumericBinary in rel/expression.cc).
  if (l.type == ValueType::kInt64 && r.type == ValueType::kInt64 &&
      op != ExprOp::kDiv) {
    out.owned.type = ValueType::kInt64;
    auto& dst = out.owned.i64;
    dst.resize(n);
    switch (op) {
      case ExprOp::kAdd:
        for (int64_t i = 0; i < n; ++i) dst[i] = l.i64[i] + r.i64[i];
        break;
      case ExprOp::kSub:
        for (int64_t i = 0; i < n; ++i) dst[i] = l.i64[i] - r.i64[i];
        break;
      case ExprOp::kMul:
        for (int64_t i = 0; i < n; ++i) dst[i] = l.i64[i] * r.i64[i];
        break;
      default:
        return Status::Internal("not a numeric op");
    }
    return out;
  }
  out.owned.type = ValueType::kFloat64;
  auto& dst = out.owned.f64;
  dst.resize(n);
  switch (op) {
    case ExprOp::kAdd:
      for (int64_t i = 0; i < n; ++i) {
        dst[i] = ElemToDouble(l, i) + ElemToDouble(r, i);
      }
      break;
    case ExprOp::kSub:
      for (int64_t i = 0; i < n; ++i) {
        dst[i] = ElemToDouble(l, i) - ElemToDouble(r, i);
      }
      break;
    case ExprOp::kMul:
      for (int64_t i = 0; i < n; ++i) {
        dst[i] = ElemToDouble(l, i) * ElemToDouble(r, i);
      }
      break;
    case ExprOp::kDiv:
      for (int64_t i = 0; i < n; ++i) {
        const double b = ElemToDouble(r, i);
        if (b == 0.0) return Status::InvalidArgument("division by zero");
        dst[i] = ElemToDouble(l, i) / b;
      }
      break;
    default:
      return Status::Internal("not a numeric op");
  }
  return out;
}

bool CompareOp(ExprOp op, int cmp) {
  switch (op) {
    case ExprOp::kEq: return cmp == 0;
    case ExprOp::kNe: return cmp != 0;
    case ExprOp::kLt: return cmp < 0;
    case ExprOp::kLe: return cmp <= 0;
    case ExprOp::kGt: return cmp > 0;
    case ExprOp::kGe: return cmp >= 0;
    default: GUS_CHECK(false && "not a comparison op"); return false;
  }
}

Result<EvalOut> CompareBatch(ExprOp op, const ColumnData& l,
                             const ColumnData& r, int64_t n) {
  EvalOut out;
  out.owned.type = ValueType::kInt64;
  auto& dst = out.owned.i64;
  dst.resize(n);
  const bool l_str = l.type == ValueType::kString;
  const bool r_str = r.type == ValueType::kString;
  if (!l_str && !r_str) {
    for (int64_t i = 0; i < n; ++i) {
      const double a = ElemToDouble(l, i), b = ElemToDouble(r, i);
      const int cmp = a < b ? -1 : (a > b ? 1 : 0);
      dst[i] = CompareOp(op, cmp) ? 1 : 0;
    }
    return out;
  }
  if (l_str && r_str) {
    // Interned codes within one dictionary are unique, so same-dict
    // equality reduces to code equality.
    if (l.dict == r.dict && l.dict != nullptr &&
        (op == ExprOp::kEq || op == ExprOp::kNe)) {
      const bool want_equal = op == ExprOp::kEq;
      for (int64_t i = 0; i < n; ++i) {
        dst[i] = ((l.codes[i] == r.codes[i]) == want_equal) ? 1 : 0;
      }
      return out;
    }
    for (int64_t i = 0; i < n; ++i) {
      const int c = l.StringAt(i).compare(r.StringAt(i));
      const int cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
      dst[i] = CompareOp(op, cmp) ? 1 : 0;
    }
    return out;
  }
  return Status::TypeError(
      "cannot compare " + std::string(ValueTypeName(l.type)) + " with " +
      ValueTypeName(r.type));
}

Status Truthify(const ColumnData& col, int64_t n, std::vector<char>* out) {
  if (col.type == ValueType::kString) {
    return Status::TypeError("boolean context requires a numeric value");
  }
  out->resize(n);
  if (col.type == ValueType::kInt64) {
    for (int64_t i = 0; i < n; ++i) (*out)[i] = col.i64[i] != 0;
  } else {
    for (int64_t i = 0; i < n; ++i) (*out)[i] = col.f64[i] != 0.0;
  }
  return Status::OK();
}

/// Marks the columns a bound expression reads (used[i] = 1).
void CollectColumns(const Expr& e, std::vector<char>* used) {
  if (e.op() == ExprOp::kColumn) {
    const int idx = e.column_index();
    if (idx >= 0 && idx < static_cast<int>(used->size())) (*used)[idx] = 1;
    return;
  }
  if (e.op() == ExprOp::kLiteral) return;
  if (e.left() != nullptr) CollectColumns(*e.left(), used);
  if (e.right() != nullptr) CollectColumns(*e.right(), used);
}

Result<EvalOut> EvalNode(const Expr& e, const ColumnBatch& batch) {
  const int64_t n = batch.num_rows();
  switch (e.op()) {
    case ExprOp::kColumn: {
      const int idx = e.column_index();
      if (idx < 0 || idx >= batch.num_columns()) {
        return Status::Internal("unbound or out-of-range column '" +
                                e.column_name() + "' — call Bind() first");
      }
      EvalOut out;
      out.ref = &batch.column(idx);
      return out;
    }
    case ExprOp::kLiteral: {
      EvalOut out;
      out.owned.type = e.literal().type();
      switch (e.literal().type()) {
        case ValueType::kInt64:
          out.owned.i64.assign(n, e.literal().AsInt64());
          break;
        case ValueType::kFloat64:
          out.owned.f64.assign(n, e.literal().AsFloat64());
          break;
        case ValueType::kString: {
          out.owned.dict = std::make_shared<StringDict>();
          const uint32_t code =
              out.owned.dict->Intern(e.literal().AsString());
          out.owned.codes.assign(n, code);
          break;
        }
      }
      return out;
    }
    case ExprOp::kNeg: {
      GUS_ASSIGN_OR_RETURN(EvalOut arg, EvalNode(*e.left(), batch));
      const ColumnData& col = arg.get();
      if (col.type == ValueType::kString) {
        return Status::TypeError("negation of non-number");
      }
      EvalOut out;
      out.owned.type = col.type;
      if (col.type == ValueType::kInt64) {
        out.owned.i64.resize(n);
        for (int64_t i = 0; i < n; ++i) out.owned.i64[i] = -col.i64[i];
      } else {
        out.owned.f64.resize(n);
        for (int64_t i = 0; i < n; ++i) out.owned.f64[i] = -col.f64[i];
      }
      return out;
    }
    case ExprOp::kNot: {
      GUS_ASSIGN_OR_RETURN(EvalOut arg, EvalNode(*e.left(), batch));
      std::vector<char> truth;
      GUS_RETURN_NOT_OK(Truthify(arg.get(), n, &truth));
      EvalOut out;
      out.owned.type = ValueType::kInt64;
      out.owned.i64.resize(n);
      for (int64_t i = 0; i < n; ++i) out.owned.i64[i] = truth[i] ? 0 : 1;
      return out;
    }
    case ExprOp::kAnd:
    case ExprOp::kOr: {
      // Row-level short-circuit, vectorized: the right operand only
      // evaluates over the rows whose outcome it decides, so guard
      // predicates like `x <> 0 AND 1/x > 2` behave exactly as in the row
      // engine.
      GUS_ASSIGN_OR_RETURN(EvalOut l, EvalNode(*e.left(), batch));
      std::vector<char> lt;
      GUS_RETURN_NOT_OK(Truthify(l.get(), n, &lt));
      const bool is_and = e.op() == ExprOp::kAnd;
      EvalOut out;
      out.owned.type = ValueType::kInt64;
      out.owned.i64.resize(n);
      std::vector<int64_t> undecided;
      for (int64_t i = 0; i < n; ++i) {
        if (static_cast<bool>(lt[i]) == is_and) {
          undecided.push_back(i);
        } else {
          out.owned.i64[i] = is_and ? 0 : 1;  // short-circuited
        }
      }
      if (undecided.empty()) return out;
      std::vector<char> rt;
      if (static_cast<int64_t>(undecided.size()) == n) {
        GUS_ASSIGN_OR_RETURN(EvalOut r, EvalNode(*e.right(), batch));
        GUS_RETURN_NOT_OK(Truthify(r.get(), n, &rt));
        for (int64_t i = 0; i < n; ++i) out.owned.i64[i] = rt[i] ? 1 : 0;
        return out;
      }
      // The sub-batch only carries the columns the right subtree reads
      // (and no lineage) — the rest of a wide row never gets copied.
      std::vector<char> used(batch.num_columns(), 0);
      CollectColumns(*e.right(), &used);
      ColumnBatch sub(batch.layout_ptr());
      sub.GatherColumnsFrom(batch, undecided.data(),
                            static_cast<int64_t>(undecided.size()), used);
      GUS_ASSIGN_OR_RETURN(EvalOut r, EvalNode(*e.right(), sub));
      GUS_RETURN_NOT_OK(
          Truthify(r.get(), static_cast<int64_t>(undecided.size()), &rt));
      for (size_t k = 0; k < undecided.size(); ++k) {
        out.owned.i64[undecided[k]] = rt[k] ? 1 : 0;
      }
      return out;
    }
    case ExprOp::kAdd:
    case ExprOp::kSub:
    case ExprOp::kMul:
    case ExprOp::kDiv: {
      GUS_ASSIGN_OR_RETURN(EvalOut l, EvalNode(*e.left(), batch));
      GUS_ASSIGN_OR_RETURN(EvalOut r, EvalNode(*e.right(), batch));
      return ArithmeticBatch(e.op(), l.get(), r.get(), n);
    }
    default: {
      GUS_ASSIGN_OR_RETURN(EvalOut l, EvalNode(*e.left(), batch));
      GUS_ASSIGN_OR_RETURN(EvalOut r, EvalNode(*e.right(), batch));
      return CompareBatch(e.op(), l.get(), r.get(), n);
    }
  }
}

bool CmpOpFromExpr(ExprOp op, simd::CmpOp* out) {
  switch (op) {
    case ExprOp::kEq: *out = simd::CmpOp::kEq; return true;
    case ExprOp::kNe: *out = simd::CmpOp::kNe; return true;
    case ExprOp::kLt: *out = simd::CmpOp::kLt; return true;
    case ExprOp::kLe: *out = simd::CmpOp::kLe; return true;
    case ExprOp::kGt: *out = simd::CmpOp::kGt; return true;
    case ExprOp::kGe: *out = simd::CmpOp::kGe; return true;
    default: return false;
  }
}

/// Operator seen from the swapped operand order: a OP b == b MIRROR(OP) a.
/// Exact even against NaN, because cmp(b, a) == -cmp(a, b) in every case.
simd::CmpOp MirrorCmp(simd::CmpOp op) {
  switch (op) {
    case simd::CmpOp::kLt: return simd::CmpOp::kGt;
    case simd::CmpOp::kLe: return simd::CmpOp::kGe;
    case simd::CmpOp::kGt: return simd::CmpOp::kLt;
    case simd::CmpOp::kGe: return simd::CmpOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

/// \brief Fused compare -> selection-vector path for the common predicate
/// shape `column OP column` / `column OP literal` over numeric operands.
///
/// Skips the materialized 0/1 column entirely: one dispatched kernel call
/// produces the selection vector, with the same promote-to-double compare
/// semantics as CompareBatch. Returns false (sel untouched) for any shape
/// it does not cover; the caller then takes the general EvalNode path.
bool TryFusedCompare(const Expr& e, const ColumnBatch& batch,
                     std::vector<int64_t>* sel) {
  simd::CmpOp op;
  if (!CmpOpFromExpr(e.op(), &op)) return false;
  const Expr* lhs = e.left().get();
  const Expr* rhs = e.right().get();
  if (lhs == nullptr || rhs == nullptr) return false;
  if (lhs->op() == ExprOp::kLiteral && rhs->op() == ExprOp::kColumn) {
    std::swap(lhs, rhs);
    op = MirrorCmp(op);
  }
  if (lhs->op() != ExprOp::kColumn) return false;
  const int li = lhs->column_index();
  if (li < 0 || li >= batch.num_columns()) return false;
  const ColumnData& lc = batch.column(li);
  if (lc.type == ValueType::kString) return false;
  const int64_t n = batch.num_rows();

  if (rhs->op() == ExprOp::kLiteral) {
    const Value& lit = rhs->literal();
    double litv;
    if (lit.type() == ValueType::kInt64) {
      litv = static_cast<double>(lit.AsInt64());
    } else if (lit.type() == ValueType::kFloat64) {
      litv = lit.AsFloat64();
    } else {
      return false;
    }
    sel->resize(static_cast<size_t>(n));
    const int64_t w =
        lc.type == ValueType::kInt64
            ? simd::SelCmpI64Lit(op, lc.i64.data(), n, litv, sel->data())
            : simd::SelCmpF64Lit(op, lc.f64.data(), n, litv, sel->data());
    sel->resize(static_cast<size_t>(w));
    return true;
  }

  if (rhs->op() != ExprOp::kColumn) return false;
  const int ri = rhs->column_index();
  if (ri < 0 || ri >= batch.num_columns()) return false;
  const ColumnData& rc = batch.column(ri);
  if (rc.type == ValueType::kString) return false;
  sel->resize(static_cast<size_t>(n));
  int64_t w;
  if (lc.type == ValueType::kInt64) {
    w = rc.type == ValueType::kInt64
            ? simd::SelCmpI64I64(op, lc.i64.data(), rc.i64.data(), n,
                                 sel->data())
            : simd::SelCmpI64F64(op, lc.i64.data(), rc.f64.data(), n,
                                 sel->data());
  } else {
    w = rc.type == ValueType::kInt64
            ? simd::SelCmpF64I64(op, lc.f64.data(), rc.i64.data(), n,
                                 sel->data())
            : simd::SelCmpF64F64(op, lc.f64.data(), rc.f64.data(), n,
                                 sel->data());
  }
  sel->resize(static_cast<size_t>(w));
  return true;
}

}  // namespace

Result<ColumnData> EvalExprBatch(const ExprPtr& bound,
                                 const ColumnBatch& batch) {
  GUS_ASSIGN_OR_RETURN(EvalOut out, EvalNode(*bound, batch));
  if (out.ref != nullptr) return *out.ref;  // copy only at the API boundary
  return std::move(out.owned);
}

Status EvalPredicateBatch(const ExprPtr& bound, const ColumnBatch& batch,
                          std::vector<int64_t>* sel) {
  sel->clear();
  if (TryFusedCompare(*bound, batch, sel)) return Status::OK();
  GUS_ASSIGN_OR_RETURN(EvalOut out, EvalNode(*bound, batch));
  const ColumnData& col = out.get();
  if (col.type == ValueType::kString) {
    return Status::TypeError("predicate must evaluate to a numeric/boolean");
  }
  const int64_t n = batch.num_rows();
  sel->resize(static_cast<size_t>(n));
  const int64_t w =
      col.type == ValueType::kInt64
          ? simd::SelNonZeroI64(col.i64.data(), n, sel->data())
          : simd::SelNonZeroF64(col.f64.data(), n, sel->data());
  sel->resize(static_cast<size_t>(w));
  return Status::OK();
}

void ExprColumnFootprint(const ExprPtr& bound, int num_columns,
                         std::vector<char>* out) {
  out->assign(static_cast<size_t>(num_columns), 0);
  CollectColumns(*bound, out);
}

Status EvalPredicateView(const ExprPtr& bound, const SelView& view,
                         const std::vector<char>& footprint,
                         ColumnBatch* scratch,
                         std::vector<int64_t>* range_scratch,
                         std::vector<int64_t>* sel_out) {
  sel_out->clear();
  if (view.num_rows() == 0) return Status::OK();
  if (view.whole_batch()) {
    // The view is a whole batch already: no gather, indexes line up.
    return EvalPredicateBatch(bound, *view.data, sel_out);
  }
  const int64_t* sel = view.sel;
  int64_t len = view.sel_len;
  if (view.contiguous()) {
    range_scratch->resize(static_cast<size_t>(view.len));
    for (int64_t i = 0; i < view.len; ++i) {
      (*range_scratch)[i] = view.begin + i;
    }
    sel = range_scratch->data();
    len = view.len;
  }
  if (scratch->layout_ptr() != view.data->layout_ptr()) {
    scratch->ResetLayout(view.data->layout_ptr());
  } else {
    scratch->Clear();
  }
  scratch->GatherColumnsFrom(*view.data, sel, len, footprint);
  GUS_RETURN_NOT_OK(EvalPredicateBatch(bound, *scratch, sel_out));
  // Remap scratch-local positions back to underlying row indexes in place.
  for (int64_t& k : *sel_out) k = sel[k];
  return Status::OK();
}

Status EvalExprBatchToDoubles(const ExprPtr& bound, const ColumnBatch& batch,
                              const char* type_error_message,
                              std::vector<double>* out) {
  GUS_ASSIGN_OR_RETURN(EvalOut result, EvalNode(*bound, batch));
  const ColumnData& col = result.get();
  if (col.type == ValueType::kString) {
    return Status::TypeError(type_error_message);
  }
  if (col.type == ValueType::kFloat64) {
    out->insert(out->end(), col.f64.begin(), col.f64.end());
  } else {
    const size_t base = out->size();
    out->resize(base + col.i64.size());
    simd::ConvertI64ToF64(col.i64.data(),
                          static_cast<int64_t>(col.i64.size()),
                          out->data() + base);
  }
  return Status::OK();
}

}  // namespace gus
