#include "rel/operators.h"

#include "kernels/join_hash_table.h"
#include "rel/column_batch.h"
#include "util/hash.h"
#include "util/logging.h"

namespace gus {

namespace {

Result<bool> EvalPredicate(const ExprPtr& bound, const Row& row) {
  GUS_ASSIGN_OR_RETURN(Value v, bound->Eval(row));
  if (!v.is_numeric()) {
    return Status::TypeError("predicate must evaluate to a numeric/boolean");
  }
  return v.ToDouble() != 0.0;
}

Status CheckJoinable(const Relation& left, const Relation& right) {
  if (!Relation::LineageDisjoint(left, right)) {
    return Status::InvalidArgument(
        "join inputs must have disjoint lineage schemas (self-joins are not "
        "supported by the GUS algebra, paper Prop. 6)");
  }
  return Status::OK();
}

std::vector<std::string> ConcatLineageSchema(const Relation& left,
                                             const Relation& right) {
  std::vector<std::string> ls = left.lineage_schema();
  ls.insert(ls.end(), right.lineage_schema().begin(),
            right.lineage_schema().end());
  return ls;
}

LineageRow ConcatLineage(const LineageRow& a, const LineageRow& b) {
  LineageRow out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

Row ConcatRows(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

Result<Relation> Select(const Relation& input, const ExprPtr& predicate) {
  GUS_ASSIGN_OR_RETURN(ExprPtr bound, predicate->Bind(input.schema()));
  Relation out(input.schema(), input.lineage_schema());
  out.Reserve(input.num_rows());
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    const Row row = input.row(i);
    GUS_ASSIGN_OR_RETURN(bool keep, EvalPredicate(bound, row));
    if (keep) out.AppendRow(row, input.lineage(i));
  }
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<NamedExpr>& exprs) {
  if (exprs.empty()) {
    return Status::InvalidArgument("projection needs at least one column");
  }
  std::vector<ExprPtr> bound;
  bound.reserve(exprs.size());
  for (const auto& ne : exprs) {
    GUS_ASSIGN_OR_RETURN(ExprPtr b, ne.expr->Bind(input.schema()));
    bound.push_back(std::move(b));
  }
  // Infer output column types from the first row (or default to float64).
  std::vector<Column> cols;
  for (size_t c = 0; c < exprs.size(); ++c) {
    ValueType t = ValueType::kFloat64;
    if (input.num_rows() > 0) {
      GUS_ASSIGN_OR_RETURN(Value v, bound[c]->Eval(input.row(0)));
      t = v.type();
    }
    cols.push_back({exprs[c].name, t});
  }
  Relation out(Schema(std::move(cols)), input.lineage_schema());
  out.Reserve(input.num_rows());
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    const Row in = input.row(i);
    Row row;
    row.reserve(exprs.size());
    for (size_t c = 0; c < exprs.size(); ++c) {
      GUS_ASSIGN_OR_RETURN(Value v, bound[c]->Eval(in));
      row.push_back(std::move(v));
    }
    out.AppendRow(row, input.lineage(i));
  }
  return out;
}

Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::string& left_key,
                          const std::string& right_key) {
  GUS_RETURN_NOT_OK(CheckJoinable(left, right));
  GUS_ASSIGN_OR_RETURN(int lk, left.schema().IndexOf(left_key));
  GUS_ASSIGN_OR_RETURN(int rk, right.schema().IndexOf(right_key));
  GUS_ASSIGN_OR_RETURN(Schema schema,
                       Schema::Concat(left.schema(), right.schema()));

  // Build on the smaller input.
  const bool build_left = left.num_rows() <= right.num_rows();
  const Relation& build = build_left ? left : right;
  const Relation& probe = build_left ? right : left;
  const int bk = build_left ? lk : rk;
  const int pk = build_left ? rk : lk;

  // Flat open-addressing build (kernels/join_hash_table.h): candidates per
  // hash come back in build input order, pinning the match order and
  // keeping the output deterministic and identical across all engines.
  // Key matching uses KeyEquals, so equal numeric keys join even when the
  // two columns differ in type (int64 vs float64); a true 64-bit collision
  // between distinct build keys fails loudly at build.
  const std::shared_ptr<const ColumnarRelation> build_cols = build.Columnar();
  const std::shared_ptr<const ColumnarRelation> probe_cols = probe.Columnar();
  const ColumnData& build_key = build_cols->data().column(bk);
  const ColumnData& probe_key = probe_cols->data().column(pk);
  std::vector<uint64_t> hashes(static_cast<size_t>(build.num_rows()));
  for (int64_t i = 0; i < build.num_rows(); ++i) {
    hashes[i] = build_key.ValueAt(i).Hash();
  }
  JoinHashTable table;
  GUS_RETURN_NOT_OK(table.Build(
      hashes.data(), build.num_rows(), [&build_key](int64_t i, int64_t j) {
        // Not a true collision when the keys compare equal OR are
        // bit-identical floats (e.g. two NaNs — same hash input, but
        // unequal under ==; they simply never match at probe time).
        const Value a = build_key.ValueAt(i);
        const Value b = build_key.ValueAt(j);
        if (a.KeyEquals(b)) return true;
        if (a.type() == ValueType::kFloat64 &&
            b.type() == ValueType::kFloat64) {
          uint64_t ab, bb;
          const double ad = a.AsFloat64(), bd = b.AsFloat64();
          __builtin_memcpy(&ab, &ad, sizeof(ab));
          __builtin_memcpy(&bb, &bd, sizeof(bb));
          return ab == bb;
        }
        return false;
      }));

  Relation out(std::move(schema), ConcatLineageSchema(left, right));
  // Most probe rows match ~1 build row in the paper's workloads; a
  // probe-sized reservation removes the bulk of the growth reallocations.
  out.Reserve(probe.num_rows());
  for (int64_t j = 0; j < probe.num_rows(); ++j) {
    const Value key = probe_key.ValueAt(j);
    const JoinHashTable::Range cands = table.Find(key.Hash());
    for (const int64_t* p = cands.begin; p != cands.end; ++p) {
      const int64_t i = *p;
      if (!build_key.ValueAt(i).KeyEquals(key)) continue;  // cross-type
      const int64_t li = build_left ? i : j;
      const int64_t ri = build_left ? j : i;
      out.AppendRow(ConcatRows(left.row(li), right.row(ri)),
                    ConcatLineage(left.lineage(li), right.lineage(ri)));
    }
  }
  return out;
}

Result<Relation> ThetaJoin(const Relation& left, const Relation& right,
                           const ExprPtr& condition) {
  GUS_ASSIGN_OR_RETURN(Relation prod, CrossProduct(left, right));
  return Select(prod, condition);
}

Result<Relation> CrossProduct(const Relation& left, const Relation& right) {
  GUS_RETURN_NOT_OK(CheckJoinable(left, right));
  GUS_ASSIGN_OR_RETURN(Schema schema,
                       Schema::Concat(left.schema(), right.schema()));
  Relation out(std::move(schema), ConcatLineageSchema(left, right));
  out.Reserve(left.num_rows() * right.num_rows());
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    for (int64_t j = 0; j < right.num_rows(); ++j) {
      out.AppendRow(ConcatRows(left.row(i), right.row(j)),
                    ConcatLineage(left.lineage(i), right.lineage(j)));
    }
  }
  return out;
}

Status CheckUnionLayouts(const BatchLayout& a, const BatchLayout& b) {
  if (!(a.schema == b.schema)) {
    return Status::InvalidArgument("union inputs must share a column schema");
  }
  if (a.lineage_schema != b.lineage_schema) {
    return Status::InvalidArgument(
        "union inputs must share a lineage schema (samples of the same "
        "expression, paper Prop. 7)");
  }
  return Status::OK();
}

Result<Relation> UnionDistinctLineage(const Relation& a, const Relation& b) {
  const std::shared_ptr<const ColumnarRelation> a_cols = a.Columnar();
  const std::shared_ptr<const ColumnarRelation> b_cols = b.Columnar();
  GUS_RETURN_NOT_OK(CheckUnionLayouts(a_cols->layout(), b_cols->layout()));
  Relation out(a.schema(), a.lineage_schema());
  out.Reserve(a.num_rows() + b.num_rows());
  const int arity = a_cols->layout().lineage_arity();
  LineageRowSet seen(arity, a.num_rows() + b.num_rows());
  auto add_all = [&](const Relation& rel, const ColumnarRelation& cols) {
    const uint64_t* lineage = cols.data().lineage().data();
    for (int64_t i = 0; i < rel.num_rows(); ++i) {
      if (seen.Insert(lineage + i * arity)) {
        out.AppendRow(rel.row(i), rel.lineage(i));
      }
    }
  };
  add_all(a, *a_cols);
  add_all(b, *b_cols);
  return out;
}

Result<double> AggregateSum(const Relation& input, const ExprPtr& expr) {
  GUS_ASSIGN_OR_RETURN(ExprPtr bound, expr->Bind(input.schema()));
  double sum = 0.0;
  for (int64_t i = 0; i < input.num_rows(); ++i) {
    GUS_ASSIGN_OR_RETURN(Value v, bound->Eval(input.row(i)));
    if (!v.is_numeric()) {
      return Status::TypeError("SUM over non-numeric expression");
    }
    sum += v.ToDouble();
  }
  return sum;
}

Result<double> AggregateCount(const Relation& input) {
  return static_cast<double>(input.num_rows());
}

Result<double> AggregateAvg(const Relation& input, const ExprPtr& expr) {
  if (input.num_rows() == 0) {
    return Status::InvalidArgument("AVG over empty relation");
  }
  GUS_ASSIGN_OR_RETURN(double sum, AggregateSum(input, expr));
  return sum / static_cast<double>(input.num_rows());
}

}  // namespace gus
