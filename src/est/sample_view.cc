#include "est/sample_view.h"

namespace gus {

Result<std::vector<int>> MapAnalysisDims(
    const std::vector<std::string>& lineage_schema,
    const LineageSchema& schema) {
  if (static_cast<int>(lineage_schema.size()) != schema.arity()) {
    return Status::InvalidArgument(
        "relation lineage arity does not match the analysis schema");
  }
  std::vector<int> source(schema.arity());
  for (int d = 0; d < schema.arity(); ++d) {
    const auto& name = schema.relation(d);
    int found = -1;
    for (size_t c = 0; c < lineage_schema.size(); ++c) {
      if (lineage_schema[c] == name) {
        found = static_cast<int>(c);
        break;
      }
    }
    if (found < 0) {
      return Status::KeyError("analysis schema relation '" + name +
                              "' missing from the relation's lineage");
    }
    source[d] = found;
  }
  return source;
}

Result<SampleView> SampleView::FromRelation(const Relation& rel,
                                            const ExprPtr& f_expr,
                                            const LineageSchema& schema) {
  // Map analysis dimension -> relation lineage column.
  GUS_ASSIGN_OR_RETURN(std::vector<int> source,
                       MapAnalysisDims(rel.lineage_schema(), schema));

  GUS_ASSIGN_OR_RETURN(ExprPtr bound, f_expr->Bind(rel.schema()));

  SampleView view;
  view.schema = schema;
  view.lineage.assign(schema.arity(), {});
  for (auto& col : view.lineage) col.reserve(rel.num_rows());
  view.f.reserve(rel.num_rows());
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    GUS_ASSIGN_OR_RETURN(Value v, bound->Eval(rel.row(i)));
    if (!v.is_numeric()) {
      return Status::TypeError("aggregate expression must be numeric");
    }
    view.f.push_back(v.ToDouble());
    const LineageRow lineage = rel.lineage(i);
    for (int d = 0; d < schema.arity(); ++d) {
      view.lineage[d].push_back(lineage[source[d]]);
    }
  }
  return view;
}

Status SampleView::Merge(SampleView&& other) {
  if (!(schema == other.schema)) {
    return Status::InvalidArgument(
        "cannot merge SampleViews with different lineage schemas");
  }
  if (f.empty()) {
    *this = std::move(other);
    return Status::OK();
  }
  f.insert(f.end(), other.f.begin(), other.f.end());
  for (size_t d = 0; d < lineage.size(); ++d) {
    lineage[d].insert(lineage[d].end(), other.lineage[d].begin(),
                      other.lineage[d].end());
  }
  return Status::OK();
}

double SampleView::SumF() const {
  double s = 0.0;
  for (double v : f) s += v;
  return s;
}

}  // namespace gus
