#include "rel/relation.h"

#include <algorithm>
#include <sstream>

#include "rel/column_batch.h"
#include "util/logging.h"

namespace gus {

namespace {

Result<std::shared_ptr<const ColumnarRelation>> ToSharedColumnar(
    const Relation& rel) {
  GUS_ASSIGN_OR_RETURN(ColumnarRelation col,
                       ColumnarRelation::FromRelation(rel));
  return std::make_shared<const ColumnarRelation>(std::move(col));
}

}  // namespace

void Relation::AppendRow(Row row, LineageRow lineage) {
  GUS_CHECK(static_cast<int>(row.size()) == schema_.num_columns() &&
            "row arity must match the column schema");
  GUS_CHECK(lineage.size() == lineage_schema_.size() &&
            "lineage arity must match the lineage schema");
  DetachColumnarMemo();
  rows_.push_back(std::move(row));
  lineage_.push_back(std::move(lineage));
}

Status Relation::AppendRowChecked(Row row, LineageRow lineage) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match the column schema arity " +
        std::to_string(schema_.num_columns()));
  }
  if (lineage.size() != lineage_schema_.size()) {
    return Status::InvalidArgument(
        "lineage arity " + std::to_string(lineage.size()) +
        " does not match the lineage schema arity " +
        std::to_string(lineage_schema_.size()));
  }
  AppendRow(std::move(row), std::move(lineage));
  return Status::OK();
}

void Relation::DetachColumnarMemo() {
  // Other holders of the memo keep the content it describes. A sole owner
  // keeps its memo; FillColumnarLocked drops a form the appends outgrew.
  if (memo_.use_count() != 1) memo_ = std::make_shared<ColumnarMemo>();
}

Status Relation::FillColumnarLocked() const {
  // Rows are only ever appended, so a form with as many rows as the
  // relation holds exactly its content.
  if (memo_->columnar != nullptr && memo_->columnar->num_rows() == num_rows()) {
    return Status::OK();
  }
  memo_->columnar.reset();
  memo_->fingerprints.clear();
  GUS_ASSIGN_OR_RETURN(memo_->columnar, ToSharedColumnar(*this));
  return Status::OK();
}

Result<std::shared_ptr<const ColumnarRelation>> Relation::Columnar() const {
  if (memo_ == nullptr) return ToSharedColumnar(*this);
  std::lock_guard<std::mutex> lock(memo_->mu);
  GUS_RETURN_NOT_OK(FillColumnarLocked());
  return memo_->columnar;
}

Result<uint64_t> Relation::Fingerprint(const std::string& name) const {
  if (memo_ == nullptr) {
    GUS_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnarRelation> col,
                         Columnar());
    return ContentFingerprint(name, col->data());
  }
  std::lock_guard<std::mutex> lock(memo_->mu);
  GUS_RETURN_NOT_OK(FillColumnarLocked());
  auto cached = memo_->fingerprints.find(name);
  if (cached != memo_->fingerprints.end()) return cached->second;
  const uint64_t h = ContentFingerprint(name, memo_->columnar->data());
  memo_->fingerprints.emplace(name, h);
  return h;
}

Relation Relation::MakeBase(const std::string& name, Schema schema,
                            std::vector<Row> rows) {
  Relation rel(std::move(schema), {name});
  rel.Reserve(static_cast<int64_t>(rows.size()));
  uint64_t id = 0;
  for (auto& row : rows) {
    rel.AppendRow(std::move(row), {id++});
  }
  return rel;
}

Relation Relation::MakeBaseWithIds(const std::string& name, Schema schema,
                                   std::vector<Row> rows,
                                   std::vector<uint64_t> ids) {
  GUS_CHECK(rows.size() == ids.size());
  Relation rel(std::move(schema), {name});
  rel.Reserve(static_cast<int64_t>(rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) {
    rel.AppendRow(std::move(rows[i]), {ids[i]});
  }
  return rel;
}

bool Relation::LineageDisjoint(const Relation& a, const Relation& b) {
  for (const auto& name : a.lineage_schema()) {
    if (std::find(b.lineage_schema().begin(), b.lineage_schema().end(),
                  name) != b.lineage_schema().end()) {
      return false;
    }
  }
  return true;
}

std::string Relation::ToString(int64_t max_rows) const {
  std::ostringstream out;
  out << "Relation" << schema_.ToString() << " lineage[";
  for (size_t i = 0; i < lineage_schema_.size(); ++i) {
    if (i) out << ",";
    out << lineage_schema_[i];
  }
  out << "] rows=" << num_rows() << "\n";
  const int64_t shown = std::min<int64_t>(max_rows, num_rows());
  for (int64_t r = 0; r < shown; ++r) {
    out << "  ";
    for (size_t c = 0; c < rows_[r].size(); ++c) {
      if (c) out << " | ";
      out << rows_[r][c].ToString();
    }
    out << "   <";
    for (size_t l = 0; l < lineage_[r].size(); ++l) {
      if (l) out << ",";
      out << lineage_[r][l];
    }
    out << ">\n";
  }
  if (shown < num_rows()) out << "  ... (" << num_rows() - shown << " more)\n";
  return out.str();
}

}  // namespace gus
