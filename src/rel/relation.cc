#include "rel/relation.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>

#include "rel/column_batch.h"
#include "util/logging.h"

namespace gus {

struct Relation::Storage {
  explicit Storage(ColumnarRelation c) : columns(std::move(c)) {}

  ColumnarRelation columns;
  std::mutex mu;
  std::map<std::string, uint64_t> fingerprints;  // guarded by mu
};

Relation::Relation() : Relation(Schema(), {}) {}

Relation::Relation(Schema schema, std::vector<std::string> lineage_schema)
    : Relation(ColumnarRelation(std::make_shared<const BatchLayout>(
          BatchLayout{std::move(schema), std::move(lineage_schema)}))) {}

Relation::Relation(ColumnarRelation columns)
    : storage_(std::make_shared<Storage>(std::move(columns))) {}

const Schema& Relation::schema() const { return storage_->columns.schema(); }

const std::vector<std::string>& Relation::lineage_schema() const {
  return storage_->columns.lineage_schema();
}

int64_t Relation::num_rows() const { return storage_->columns.num_rows(); }

Row Relation::row(int64_t i) const { return storage_->columns.data().RowAt(i); }

LineageRow Relation::lineage(int64_t i) const {
  return storage_->columns.data().LineageRowAt(i);
}

ColumnarRelation* Relation::MutableColumns() {
  // Copies of this relation and ColumnarCatalog snapshots keep the
  // content they saw; a sole owner writes in place and forgets the
  // fingerprints of its old content.
  //
  // use_count() alone is a relaxed load. Copying the pointer increments
  // the count with an acquire-release read-modify-write, so a count of
  // two seen after the copy orders this write after the last reads of
  // every holder that has let go (its decrement releases), in a form
  // ThreadSanitizer models.
  bool sole_owner;
  {
    const std::shared_ptr<Storage> probe = storage_;
    sole_owner = probe.use_count() == 2;
  }
  if (!sole_owner) {
    storage_ = std::make_shared<Storage>(storage_->columns);
  } else {
    storage_->fingerprints.clear();
  }
  return &storage_->columns;
}

void Relation::AppendRow(const Row& row, const LineageRow& lineage) {
  GUS_CHECK(static_cast<int>(row.size()) == schema().num_columns() &&
            "row arity must match the column schema");
  GUS_CHECK(lineage.size() == lineage_schema().size() &&
            "lineage arity must match the lineage schema");
  ColumnBatch* data = MutableColumns()->mutable_data();
  for (size_t c = 0; c < row.size(); ++c) {
    GUS_CHECK(data->mutable_column(static_cast<int>(c))
                  ->AppendValue(row[c])
                  .ok() &&
              "value type must match the column type");
  }
  data->mutable_lineage()->insert(data->mutable_lineage()->end(),
                                  lineage.begin(), lineage.end());
  data->SetNumRows(data->num_rows() + 1);
}

Status Relation::AppendRowChecked(const Row& row, const LineageRow& lineage) {
  const Schema& cols = schema();
  if (static_cast<int>(row.size()) != cols.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match the column schema arity " +
        std::to_string(cols.num_columns()));
  }
  if (lineage.size() != lineage_schema().size()) {
    return Status::InvalidArgument(
        "lineage arity " + std::to_string(lineage.size()) +
        " does not match the lineage schema arity " +
        std::to_string(lineage_schema().size()));
  }
  for (int c = 0; c < cols.num_columns(); ++c) {
    if (row[c].type() != cols.column(c).type) {
      return Status::TypeError(
          "column '" + cols.column(c).name + "' of type " +
          ValueTypeName(cols.column(c).type) + " cannot hold a " +
          ValueTypeName(row[c].type()) + " value");
    }
  }
  AppendRow(row, lineage);
  return Status::OK();
}

void Relation::Reserve(int64_t n) {
  MutableColumns()->mutable_data()->Reserve(n);
}

std::shared_ptr<const ColumnarRelation> Relation::Columnar() const {
  return std::shared_ptr<const ColumnarRelation>(storage_,
                                                 &storage_->columns);
}

uint64_t Relation::Fingerprint(const std::string& name) const {
  std::lock_guard<std::mutex> lock(storage_->mu);
  auto [it, added] = storage_->fingerprints.try_emplace(name, 0);
  if (added) it->second = ContentFingerprint(name, storage_->columns.data());
  return it->second;
}

Relation Relation::MakeBase(const std::string& name, Schema schema,
                            const std::vector<Row>& rows) {
  Relation rel(std::move(schema), {name});
  rel.Reserve(static_cast<int64_t>(rows.size()));
  uint64_t id = 0;
  for (const Row& row : rows) rel.AppendRow(row, {id++});
  return rel;
}

Relation Relation::MakeBaseWithIds(const std::string& name, Schema schema,
                                   const std::vector<Row>& rows,
                                   const std::vector<uint64_t>& ids) {
  GUS_CHECK(rows.size() == ids.size());
  Relation rel(std::move(schema), {name});
  rel.Reserve(static_cast<int64_t>(rows.size()));
  for (size_t i = 0; i < rows.size(); ++i) rel.AppendRow(rows[i], {ids[i]});
  return rel;
}

Relation Relation::MakeBaseFromColumns(const std::string& name, Schema schema,
                                       std::vector<ColumnData> columns) {
  GUS_CHECK(static_cast<int>(columns.size()) == schema.num_columns());
  const int64_t n = columns.empty() ? 0 : columns[0].size();
  for (int c = 0; c < schema.num_columns(); ++c) {
    GUS_CHECK(columns[c].type == schema.column(c).type &&
              columns[c].size() == n);
  }
  Relation rel(std::move(schema), {name});
  ColumnBatch* data = rel.storage_->columns.mutable_data();
  for (size_t c = 0; c < columns.size(); ++c) {
    *data->mutable_column(static_cast<int>(c)) = std::move(columns[c]);
  }
  data->mutable_lineage()->resize(static_cast<size_t>(n));
  std::iota(data->mutable_lineage()->begin(), data->mutable_lineage()->end(),
            uint64_t{0});
  data->SetNumRows(n);
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
  out << "Relation" << schema().ToString() << " lineage[";
  for (size_t i = 0; i < lineage_schema().size(); ++i) {
    if (i) out << ",";
    out << lineage_schema()[i];
  }
  out << "] rows=" << num_rows() << "\n";
  const int64_t shown = std::min<int64_t>(max_rows, num_rows());
  for (int64_t r = 0; r < shown; ++r) {
    const Row values = row(r);
    const LineageRow ids = lineage(r);
    out << "  ";
    for (size_t c = 0; c < values.size(); ++c) {
      if (c) out << " | ";
      out << values[c].ToString();
    }
    out << "   <";
    for (size_t l = 0; l < ids.size(); ++l) {
      if (l) out << ",";
      out << ids[l];
    }
    out << ">\n";
  }
  if (shown < num_rows()) out << "  ... (" << num_rows() - shown << " more)\n";
  return out.str();
}

}  // namespace gus
