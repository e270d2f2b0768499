// Columnar storage: the layout of every Relation and of the batches the
// columnar and morsel engines stream.
//
// The hot path of the paper's estimation pipeline only ever needs the
// (lineage, f-value) stream, so values are not kept as variant Values in
// per-row vectors. The columnar layout stores one typed vector per column:
//
//   * int64   -> std::vector<int64_t>
//   * float64 -> std::vector<double>
//   * string  -> dictionary codes (std::vector<uint32_t>) into a shared,
//                append-only StringDict
//
// plus a flat row-major lineage matrix (arity * num_rows uint64s).
//
// A ColumnBatch is a bounded chunk of rows flowing through a pipeline; a
// ColumnarRelation is a fully materialized table (one big batch) used at
// pipeline breakers and as the storage of every Relation. BatchSink is the
// consumer interface the streaming estimators (est/streaming.h) implement.

#ifndef GUS_REL_COLUMN_BATCH_H_
#define GUS_REL_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/value.h"
#include "util/logging.h"
#include "util/status.h"

namespace gus {

/// \brief Append-only string dictionary shared between columns.
///
/// Codes are stable once assigned (entries are never removed or reordered),
/// so a column may extend a copy of a shared dictionary and its existing
/// codes keep their meaning. Interning guarantees code equality <=> string
/// equality within one dictionary. A dictionary held by more than one
/// column is never extended in place (ColumnData::MutableDict): a
/// relation's columns are shared read-only across threads.
struct StringDict {
  std::vector<std::string> values;
  std::unordered_map<std::string, uint32_t> index;

  uint32_t Intern(const std::string& s) {
    auto it = index.find(s);
    if (it != index.end()) return it->second;
    const auto code = static_cast<uint32_t>(values.size());
    values.push_back(s);
    index.emplace(s, code);
    return code;
  }
};

using DictPtr = std::shared_ptr<StringDict>;

/// \brief Schema + lineage schema of a batch, shared by all batches of one
/// pipeline edge (the per-batch cost is one shared_ptr).
struct BatchLayout {
  Schema schema;
  std::vector<std::string> lineage_schema;

  int lineage_arity() const {
    return static_cast<int>(lineage_schema.size());
  }
};

using LayoutPtr = std::shared_ptr<const BatchLayout>;

/// \brief One typed column of a batch.
struct ColumnData {
  ValueType type = ValueType::kFloat64;
  std::vector<int64_t> i64;     // kInt64
  std::vector<double> f64;      // kFloat64
  std::vector<uint32_t> codes;  // kString (indexes into dict)
  DictPtr dict;                 // kString only

  int64_t size() const {
    switch (type) {
      case ValueType::kInt64: return static_cast<int64_t>(i64.size());
      case ValueType::kFloat64: return static_cast<int64_t>(f64.size());
      case ValueType::kString: return static_cast<int64_t>(codes.size());
    }
    GUS_CHECK(false && "unhandled ValueType");
    return 0;
  }

  void Clear();
  void Reserve(int64_t n);

  /// The value at row `i` as a row-engine Value (strings decoded).
  Value ValueAt(int64_t i) const;
  const std::string& StringAt(int64_t i) const {
    return dict->values[codes[i]];
  }

  /// \brief This column's dictionary, ready to intern into.
  ///
  /// Creates one if absent and copies it first if another column also
  /// holds it, so only an unshared dictionary is ever extended.
  StringDict* MutableDict();

  /// Appends a Value; fails on type mismatch with the column type.
  Status AppendValue(const Value& v);
};

/// \brief A chunk of rows in columnar layout with flat row-major lineage.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  explicit ColumnBatch(LayoutPtr layout) { ResetLayout(std::move(layout)); }

  /// Re-types the batch for a new layout, dropping all data.
  void ResetLayout(LayoutPtr layout);

  const LayoutPtr& layout_ptr() const { return layout_; }
  const BatchLayout& layout() const { return *layout_; }
  const Schema& schema() const { return layout_->schema; }
  const std::vector<std::string>& lineage_schema() const {
    return layout_->lineage_schema;
  }
  int lineage_arity() const { return layout_->lineage_arity(); }

  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const ColumnData& column(int c) const { return columns_[c]; }
  ColumnData* mutable_column(int c) { return &columns_[c]; }

  /// Flat row-major lineage: row r, dim d at [r * arity + d].
  const std::vector<uint64_t>& lineage() const { return lineage_; }
  std::vector<uint64_t>* mutable_lineage() { return &lineage_; }
  uint64_t lineage_at(int64_t row, int dim) const {
    return lineage_[static_cast<size_t>(row) * layout_->lineage_arity() + dim];
  }

  /// Row `i` decoded to the row-engine representation.
  Row RowAt(int64_t i) const;
  LineageRow LineageRowAt(int64_t i) const;

  void Clear();
  void Reserve(int64_t n);

  /// Appends `len` rows of `src` starting at `begin` (same layout shape).
  void AppendRangeFrom(const ColumnBatch& src, int64_t begin, int64_t len);

  /// Appends the rows selected by `sel` (indexes into `src`).
  void GatherFrom(const ColumnBatch& src, const std::vector<int64_t>& sel) {
    GatherFrom(src, sel.data(), static_cast<int64_t>(sel.size()));
  }

  /// Pointer-range form: lets pipeline operators gather a sub-range of a
  /// persistent selection list without allocating a per-batch copy.
  void GatherFrom(const ColumnBatch& src, const int64_t* sel, int64_t len);

  /// \brief Gathers only the columns flagged in `cols` (others stay
  /// empty); lineage is not copied.
  ///
  /// For evaluator sub-batches feeding an expression with a known column
  /// footprint — reading an un-gathered column is undefined.
  void GatherColumnsFrom(const ColumnBatch& src, const int64_t* sel,
                         int64_t len, const std::vector<char>& cols);

  /// \brief Join emit: appends `len` concatenated rows, row k taking the
  /// left columns/lineage from `left` row `li[k]` and the right ones from
  /// `right` row `ri[k]`. This batch's layout must be the concatenation of
  /// the two inputs'.
  ///
  /// Column-at-a-time typed gathers (dispatched SIMD kernels). A string
  /// column adopts the source dictionary when empty, shares it when equal,
  /// and re-interns (extending its own dictionary) otherwise.
  void AppendConcatGather(const ColumnBatch& left, const int64_t* li,
                          const ColumnBatch& right, const int64_t* ri,
                          int64_t len);

  /// Internal: bump the row count after direct column/lineage writes.
  void SetNumRows(int64_t n) { num_rows_ = n; }

 private:
  LayoutPtr layout_;
  std::vector<ColumnData> columns_;
  std::vector<uint64_t> lineage_;
  int64_t num_rows_ = 0;
};

/// \brief A selection of rows over a borrowed ColumnBatch — the unit the
/// fused pipeline operators exchange instead of gathered batches.
///
/// Two shapes: a contiguous range [begin, begin + len) when `sel` is null
/// (scans, whole materialized batches), or an explicit selection vector
/// sel[0..sel_len) of row indexes into `data` (post-filter, post-sampler).
/// Selection-composing operators (select, streaming samplers) intersect
/// selections without copying column data; the gather happens once, at a
/// pipeline breaker or at the sink. Both `data` and `sel` are borrowed:
/// they stay valid until the producing source's next pull.
struct SelView {
  const ColumnBatch* data = nullptr;
  int64_t begin = 0;
  int64_t len = 0;
  const int64_t* sel = nullptr;
  int64_t sel_len = 0;

  bool contiguous() const { return sel == nullptr; }
  int64_t num_rows() const { return contiguous() ? len : sel_len; }
  /// Underlying row index of the view's k-th row.
  int64_t row(int64_t k) const { return contiguous() ? begin + k : sel[k]; }
  /// True when the view covers `data` in full (pass-through shortcut).
  bool whole_batch() const {
    return contiguous() && begin == 0 && data != nullptr &&
           len == data->num_rows();
  }

  static SelView Range(const ColumnBatch* batch, int64_t begin, int64_t len) {
    SelView v;
    v.data = batch;
    v.begin = begin;
    v.len = len;
    return v;
  }
  static SelView Whole(const ColumnBatch* batch) {
    return Range(batch, 0, batch->num_rows());
  }
  static SelView Selection(const ColumnBatch* batch,
                           const std::vector<int64_t>& sel) {
    SelView v;
    v.data = batch;
    v.sel = sel.data();
    v.sel_len = static_cast<int64_t>(sel.size());
    return v;
  }
};

/// \brief A fully materialized table in columnar layout.
class ColumnarRelation {
 public:
  ColumnarRelation() = default;
  explicit ColumnarRelation(LayoutPtr layout) : data_(std::move(layout)) {}

  const LayoutPtr& layout_ptr() const { return data_.layout_ptr(); }
  const BatchLayout& layout() const { return data_.layout(); }
  const Schema& schema() const { return data_.schema(); }
  const std::vector<std::string>& lineage_schema() const {
    return data_.lineage_schema();
  }

  int64_t num_rows() const { return data_.num_rows(); }
  const ColumnBatch& data() const { return data_; }
  ColumnBatch* mutable_data() { return &data_; }

  void AppendBatch(const ColumnBatch& batch) {
    data_.AppendRangeFrom(batch, 0, batch.num_rows());
  }

  /// Copies rows [begin, begin+len) into `out` (cleared first).
  void EmitSlice(int64_t begin, int64_t len, ColumnBatch* out) const;

 private:
  ColumnBatch data_;
};

/// \brief Content fingerprint of a named table of rows.
///
/// Hashes the relation name, schema (names + types), lineage schema, row
/// count, every column value (strings by content, floats by bit pattern),
/// and the lineage matrix — two tables agree iff they are
/// content-equivalent. One implementation shared by the in-memory catalog
/// (plan/columnar_executor.h) and the on-disk segment writer
/// (store/segment_store.h), so a stored relation's fingerprint matches its
/// in-memory twin by construction.
uint64_t ContentFingerprint(const std::string& name, const ColumnBatch& data);

/// \brief Consumer of a batch stream (the push end of a pipeline).
class BatchSink {
 public:
  virtual ~BatchSink() = default;
  virtual Status Consume(const ColumnBatch& batch) = 0;

  /// True when the sink consumes SelViews directly — the pipeline driver
  /// then skips the gather into a scratch batch entirely.
  virtual bool wants_views() const { return false; }

  /// \brief Consumes the rows of `view` (same stream semantics as Consume).
  ///
  /// The default gathers into a temporary batch and forwards to Consume,
  /// which is correct for every sink; hot-path sinks override both this
  /// and wants_views() to run gather-free over the borrowed columns.
  virtual Status ConsumeView(const SelView& view);
};

}  // namespace gus

#endif  // GUS_REL_COLUMN_BATCH_H_
