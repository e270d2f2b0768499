// In-memory relations with row-level lineage.
//
// Lineage is the paper's central bookkeeping device (Section 4.2): the
// identity of each base-relation tuple is carried through every operator so
// that the GUS pairwise probabilities — which are defined on lineage
// agreement, not content agreement — can be evaluated on result tuples.
//
// A Relation holds:
//   * a column Schema and row data,
//   * a lineage schema: the ordered list of base-relation names contributing
//     to each row,
//   * per-row lineage: one 64-bit id per lineage-schema entry.
//
// Base relations have a single-entry lineage schema (themselves) and lineage
// id = row position (or block id for block-sampled relations — lineage is on
// sampling units, not content).

#ifndef GUS_REL_RELATION_H_
#define GUS_REL_RELATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rel/schema.h"
#include "rel/value.h"
#include "util/hash.h"
#include "util/status.h"

namespace gus {

class ColumnarRelation;  // rel/column_batch.h

/// Per-row lineage: one base-tuple id per lineage-schema entry.
using LineageRow = std::vector<uint64_t>;

/// \brief Order-sensitive hash of one row's lineage ids.
///
/// Shared by the row and columnar engines (union dedup keys on it), so the
/// two must keep using the identical function.
inline uint64_t HashLineageRow(const uint64_t* ids, size_t n) {
  uint64_t h = 0x6a09e667f3bcc908ULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, ids[i]);
  return h;
}

/// \brief A table with schema, rows, and lineage.
class Relation {
 public:
  Relation() = default;
  Relation(Schema schema, std::vector<std::string> lineage_schema)
      : schema_(std::move(schema)),
        lineage_schema_(std::move(lineage_schema)) {}

  const Schema& schema() const { return schema_; }

  /// Ordered base-relation names whose tuple ids each row carries.
  const std::vector<std::string>& lineage_schema() const {
    return lineage_schema_;
  }

  int64_t num_rows() const { return static_cast<int64_t>(rows_.size()); }
  const Row& row(int64_t i) const { return rows_[i]; }
  const LineageRow& lineage(int64_t i) const { return lineage_[i]; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<LineageRow>& lineages() const { return lineage_; }

  /// \brief Appends a row with its lineage.
  ///
  /// Arities must match the column and lineage schemas; a mismatch is a
  /// programming error and aborts via GUS_CHECK (per the Status-model
  /// convention: user input errors surface as Status, invariant violations
  /// check). Callers holding unvalidated data use AppendRowChecked.
  void AppendRow(Row row, LineageRow lineage);

  /// Status-returning variant for unvalidated input: fails with
  /// InvalidArgument instead of aborting on an arity mismatch.
  Status AppendRowChecked(Row row, LineageRow lineage);

  void Reserve(int64_t n) {
    rows_.reserve(n);
    lineage_.reserve(n);
  }

  /// \brief Builds a base relation: lineage schema = {name}, lineage id =
  /// row index.
  static Relation MakeBase(const std::string& name, Schema schema,
                           std::vector<Row> rows);

  /// \brief Base relation with caller-supplied lineage ids (e.g. block ids
  /// for block sampling, or primary-key-derived ids).
  static Relation MakeBaseWithIds(const std::string& name, Schema schema,
                                  std::vector<Row> rows,
                                  std::vector<uint64_t> ids);

  /// True if the two relations' lineage schemas share no base relation.
  static bool LineageDisjoint(const Relation& a, const Relation& b);

  /// \brief The columnar form of this relation's rows, converted on first
  /// use and shared by every copy of the relation.
  ///
  /// Thread-safe: concurrent first calls convert once and all receive the
  /// same immutable form. After AppendRow or AppendRowChecked the next
  /// call builds a new form, while a copy (or a ColumnarCatalog) that took
  /// the form before keeps the snapshot it saw. A failed conversion
  /// (TypeError, see ColumnarRelation::FromRelation) is not memoized:
  /// every call converts again and fails again.
  Result<std::shared_ptr<const ColumnarRelation>> Columnar() const;

  /// \brief ContentFingerprint(name, columnar data), memoized next to the
  /// columnar form. Keyed by `name` because the fingerprint hashes it.
  Result<uint64_t> Fingerprint(const std::string& name) const;

  std::string ToString(int64_t max_rows = 10) const;

 private:
  /// The lazily filled columnar form and fingerprints of one row content,
  /// shared by copies of a relation until one of them mutates.
  struct ColumnarMemo {
    std::mutex mu;
    std::shared_ptr<const ColumnarRelation> columnar;  // guarded by mu
    std::map<std::string, uint64_t> fingerprints;      // guarded by mu
  };

  /// Before an append: leaves a memo that other copies also hold to them.
  void DetachColumnarMemo();

  /// Fills memo_->columnar for the current rows, dropping a form (and its
  /// fingerprints) built for fewer rows; memo_->mu must be held.
  Status FillColumnarLocked() const;

  Schema schema_;
  std::vector<std::string> lineage_schema_;
  std::vector<Row> rows_;
  std::vector<LineageRow> lineage_;
  // Null only in a moved-from relation, whose const calls then convert
  // without memoizing.
  std::shared_ptr<ColumnarMemo> memo_ = std::make_shared<ColumnarMemo>();
};

}  // namespace gus

#endif  // GUS_REL_RELATION_H_
