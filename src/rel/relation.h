// In-memory relations with row-level lineage.
//
// Lineage is the paper's central bookkeeping device (Section 4.2): the
// identity of each base-relation tuple is carried through every operator so
// that the GUS pairwise probabilities — which are defined on lineage
// agreement, not content agreement — can be evaluated on result tuples.
//
// A Relation is a table of typed values plus one lineage id per lineage-
// schema entry (the ordered base-relation names contributing to each row).
// Its only storage is columnar (a ColumnarRelation, rel/column_batch.h):
// one typed vector per column and a flat lineage matrix, the form every
// columnar engine scans. Copies of a relation share those columns; an
// append copies them first when another copy, or a ColumnarCatalog
// snapshot, still holds them. row(i) and lineage(i) decode one row for the
// row-at-a-time reference engine and for tests.
//
// Base relations have a single-entry lineage schema (themselves) and lineage
// id = row position (or block id for block-sampled relations — lineage is on
// sampling units, not content).

#ifndef GUS_REL_RELATION_H_
#define GUS_REL_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rel/schema.h"
#include "rel/value.h"
#include "util/hash.h"
#include "util/status.h"

namespace gus {

class ColumnarRelation;  // rel/column_batch.h
struct ColumnData;       // rel/column_batch.h

/// Per-row lineage: one base-tuple id per lineage-schema entry.
using LineageRow = std::vector<uint64_t>;

/// \brief Order-sensitive hash of one row's lineage ids.
///
/// Shared by the row and columnar engines (union dedup buckets lineage rows
/// by it, LineageRowSet in rel/operators.h), so the two must keep using the
/// identical function.
inline uint64_t HashLineageRow(const uint64_t* ids, size_t n) {
  uint64_t h = 0x6a09e667f3bcc908ULL;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, ids[i]);
  return h;
}

/// \brief A table with schema, columns, and lineage.
///
/// A moved-from Relation may only be assigned to or destroyed.
class Relation {
 public:
  /// No columns, no lineage, no rows.
  Relation();
  Relation(Schema schema, std::vector<std::string> lineage_schema);
  /// Takes `columns` as this relation's storage.
  explicit Relation(ColumnarRelation columns);

  const Schema& schema() const;

  /// Ordered base-relation names whose tuple ids each row carries.
  const std::vector<std::string>& lineage_schema() const;

  int64_t num_rows() const;

  /// Row `i` decoded to Values: a new Row, not a view of the storage.
  Row row(int64_t i) const;
  /// Row `i`'s lineage ids (a copy).
  LineageRow lineage(int64_t i) const;

  /// \brief Appends a row with its lineage.
  ///
  /// Arities must match the column and lineage schemas and each value's
  /// type its column's; a mismatch is a programming error and aborts via
  /// GUS_CHECK (per the Status-model convention: user input errors surface
  /// as Status, invariant violations check). Callers holding unvalidated
  /// data use AppendRowChecked.
  void AppendRow(const Row& row, const LineageRow& lineage);

  /// Status-returning variant for unvalidated input: fails with
  /// InvalidArgument on an arity mismatch and TypeError on a value whose
  /// type differs from its column's, appending nothing.
  Status AppendRowChecked(const Row& row, const LineageRow& lineage);

  void Reserve(int64_t n);

  /// \brief Builds a base relation: lineage schema = {name}, lineage id =
  /// row index.
  static Relation MakeBase(const std::string& name, Schema schema,
                           const std::vector<Row>& rows);

  /// \brief Base relation with caller-supplied lineage ids (e.g. block ids
  /// for block sampling, or primary-key-derived ids).
  static Relation MakeBaseWithIds(const std::string& name, Schema schema,
                                  const std::vector<Row>& rows,
                                  const std::vector<uint64_t>& ids);

  /// \brief Base relation over filled columns, one per schema column, of
  /// its type and of equal length; lineage id = row index.
  static Relation MakeBaseFromColumns(const std::string& name, Schema schema,
                                      std::vector<ColumnData> columns);

  /// True if the two relations' lineage schemas share no base relation.
  static bool LineageDisjoint(const Relation& a, const Relation& b);

  /// \brief This relation's columns, shared with its copies (no
  /// conversion, no copy).
  ///
  /// The pointer stays valid and its content unchanged after later
  /// appends to this relation: those go to a copy of the columns while
  /// the pointer is held.
  std::shared_ptr<const ColumnarRelation> Columnar() const;

  /// \brief ContentFingerprint(name, columns), memoized with the shared
  /// columns. Keyed by `name` because the fingerprint hashes it.
  uint64_t Fingerprint(const std::string& name) const;

  std::string ToString(int64_t max_rows = 10) const;

 private:
  /// The columns and the fingerprints memoized for them.
  struct Storage;

  /// Before a write: the columns, copied first if anyone else holds them.
  ColumnarRelation* MutableColumns();

  std::shared_ptr<Storage> storage_;
};

}  // namespace gus

#endif  // GUS_REL_RELATION_H_
