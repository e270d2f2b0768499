// Relational operators over lineage-carrying relations.
//
// Lineage propagation rules (paper Section 6.2):
//   * selection / projection: lineage unchanged,
//   * join / cross product: lineage is the concatenation of the inputs'
//     lineages (inputs must have disjoint lineage schemas — no self-joins),
//   * bag union: inputs must have identical column and lineage schemas.

#ifndef GUS_REL_OPERATORS_H_
#define GUS_REL_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "rel/column_batch.h"
#include "rel/expression.h"
#include "rel/relation.h"
#include "util/status.h"

namespace gus {

/// Rows of `input` for which `predicate` evaluates truthy.
Result<Relation> Select(const Relation& input, const ExprPtr& predicate);

/// Named computed column.
struct NamedExpr {
  std::string name;
  ExprPtr expr;
};

/// Projects/computes a new schema; lineage is preserved.
Result<Relation> Project(const Relation& input,
                         const std::vector<NamedExpr>& exprs);

/// \brief Hash equi-join on left.`left_key` == right.`right_key`.
///
/// Result schema and lineage schema are the concatenations; fails if column
/// names or lineage schemas overlap.
Result<Relation> HashJoin(const Relation& left, const Relation& right,
                          const std::string& left_key,
                          const std::string& right_key);

/// \brief General theta join: cross product filtered by `condition`.
///
/// O(|L|*|R|); used as the oracle against which HashJoin is tested.
Result<Relation> ThetaJoin(const Relation& left, const Relation& right,
                           const ExprPtr& condition);

/// Cross product (no condition).
Result<Relation> CrossProduct(const Relation& left, const Relation& right);

/// \brief Bag union of two relations over the same base data.
///
/// Used for GUS union (Prop 7): combining two samples of the same
/// expression. Duplicate lineage (a tuple present in both inputs) is kept
/// once — GUS methods are randomized *filters*, so the union of two samples
/// of R is still a subset of R.
Result<Relation> UnionDistinctLineage(const Relation& a, const Relation& b);

/// Checks that two sampled-mode union inputs are samples of one expression
/// (Prop. 7): the same column schema and the same lineage schema.
Status CheckUnionLayouts(const BatchLayout& a, const BatchLayout& b);

/// \brief A set of lineage rows compared by their ids: HashLineageRow only
/// picks the bucket, so rows whose hashes collide stay distinct.
///
/// Keeps pointers to the inserted rows, which must outlive the set.
class LineageRowSet {
 public:
  LineageRowSet(int arity, int64_t expected_rows)
      : rows_(0, Hash{arity}, Equal{arity}) {
    rows_.reserve(static_cast<size_t>(expected_rows));
  }

  /// Adds the row of `arity` ids at `ids`; false when an equal row is in.
  bool Insert(const uint64_t* ids) { return rows_.insert(ids).second; }

 private:
  struct Hash {
    int arity;
    size_t operator()(const uint64_t* ids) const {
      return HashLineageRow(ids, static_cast<size_t>(arity));
    }
  };
  struct Equal {
    int arity;
    bool operator()(const uint64_t* a, const uint64_t* b) const {
      return std::equal(a, a + arity, b);
    }
  };

  std::unordered_set<const uint64_t*, Hash, Equal> rows_;
};

/// SUM of `expr` over all rows (numeric).
Result<double> AggregateSum(const Relation& input, const ExprPtr& expr);

/// COUNT(*) as a double (SUM of the constant 1, per the paper).
Result<double> AggregateCount(const Relation& input);

/// AVG of `expr`: SUM/COUNT; fails on empty input.
Result<double> AggregateAvg(const Relation& input, const ExprPtr& expr);

}  // namespace gus

#endif  // GUS_REL_OPERATORS_H_
