// Vectorized expression evaluation over column batches.
//
// Semantics mirror the row-at-a-time Expr::Eval exactly — integer
// arithmetic stays integral (division always promotes to float64 and fails
// on a zero divisor), mixed numeric operands promote to float64, booleans
// are int64 0/1, string comparison is lexicographic, and AND/OR
// short-circuit at row granularity (the right operand only evaluates on
// rows the left leaves undecided, so guard predicates behave identically).
// One residual divergence: when *different* rows fail in different
// subtrees, the batch evaluator may report a different (equally valid)
// first error than the row-by-row order would.

#ifndef GUS_PLAN_VECTOR_EVAL_H_
#define GUS_PLAN_VECTOR_EVAL_H_

#include <vector>

#include "rel/column_batch.h"
#include "rel/expression.h"
#include "util/status.h"

namespace gus {

/// \brief Evaluates a *bound* expression over every row of `batch`.
///
/// Returns a column of batch.num_rows() values (a literal broadcasts).
Result<ColumnData> EvalExprBatch(const ExprPtr& bound, const ColumnBatch& batch);

/// \brief Evaluates a bound predicate and appends the truthy row indexes to
/// `sel` (cleared first). Fails on non-numeric predicate results.
Status EvalPredicateBatch(const ExprPtr& bound, const ColumnBatch& batch,
                          std::vector<int64_t>* sel);

/// Marks the columns a *bound* expression reads (out[i] = 1); `out` is
/// sized to `num_columns` and zeroed first.
void ExprColumnFootprint(const ExprPtr& bound, int num_columns,
                         std::vector<char>* out);

/// \brief Fused-select core: evaluates a bound predicate over the rows of
/// `view` and appends the truthy rows' *underlying* indexes (into
/// view.data) to `sel_out` (cleared first).
///
/// Only the predicate's column footprint is gathered (into `scratch`,
/// reused across calls); the full-width row is never copied. Row-level
/// semantics — promotion, short-circuit, error messages — are exactly
/// EvalPredicateBatch's, applied to the view's row sequence.
Status EvalPredicateView(const ExprPtr& bound, const SelView& view,
                         const std::vector<char>& footprint,
                         ColumnBatch* scratch,
                         std::vector<int64_t>* range_scratch,
                         std::vector<int64_t>* sel_out);

/// \brief Evaluates a bound numeric expression and *appends* each row's
/// value, widened to double, to `out` — no intermediate column copies
/// (the streaming estimators' hot path). Fails with
/// TypeError(`type_error_message`) on a non-numeric result, so callers
/// keep their row-path diagnostics.
Status EvalExprBatchToDoubles(const ExprPtr& bound, const ColumnBatch& batch,
                              const char* type_error_message,
                              std::vector<double>* out);

}  // namespace gus

#endif  // GUS_PLAN_VECTOR_EVAL_H_
