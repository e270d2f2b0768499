// Computation of the y_S data statistics of Theorem 1:
//
//   y_S = sum over groups of rows agreeing on the S-projection of their
//         lineage of (sum of f within the group)^2
//
// computed either over the full data (exact analysis) or over a sample
// (the Y_S inputs of the unbiased estimator, Section 6.3).
//
// Generalized to the bilinear form y_S^{f,g} = sum over groups of
// (sum f)(sum g), which the AVG delta method needs for the covariance
// between the SUM and COUNT estimators; y_S = y_S^{f,f}.
//
// Input. A YsInput reads the rows where they already are: one pointer per
// lineage column, an f pointer (null reads f ≡ 1, COUNT) and an optional
// row selection (the Section 7 survivors). Nothing is copied to feed the
// kernel.
//
// Grouping is exact: rows fall into one group iff their projected lineage
// ids are equal, compared id for id (no hash of the tuple stands in for it,
// so distinct tuples never merge). Groups are numbered in order of their
// first input row, the sums within a group accumulate in input-row order,
// and the squares (products) fold in group-number order. Every number is
// therefore a function of the input rows in their order alone. All engines
// hand the estimator the same rows in the same order, so they all compute
// the same bits.
//
// Slices. ComputeAllYSOfSlices cuts the input rows into consecutive slices
// (a GROUP BY group's rows, a shard's) and gives each slice the table
// ComputeAllYS gives that slice alone, reusing one scratch for all of
// them.
//
// One call groups every mask with one scratch: each single-dimension
// grouping densifies the raw ids once, and a larger mask m densifies the
// 64-bit key dense(m \ top)(row) * groups(top) + dense(top)(row)
// (top = highest dimension of m), which is exact because both dense ids
// are below 2^32. A mask whose groups are all single rows passes that on
// to every superset without another pass.

#ifndef GUS_EST_YS_H_
#define GUS_EST_YS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "est/sample_view.h"
#include "util/bits.h"

namespace gus {

/// The rows one y_S call reads, in place: input row i is column row
/// sel ? sel[i] : i of every column, for i < rows.
struct YsInput {
  /// lineage[d] is the id column of analysis dimension d.
  std::vector<const uint64_t*> lineage;
  /// Aggregate values; null means f ≡ 1.
  const double* f = nullptr;
  /// Input rows: the selection's length, or the columns' length.
  int64_t rows = 0;
  /// Optional row selection into the columns, in input order.
  const int64_t* sel = nullptr;

  /// Every row of `view`, in order.
  static YsInput Of(const SampleView& view);
};

/// \brief All 2^n statistics: entry mask is y_mask over the input rows.
std::vector<double> ComputeAllYS(const YsInput& in);

/// \brief ComputeAllYS of each slice of the input rows: slice k is rows
/// [k ? ends[k - 1] : 0, ends[k]) and its table is entries
/// [k << n, (k + 1) << n). `ends` is nondecreasing, at most in.rows.
std::vector<double> ComputeAllYSOfSlices(const YsInput& in,
                                         std::span<const int64_t> ends);

/// The three tables of a ratio's delta method, laid out as ComputeAllYS's.
struct YsGram {
  std::vector<double> ff;  ///< y^{f,f}: ComputeAllYS(in)
  std::vector<double> fg;  ///< y^{f,g}
  std::vector<double> gg;  ///< y^{g,g}: ComputeAllYS of the input over g
};

/// \brief y^{f,f}, y^{f,g} and y^{g,g} from one grouping per mask.
///
/// `g` is indexed like in.f (by column row); null means g ≡ 1.
YsGram ComputeAllYSGram(const YsInput& in, const double* g);

}  // namespace gus

#endif  // GUS_EST_YS_H_
