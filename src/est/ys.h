// Computation of the y_S data statistics of Theorem 1:
//
//   y_S = sum over groups of rows agreeing on the S-projection of their
//         lineage of (sum of f within the group)^2
//
// computed either over the full data (exact analysis) or over a sample
// (the Y_S inputs of the unbiased estimator, Section 6.3).
//
// Generalized to the bilinear form y_S^{f,g} = sum over groups of
// (sum f)(sum g), which the AVG delta-method extension needs for the
// covariance between the SUM and COUNT estimators; y_S = y_S^{f,f}.
//
// Grouping is exact: rows fall into one group iff their projected lineage
// ids are equal, compared id for id (no hash of the tuple stands in for
// it, so distinct tuples never merge). Groups are numbered in order of
// their first row in the view, the sums within a group accumulate in row
// order, and the squares (products) fold in group-number order. Every
// number is therefore a function of the view's rows in their order alone.
// All engines hand the estimator the same view row for row, so they all
// compute the same bits.
//
// One call of ComputeAllYS* groups every mask with one scratch: each
// single-dimension grouping densifies the raw ids once, and a larger mask
// m densifies the 64-bit key dense(m \ top)(row) * groups(top) +
// dense(top)(row) (top = highest dimension of m), which is exact because
// both dense ids are below 2^32. A mask whose groups are all single rows
// passes that on to every superset without another pass.

#ifndef GUS_EST_YS_H_
#define GUS_EST_YS_H_

#include <vector>

#include "est/sample_view.h"
#include "util/bits.h"
#include "util/status.h"

namespace gus {

/// y_S for a single agreement mask.
double ComputeYS(const SampleView& view, SubsetMask mask);

/// Bilinear y_S^{f,g}; `g` must have the same length as view.f.
Result<double> ComputeYSBilinear(const SampleView& view,
                                 const std::vector<double>& g,
                                 SubsetMask mask);

/// All 2^n statistics, indexed by mask.
std::vector<double> ComputeAllYS(const SampleView& view);

/// All 2^n bilinear statistics.
Result<std::vector<double>> ComputeAllYSBilinear(const SampleView& view,
                                                 const std::vector<double>& g);

/// The three tables of a ratio's delta method, indexed by mask.
struct YsGram {
  std::vector<double> ff;  ///< y^{f,f}: ComputeAllYS(view)
  std::vector<double> fg;  ///< y^{f,g}: ComputeAllYSBilinear(view, g)
  std::vector<double> gg;  ///< y^{g,g}: ComputeAllYS of the view over g
};

/// \brief y^{f,f}, y^{f,g} and y^{g,g} from one grouping per mask.
///
/// Bit-identical to the three separate calls; `g` must have the same
/// length as view.f.
Result<YsGram> ComputeAllYSGram(const SampleView& view,
                                const std::vector<double>& g);

}  // namespace gus

#endif  // GUS_EST_YS_H_
