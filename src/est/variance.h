// Theorem 1: moments of the GUS sampling estimator.
//
//   X = (1/a) * sum_{t in sample} f(t)
//   E[X] = A (the true aggregate)
//   Var[X] = sum_S (c_S / a^2) y_S  −  y_∅
//
// VarianceFromY evaluates the formula given a y-table — the *true* y values
// for the exact (oracle) variance, or the unbiased Ŷ estimates for the
// sample-based variance estimate.

#ifndef GUS_EST_VARIANCE_H_
#define GUS_EST_VARIANCE_H_

#include <vector>

#include "algebra/gus_params.h"
#include "est/sample_view.h"
#include "util/status.h"

namespace gus {

/// The point estimate X = SumF / a.
Result<double> PointEstimate(const GusParams& gus, const SampleView& sample);

/// \brief Theorem 1's per-subset terms, indexed by mask: term S is
/// c_S / a^2 · y_S, and term ∅ also carries the −y_∅.
///
/// Summed left to right in mask order they give VarianceFromY bit for bit.
Result<std::vector<double>> VarianceTermsFromY(const GusParams& gus,
                                               const std::vector<double>& y);

/// Var[X] from a y-table (true y or estimated Ŷ), Theorem 1: the left fold
/// of VarianceTermsFromY in mask order.
Result<double> VarianceFromY(const GusParams& gus,
                             const std::vector<double>& y);

/// \brief Oracle variance: evaluates Theorem 1 on the *full data*
/// (exact y values). Used by tests and experiments as ground truth for the
/// estimator's sampling distribution.
Result<double> ExactVariance(const GusParams& gus, const SampleView& full_data);

}  // namespace gus

#endif  // GUS_EST_VARIANCE_H_
