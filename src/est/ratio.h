// AVG and general ratio estimation — the paper's Section 9 extension.
//
// AVG(f) = SUM(f) / COUNT(*) is a ratio of two SUM-like aggregates computed
// over the same sample. The paper notes the exact moments of a ratio are
// out of reach but that the delta method applies; this module implements
// it:
//
//   R = X_f / X_g,  with (X_f, X_g) the joint GUS estimators.
//   E[R]   ≈ µ_f/µ_g  (first order)
//   Var[R] ≈ (σ_f² − 2 R σ_fg + R² σ_g²) / µ_g²
//
// The variance and covariance come from the bilinear Theorem 1
// (VarianceFromY on the bilinear y-statistics), with every moment
// estimated unbiasedly from the sample by the Section 6.3 recursion.

#ifndef GUS_EST_RATIO_H_
#define GUS_EST_RATIO_H_

#include <string>

#include "algebra/gus_params.h"
#include "est/confidence.h"
#include "est/sample_view.h"
#include "util/status.h"

namespace gus {

/// \brief Result of a delta-method ratio estimation.
struct RatioReport {
  /// Estimated ratio (AVG when g == 1).
  double estimate = 0.0;
  /// Delta-method variance of the ratio estimator.
  double variance = 0.0;
  double stddev = 0.0;
  ConfidenceInterval interval;
  /// The numerator / denominator SUM estimates.
  double numerator = 0.0;
  double denominator = 0.0;
  /// Their estimated variances and covariance (diagnostics).
  double numerator_variance = 0.0;
  double denominator_variance = 0.0;
  double covariance = 0.0;

  std::string ToString() const;
};

/// \brief Estimates SUM(f)/SUM(g) with a delta-method interval.
///
/// `view` carries f; `g` is the per-row denominator values (same length).
/// Fails if the estimated denominator is zero.
Result<RatioReport> RatioEstimate(const GusParams& gus, const SampleView& view,
                                  const std::vector<double>& g,
                                  double confidence_level = 0.95,
                                  BoundKind kind = BoundKind::kNormal);

/// \brief AVG(f): RatioEstimate with g == 1 (COUNT in the denominator).
Result<RatioReport> AvgEstimate(const GusParams& gus, const SampleView& view,
                                double confidence_level = 0.95,
                                BoundKind kind = BoundKind::kNormal);

/// \brief COUNT(*) estimation: SUM of the constant 1 (the paper's reduction
/// of COUNT to SUM). Returns estimate and variance via Theorem 1.
struct CountReport {
  double estimate = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  ConfidenceInterval interval;
};
Result<CountReport> CountEstimate(const GusParams& gus,
                                  const SampleView& view,
                                  double confidence_level = 0.95,
                                  BoundKind kind = BoundKind::kNormal);

}  // namespace gus

#endif  // GUS_EST_RATIO_H_
