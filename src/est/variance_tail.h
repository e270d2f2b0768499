// The tail every estimate shares (internal to est/): the sample's y_S table
// through the Section 6.3 recursion and Theorem 1, the variance clamped at
// 0, its root and the confidence interval.

#ifndef GUS_EST_VARIANCE_TAIL_H_
#define GUS_EST_VARIANCE_TAIL_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "est/sbox.h"
#include "est/unbiased.h"
#include "est/variance.h"
#include "est/ys.h"

namespace gus {

/// Ŷ (into *y_hat) from the sample's y table under `analysis`, and the
/// Theorem 1 variance under `gus` that it gives (unclamped).
inline Result<double> SampleVariance(const GusParams& gus,
                                     const GusParams& analysis,
                                     const std::vector<double>& y,
                                     std::vector<double>* y_hat) {
  GUS_ASSIGN_OR_RETURN(*y_hat, UnbiasedYEstimates(analysis, y));
  return VarianceFromY(gus, *y_hat);
}

/// Sets report->variance, its root and the interval around the estimate.
template <typename Report>
Status SetVariance(double variance, double level, BoundKind kind,
                   Report* report) {
  report->variance = variance;
  report->stddev = std::sqrt(variance);
  GUS_ASSIGN_OR_RETURN(report->interval,
                       MakeInterval(report->estimate, variance, level, kind));
  return Status::OK();
}

/// The SBox variance of `rows` (report->estimate set) after `rows_seen`
/// rows reached the aggregate. Under Section 7, y_S reads in place the rows
/// whose draw unit(i, p) is below the rate p for `rows_seen` rows (a draw
/// may stop early once it reaches p).
template <typename UnitAt>
Status SetSboxVariance(const GusParams& gus, const SboxOptions& options,
                       const SampleView& rows, int64_t rows_seen,
                       UnitAt unit, SboxReport* report) {
  YsInput input = YsInput::Of(rows);
  std::vector<int64_t> survivors;
  GusParams analysis = gus;
  if (options.subsample.has_value() &&
      rows_seen > options.subsample->target_rows) {
    const double p_per_dim = SubsampleRate(options.subsample->target_rows,
                                           rows_seen, gus.schema().arity());
    for (int64_t i = 0; i < rows.num_rows(); ++i) {
      if (unit(i, p_per_dim) < p_per_dim) survivors.push_back(i);
    }
    input.sel = survivors.data();
    input.rows = static_cast<int64_t>(survivors.size());
    GUS_ASSIGN_OR_RETURN(analysis, SubsampleAnalysisGus(gus, p_per_dim));
  }
  report->variance_rows = input.rows;
  report->analysis_gus = analysis;
  GUS_ASSIGN_OR_RETURN(
      const double var,
      SampleVariance(gus, analysis, ComputeAllYS(input), &report->y_hat));
  return SetVariance(std::max(0.0, var), options.confidence_level,
                     options.bound_kind, report);
}

}  // namespace gus

#endif  // GUS_EST_VARIANCE_TAIL_H_
