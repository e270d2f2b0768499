#include "est/ratio.h"

#include <cmath>
#include <sstream>

#include "est/unbiased.h"
#include "est/variance.h"
#include "est/ys.h"

namespace gus {

std::string RatioReport::ToString() const {
  std::ostringstream out;
  out << "ratio=" << estimate << " stddev=" << stddev << " ci="
      << interval.ToString();
  return out.str();
}

Result<RatioReport> RatioEstimate(const GusParams& gus, const SampleView& view,
                                  const std::vector<double>& g,
                                  double confidence_level, BoundKind kind) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  if (gus.a() <= 0.0) return Status::InvalidArgument("estimator needs a > 0");

  RatioReport report;
  double sum_g = 0.0;
  for (double v : g) sum_g += v;
  report.numerator = view.SumF() / gus.a();
  report.denominator = sum_g / gus.a();
  if (report.denominator == 0.0) {
    return Status::InvalidArgument(
        "estimated denominator is zero; the ratio is undefined");
  }
  report.estimate = report.numerator / report.denominator;

  // Unbiased estimates of the three quadratic-form tables, grouped once.
  GUS_ASSIGN_OR_RETURN(const YsGram y, ComputeAllYSGram(view, g));
  GUS_ASSIGN_OR_RETURN(std::vector<double> yh_ff,
                       UnbiasedYEstimates(gus, y.ff));
  GUS_ASSIGN_OR_RETURN(std::vector<double> yh_fg,
                       UnbiasedYEstimates(gus, y.fg));
  GUS_ASSIGN_OR_RETURN(std::vector<double> yh_gg,
                       UnbiasedYEstimates(gus, y.gg));
  GUS_ASSIGN_OR_RETURN(report.numerator_variance,
                       VarianceFromY(gus, yh_ff));
  GUS_ASSIGN_OR_RETURN(report.covariance, CovarianceFromY(gus, yh_fg));
  GUS_ASSIGN_OR_RETURN(report.denominator_variance,
                       VarianceFromY(gus, yh_gg));

  // Delta method around (µ_f, µ_g) evaluated at the estimates.
  const double r = report.estimate;
  const double mg2 = report.denominator * report.denominator;
  double var = (report.numerator_variance - 2.0 * r * report.covariance +
                r * r * report.denominator_variance) /
               mg2;
  report.variance = std::max(0.0, var);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(report.interval,
                       MakeInterval(report.estimate, report.variance,
                                    confidence_level, kind));
  return report;
}

Result<RatioReport> AvgEstimate(const GusParams& gus, const SampleView& view,
                                double confidence_level, BoundKind kind) {
  const std::vector<double> ones(static_cast<size_t>(view.num_rows()), 1.0);
  return RatioEstimate(gus, view, ones, confidence_level, kind);
}

Result<CountReport> CountEstimate(const GusParams& gus,
                                  const SampleView& view,
                                  double confidence_level, BoundKind kind) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  // COUNT is SUM with f == 1 (the paper's reduction).
  SampleView ones_view;
  ones_view.schema = view.schema;
  ones_view.lineage = view.lineage;
  ones_view.f.assign(static_cast<size_t>(view.num_rows()), 1.0);

  CountReport report;
  GUS_ASSIGN_OR_RETURN(report.estimate, PointEstimate(gus, ones_view));
  const std::vector<double> Y = ComputeAllYS(ones_view);
  GUS_ASSIGN_OR_RETURN(std::vector<double> y_hat,
                       UnbiasedYEstimates(gus, Y));
  GUS_ASSIGN_OR_RETURN(double var, VarianceFromY(gus, y_hat));
  report.variance = std::max(0.0, var);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(report.interval,
                       MakeInterval(report.estimate, report.variance,
                                    confidence_level, kind));
  return report;
}

}  // namespace gus
