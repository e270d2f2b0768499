#include "est/ratio.h"

#include <sstream>

#include "est/variance_tail.h"
#include "est/ys.h"

namespace gus {

std::string RatioReport::ToString() const {
  std::ostringstream out;
  out << "ratio=" << estimate << " stddev=" << stddev << " ci="
      << interval.ToString();
  return out.str();
}

namespace {

/// SUM(f)/SUM(g) over `view`; g is indexed like view.f, null meaning g ≡ 1.
Result<RatioReport> Ratio(const GusParams& gus, const SampleView& view,
                          const double* g, double confidence_level,
                          BoundKind kind) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  if (gus.a() <= 0.0) return Status::InvalidArgument("estimator needs a > 0");

  RatioReport report;
  double sum_g = 0.0;
  for (int64_t i = 0; i < view.num_rows(); ++i) sum_g += g ? g[i] : 1.0;
  report.numerator = view.SumF() / gus.a();
  report.denominator = sum_g / gus.a();
  if (report.denominator == 0.0) {
    return Status::InvalidArgument(
        "estimated denominator is zero; the ratio is undefined");
  }
  report.estimate = report.numerator / report.denominator;

  // Unbiased estimates of the three quadratic-form tables, grouped once.
  const YsGram y = ComputeAllYSGram(YsInput::Of(view), g);
  // The covariance is Theorem 1 on the bilinear table (polarization).
  std::vector<double> y_hat;
  GUS_ASSIGN_OR_RETURN(report.numerator_variance,
                       SampleVariance(gus, gus, y.ff, &y_hat));
  GUS_ASSIGN_OR_RETURN(report.covariance,
                       SampleVariance(gus, gus, y.fg, &y_hat));
  GUS_ASSIGN_OR_RETURN(report.denominator_variance,
                       SampleVariance(gus, gus, y.gg, &y_hat));

  // Delta method around (µ_f, µ_g) evaluated at the estimates.
  const double r = report.estimate;
  const double mg2 = report.denominator * report.denominator;
  double var = (report.numerator_variance - 2.0 * r * report.covariance +
                r * r * report.denominator_variance) /
               mg2;
  GUS_RETURN_NOT_OK(
      SetVariance(std::max(0.0, var), confidence_level, kind, &report));
  return report;
}

}  // namespace

Result<RatioReport> RatioEstimate(const GusParams& gus, const SampleView& view,
                                  const std::vector<double>& g,
                                  double confidence_level, BoundKind kind) {
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  return Ratio(gus, view, g.data(), confidence_level, kind);
}

Result<RatioReport> AvgEstimate(const GusParams& gus, const SampleView& view,
                                double confidence_level, BoundKind kind) {
  return Ratio(gus, view, nullptr, confidence_level, kind);
}

Result<CountReport> CountEstimate(const GusParams& gus,
                                  const SampleView& view,
                                  double confidence_level, BoundKind kind) {
  if (view.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  if (gus.a() <= 0.0) return Status::InvalidArgument("estimator needs a > 0");
  // COUNT is SUM with f ≡ 1 (the paper's reduction).
  CountReport report;
  report.estimate = static_cast<double>(view.num_rows()) / gus.a();
  YsInput input = YsInput::Of(view);
  input.f = nullptr;
  std::vector<double> y_hat;
  GUS_ASSIGN_OR_RETURN(const double var,
                       SampleVariance(gus, gus, ComputeAllYS(input), &y_hat));
  GUS_RETURN_NOT_OK(
      SetVariance(std::max(0.0, var), confidence_level, kind, &report));
  return report;
}

}  // namespace gus
