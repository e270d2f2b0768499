#include "est/sbox.h"

#include <cmath>
#include <sstream>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/variance_tail.h"

namespace gus {

double SubsampleRate(int64_t target_rows, int64_t rows, int arity) {
  const double ratio =
      static_cast<double>(target_rows) / static_cast<double>(rows);
  return std::pow(ratio, 1.0 / arity);
}

Result<GusParams> SubsampleAnalysisGus(const GusParams& gus,
                                       double p_per_dim) {
  std::vector<DimBernoulli> dims;
  for (const auto& rel : gus.schema().relations()) {
    dims.push_back({rel, p_per_dim});
  }
  GUS_ASSIGN_OR_RETURN(GusParams sub_gus,
                       MultiDimBernoulliGus(gus.schema(), dims));
  return GusCompact(sub_gus, gus);
}

std::string SboxReport::ToString() const {
  std::ostringstream out;
  out << "estimate=" << estimate << " stddev=" << stddev << " ci="
      << interval.ToString() << " rows=" << sample_rows
      << " (variance rows=" << variance_rows << ")";
  return out.str();
}

Result<SboxReport> SboxEstimate(const GusParams& gus, const SampleView& sample,
                                const SboxOptions& options) {
  if (sample.schema != gus.schema()) {
    return Status::InvalidArgument(
        "sample view lineage schema does not match the GUS schema");
  }
  SboxReport report;
  report.sample_rows = sample.num_rows();
  GUS_ASSIGN_OR_RETURN(report.estimate, PointEstimate(gus, sample));

  GUS_RETURN_NOT_OK(SetSboxVariance(
      gus, options, sample, sample.num_rows(),
      [&](int64_t i, double p) {
        return SubsampleUnit(options.subsample->seed, gus.schema().arity(),
                             [&](int d) { return sample.lineage[d][i]; }, p);
      },
      &report));
  return report;
}

Result<SboxReport> NaiveIidEstimate(double a, const SampleView& sample,
                                    const SboxOptions& options) {
  if (a <= 0.0) return Status::InvalidArgument("a must be positive");
  SboxReport report;
  report.sample_rows = sample.num_rows();
  report.variance_rows = sample.num_rows();
  const double m = static_cast<double>(sample.num_rows());
  report.estimate = sample.SumF() / a;
  // Treat sum(f) as a sum of m IID terms: Var(sum) = m * s^2.
  double s2 = 0.0;
  if (sample.num_rows() >= 2) {
    const double mean = sample.SumF() / m;
    for (double v : sample.f) s2 += (v - mean) * (v - mean);
    s2 /= (m - 1.0);
  }
  GUS_RETURN_NOT_OK(SetVariance(m * s2 / (a * a), options.confidence_level,
                                options.bound_kind, &report));
  return report;
}

}  // namespace gus
