#include "est/sbox.h"

#include <cmath>
#include <sstream>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/unbiased.h"
#include "est/variance.h"
#include "est/ys.h"
#include "util/hash.h"

namespace gus {

namespace {

/// Applies the multi-dimensional lineage Bernoulli filter to a view.
SampleView FilterView(const SampleView& view, double p_per_dim,
                      uint64_t seed) {
  SampleView out;
  out.schema = view.schema;
  out.lineage.assign(view.lineage.size(), {});
  const int n = view.schema.arity();
  for (int64_t i = 0; i < view.num_rows(); ++i) {
    bool keep = true;
    for (int d = 0; d < n && keep; ++d) {
      // Per-dimension seed derived from the master seed and the dimension
      // index — one pseudo-random function per base relation (Section 7).
      const uint64_t dim_seed = HashCombine(seed, static_cast<uint64_t>(d));
      keep = LineageUnitValue(dim_seed, view.lineage[d][i]) < p_per_dim;
    }
    if (keep) {
      out.f.push_back(view.f[i]);
      for (int d = 0; d < n; ++d) {
        out.lineage[d].push_back(view.lineage[d][i]);
      }
    }
  }
  return out;
}

}  // namespace

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

  // Pick the view + GUS used for variance estimation.
  const SampleView* variance_view = &sample;
  SampleView subsampled;
  GusParams analysis = gus;
  if (options.subsample.has_value() &&
      sample.num_rows() > options.subsample->target_rows) {
    const auto& cfg = *options.subsample;
    const double p_per_dim = SubsampleRate(
        cfg.target_rows, sample.num_rows(), gus.schema().arity());
    subsampled = FilterView(sample, p_per_dim, cfg.seed);
    GUS_ASSIGN_OR_RETURN(analysis, SubsampleAnalysisGus(gus, p_per_dim));
    variance_view = &subsampled;
  }
  report.variance_rows = variance_view->num_rows();
  report.analysis_gus = analysis;

  const std::vector<double> Y = ComputeAllYS(*variance_view);
  GUS_ASSIGN_OR_RETURN(report.y_hat, UnbiasedYEstimates(analysis, Y));
  GUS_ASSIGN_OR_RETURN(double var, VarianceFromY(gus, report.y_hat));
  report.variance = std::max(0.0, var);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(
      report.interval,
      MakeInterval(report.estimate, report.variance, options.confidence_level,
                   options.bound_kind));
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
  report.variance = m * s2 / (a * a);
  report.stddev = std::sqrt(report.variance);
  GUS_ASSIGN_OR_RETURN(
      report.interval,
      MakeInterval(report.estimate, report.variance, options.confidence_level,
                   options.bound_kind));
  return report;
}

}  // namespace gus
