#include "est/variance.h"

#include "est/ys.h"

namespace gus {

Result<double> PointEstimate(const GusParams& gus, const SampleView& sample) {
  if (gus.a() <= 0.0) {
    return Status::InvalidArgument("estimator needs a > 0");
  }
  if (sample.schema != gus.schema()) {
    return Status::InvalidArgument("sample view / GUS schema mismatch");
  }
  return sample.SumF() / gus.a();
}

Result<std::vector<double>> VarianceTermsFromY(const GusParams& gus,
                                               const std::vector<double>& y) {
  if (y.size() != gus.schema().num_subsets()) {
    return Status::InvalidArgument("y table must have 2^n entries");
  }
  if (gus.a() <= 0.0) {
    return Status::InvalidArgument("variance needs a > 0");
  }
  std::vector<double> terms = gus.AllCFast();
  const double a2 = gus.a() * gus.a();
  for (SubsetMask m = 0; m < y.size(); ++m) terms[m] = terms[m] / a2 * y[m];
  // − y_∅ first, so the left fold adds in the order var = −y_∅ + ... does.
  terms[0] = -y[0] + terms[0];
  return terms;
}

Result<double> VarianceFromY(const GusParams& gus,
                             const std::vector<double>& y) {
  GUS_ASSIGN_OR_RETURN(const std::vector<double> terms,
                       VarianceTermsFromY(gus, y));
  double var = terms[0];
  for (size_t m = 1; m < terms.size(); ++m) var += terms[m];
  return var;
}

Result<double> ExactVariance(const GusParams& gus,
                             const SampleView& full_data) {
  if (full_data.schema != gus.schema()) {
    return Status::InvalidArgument("full data / GUS schema mismatch");
  }
  return VarianceFromY(gus, ComputeAllYS(YsInput::Of(full_data)));
}

}  // namespace gus
