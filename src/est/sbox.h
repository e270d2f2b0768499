// The SBox — the paper's self-contained statistical estimator component
// (Section 6, refined in Section 7).
//
// Inputs: the top GUS parameters produced by the SOA transform, and the
// (lineage, f-value) stream of tuples reaching the aggregate. Outputs: the
// unbiased estimate, its estimated variance, and confidence intervals.
//
// The Section 7 refinement estimates the y_S statistics from a *sub-sample*
// of the result (a multi-dimensional lineage-seeded Bernoulli), while the
// point estimate still uses every tuple. The sub-sampler composes with the
// plan's GUS by compaction (Prop. 8 / Example 6), so the same Theorem 1
// machinery analyzes the reduced sample.

#ifndef GUS_EST_SBOX_H_
#define GUS_EST_SBOX_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algebra/gus_params.h"
#include "est/confidence.h"
#include "est/sample_view.h"
#include "util/hash.h"
#include "util/status.h"

namespace gus {

/// \brief Section 7 sub-sampling configuration.
struct SubsampleConfig {
  /// Target number of result tuples to keep for y_S estimation. Per-
  /// dimension probabilities are chosen as (target/m)^(1/n) where m is the
  /// observed sample size, mimicking the paper's "about 10000 tuples".
  int64_t target_rows = 10000;
  /// One seed drives all per-relation pseudo-random functions.
  uint64_t seed = 0x5b0c5b0cULL;
};

/// \brief Per-dimension rate of the Section 7 sub-sampler that keeps about
/// `target_rows` of `rows` result tuples: (target_rows / rows)^(1/arity).
double SubsampleRate(int64_t target_rows, int64_t rows, int arity);

/// \brief The Section 7 sub-sampler's draw for one row: the largest of its
/// per-dimension units LineageUnitValue(HashCombine(seed, d), id(d)), one
/// pseudo-random function per base relation. The row survives rate p iff
/// the draw is < p, that is iff every dimension's unit is. The draw stops
/// at the first unit >= `stop`, so SubsampleUnit(seed, arity, id, p) < p is
/// the survival test itself.
template <typename IdAt>
double SubsampleUnit(uint64_t seed, int arity, IdAt id, double stop = 1.0) {
  double u = 0.0;
  for (int d = 0; d < arity && u < stop; ++d) {
    const uint64_t dim_seed = HashCombine(seed, static_cast<uint64_t>(d));
    u = std::max(u, LineageUnitValue(dim_seed, id(d)));
  }
  return u;
}

/// \brief The GUS that unbiases y_S statistics of a Section 7 sub-sample
/// drawn at `p_per_dim` on every relation of `gus`'s schema.
///
/// The sub-sampled stream is (sub ∘ plan)-sampled from the raw data;
/// compacting the multi-dimensional Bernoulli with `gus` (Example 6) gives
/// its parameters.
Result<GusParams> SubsampleAnalysisGus(const GusParams& gus,
                                       double p_per_dim);

/// \brief Options for an SBox run.
struct SboxOptions {
  double confidence_level = 0.95;
  BoundKind bound_kind = BoundKind::kNormal;
  /// If set, use Section 7 sub-sampled variance estimation.
  std::optional<SubsampleConfig> subsample;
};

/// \brief Full output of an estimation run.
struct SboxReport {
  /// Unbiased estimate of the true aggregate.
  double estimate = 0.0;
  /// Estimated variance of the estimator (may be clamped at 0).
  double variance = 0.0;
  double stddev = 0.0;
  ConfidenceInterval interval;
  /// Number of tuples that reached the aggregate.
  int64_t sample_rows = 0;
  /// Tuples used for y_S estimation (== sample_rows without sub-sampling).
  int64_t variance_rows = 0;
  /// Unbiased Ŷ_S estimates, indexed by lineage subset mask.
  std::vector<double> y_hat;
  /// GUS parameters used for the y_S estimation (compacted with the
  /// sub-sampler when Section 7 is active).
  GusParams analysis_gus;

  std::string ToString() const;
};

/// \brief Runs the estimator.
///
/// `gus` is the plan's top GUS (from SoaTransform); `sample` the tuple
/// stream that reached the aggregate.
Result<SboxReport> SboxEstimate(const GusParams& gus, const SampleView& sample,
                                const SboxOptions& options = {});

/// \brief Baseline for experiment E6: pretends the sample rows are IID draws
/// and applies the textbook CLT interval. Correct for single-relation
/// Bernoulli-style designs, under-covers when joins correlate tuples.
Result<SboxReport> NaiveIidEstimate(double a, const SampleView& sample,
                                    const SboxOptions& options = {});

}  // namespace gus

#endif  // GUS_EST_SBOX_H_
