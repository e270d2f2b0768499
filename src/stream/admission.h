// Admission control: overload protection that degrades the *sampling
// design* instead of the answer's honesty.
//
// Under overload, conventional systems silently drop work and return a
// number whose error is unknowable. Paper Section 8 observes that a load
// shedder is just a Bernoulli sampler, so it needs no analysis of its own.
// Here the shedder's adaptive keep probability becomes an admission
// *scale*: before an overloaded query runs, every sampling
// operator's rate is multiplied down, the SOA transform re-derives the top
// GUS for the shrunken design, and the SBox quantifies exactly what the
// shrinkage cost — the estimate stays unbiased and the CI widens honestly.
// Shedding-by-design instead of shedding-by-dropping is the same move the
// fault-tolerant gather makes for lost shards (est/partial_gather.h): the
// degradation enters the algebra, never the bookkeeping's blind spot.

#ifndef GUS_STREAM_ADMISSION_H_
#define GUS_STREAM_ADMISSION_H_

#include <cstdint>

#include "plan/plan_node.h"
#include "util/status.h"

namespace gus {

/// \brief Admission-control tuning: how hard sampling rates shrink under
/// sustained overload.
struct AdmissionConfig {
  /// Sample rows per query the system is provisioned for; observed loads
  /// above this shrink the admission scale proportionally.
  int64_t capacity_rows = 100000;
  /// Clamp range for the admission scale (1.0 = no shrinkage).
  double min_scale = 0.01;
  double max_scale = 1.0;
  /// Exponential smoothing factor for the offered-load estimate.
  double smoothing = 0.5;
};

/// \brief Adapts an admission scale from observed per-query sample loads.
///
/// An adaptive Bernoulli load shedder whose keep probability *is* the
/// admission scale, applied to query sampling rates
/// (ScalePlanSamplingRates) rather than to an arriving tuple stream.
/// Not thread-safe; one controller per admission queue.
class AdmissionController {
 public:
  /// Rejects capacity_rows < 1, min_scale outside (0, 1], max_scale
  /// outside [min_scale, 1] and smoothing outside (0, 1].
  static Result<AdmissionController> Make(const AdmissionConfig& config);

  /// Scale to apply to the next query's sampling rates, in
  /// [min_scale, max_scale]; max_scale until the first observation.
  double scale() const { return scale_; }

  /// \brief Reports one query's *offered* load — the sample rows its
  /// design would admit at scale 1.0 (e.g. rows observed under a scaled
  /// run divided by the scale that ran).
  ///
  /// Smooths the load estimate and adapts the scale so the expected
  /// admitted rows of the next query match capacity_rows.
  void ObserveQuery(int64_t offered_rows);

 private:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config), scale_(config.max_scale) {}

  AdmissionConfig config_;
  double smoothed_rows_ = 0.0;
  bool seeded_ = false;
  double scale_;
};

/// \brief Rebuilds `plan` with every sampling operator's rate multiplied
/// by `scale` in (0, 1]: Bernoulli-family specs (plain, block, lineage)
/// scale p (clamped to 1.0); fixed-size specs (WOR, WR-distinct) scale n
/// (floored at 1 row).
///
/// Relational content, seeds, and structure are untouched, so the scaled
/// plan is the same query under a sparser design — re-running SoaTransform
/// on it yields the GUS parameters that keep its estimate unbiased.
/// scale == 1.0 returns `plan` unchanged (shared, not copied).
Result<PlanPtr> ScalePlanSamplingRates(const PlanPtr& plan, double scale);

}  // namespace gus

#endif  // GUS_STREAM_ADMISSION_H_
