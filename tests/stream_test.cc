// Tests for admission control (stream/admission.h): load shedding
// (paper Section 8) applied to query sampling rates.

#include <gtest/gtest.h>

#include <cmath>

#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "stream/admission.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;

// ---------------------------------------------------------------------------
// Admission control: shedding by *design* (scaled sampling rates), not by
// dropping tuples behind the estimator's back.

TEST(AdmissionTest, ControllerTracksOfferedLoad) {
  AdmissionConfig config;
  config.capacity_rows = 100;
  config.smoothing = 1.0;  // react immediately
  ASSERT_OK_AND_ASSIGN(AdmissionController admission,
                       AdmissionController::Make(config));
  EXPECT_DOUBLE_EQ(1.0, admission.scale());
  admission.ObserveQuery(1000);
  EXPECT_NEAR(0.1, admission.scale(), 1e-12);
  admission.ObserveQuery(50);  // under capacity: full-rate admission
  EXPECT_DOUBLE_EQ(1.0, admission.scale());
}

TEST(AdmissionTest, SmoothingDampsReaction) {
  AdmissionConfig config;
  config.capacity_rows = 100;
  config.smoothing = 0.5;
  ASSERT_OK_AND_ASSIGN(AdmissionController admission,
                       AdmissionController::Make(config));
  admission.ObserveQuery(1000);  // seeds the estimate at 1000
  admission.ObserveQuery(100);   // smoothed: 550
  EXPECT_NEAR(100.0 / 550.0, admission.scale(), 1e-12);
}

TEST(AdmissionTest, ClampsToRange) {
  AdmissionConfig config;
  config.capacity_rows = 1;
  config.min_scale = 0.01;
  config.smoothing = 1.0;
  ASSERT_OK_AND_ASSIGN(AdmissionController admission,
                       AdmissionController::Make(config));
  admission.ObserveQuery(1000000);
  EXPECT_DOUBLE_EQ(0.01, admission.scale());
}

TEST(AdmissionTest, StartsAtMaxScale) {
  AdmissionConfig config;
  config.max_scale = 0.5;
  ASSERT_OK_AND_ASSIGN(AdmissionController admission,
                       AdmissionController::Make(config));
  EXPECT_DOUBLE_EQ(0.5, admission.scale());
}

Status MakeStatus(const AdmissionConfig& config) {
  return AdmissionController::Make(config).status();
}

TEST(AdmissionTest, MakeRejectsCapacityBelowOne) {
  AdmissionConfig config;
  config.capacity_rows = 0;
  EXPECT_STATUS_CODE(kInvalidArgument, MakeStatus(config));
}

TEST(AdmissionTest, MakeRejectsMinScaleOutsideUnitInterval) {
  for (const double min_scale : {0.0, -0.5, 1.5}) {
    AdmissionConfig config;
    config.min_scale = min_scale;
    EXPECT_STATUS_CODE(kInvalidArgument, MakeStatus(config));
  }
}

TEST(AdmissionTest, MakeRejectsMaxScaleOutsideMinToOne) {
  AdmissionConfig config;
  config.min_scale = 0.5;
  config.max_scale = 0.25;  // the inverted range clamp() may not be given
  EXPECT_STATUS_CODE(kInvalidArgument, MakeStatus(config));
  config.max_scale = 1.5;
  EXPECT_STATUS_CODE(kInvalidArgument, MakeStatus(config));
  config.max_scale = 0.5;  // a single-point range is valid
  ASSERT_OK(MakeStatus(config));
}

TEST(AdmissionTest, MakeRejectsSmoothingOutsideUnitInterval) {
  for (const double smoothing : {0.0, -0.5, 1.5}) {
    AdmissionConfig config;
    config.smoothing = smoothing;
    EXPECT_STATUS_CODE(kInvalidArgument, MakeStatus(config));
  }
}

TEST(AdmissionTest, ScalesEverySamplingFamilyInPlace) {
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.8), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(10, 32),
                       PlanNode::Scan("D")),
      "fk", "pk");
  ASSERT_OK_AND_ASSIGN(PlanPtr scaled, ScalePlanSamplingRates(plan, 0.5));
  EXPECT_NEAR(0.4, scaled->left()->spec().p, 1e-12);
  EXPECT_EQ(5, scaled->right()->spec().n);
  EXPECT_EQ(32, scaled->right()->spec().population);
  // The original plan is untouched (a new tree is built).
  EXPECT_DOUBLE_EQ(0.8, plan->left()->spec().p);

  // Fixed-size rates floor at one draw rather than reaching zero.
  PlanPtr tiny = PlanNode::Sample(SamplingSpec::WithoutReplacement(2, 32),
                                  PlanNode::Scan("D"));
  ASSERT_OK_AND_ASSIGN(PlanPtr floored, ScalePlanSamplingRates(tiny, 0.01));
  EXPECT_EQ(1, floored->spec().n);
}

TEST(AdmissionTest, ScaleOneReturnsThePlanUnchangedAndBadScalesFail) {
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                                  PlanNode::Scan("D"));
  ASSERT_OK_AND_ASSIGN(PlanPtr same, ScalePlanSamplingRates(plan, 1.0));
  EXPECT_EQ(plan.get(), same.get());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ScalePlanSamplingRates(plan, 0.0).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ScalePlanSamplingRates(plan, 1.5).status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ScalePlanSamplingRates(nullptr, 0.5).status());
}

TEST(AdmissionTest, AdmittedEstimateStaysUnbiased) {
  // Shedding by design: the scaled plan is re-analyzed (SoaTransform on
  // the admitted tree), so the smaller sample still divides by its own
  // honest inclusion probabilities — the estimate stays unbiased at any
  // admission scale.
  auto data = MakeTinyJoin(64, 1);
  Catalog catalog = data.MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  double truth = 0.0;
  for (int64_t i = 0; i < data.dim.num_rows(); ++i) {
    truth += data.dim.row(i)[1].ToDouble();
  }
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.8),
                                  PlanNode::Scan("D"));
  SboxOptions options;
  ExecOptions exec;
  exec.morsel_rows = 8;
  ASSERT_OK_AND_ASSIGN(PlanPtr admitted, ScalePlanSamplingRates(plan, 0.5));
  EXPECT_NEAR(0.4, admitted->spec().p, 1e-12);
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(admitted));
  MeanVar estimates;
  const int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    Rng rng(9000 + t);
    ASSERT_OK_AND_ASSIGN(
        SboxReport report,
        EstimatePlanParallel(admitted, &columnar, &rng, Col("w"), soa.top,
                             options, ExecMode::kSampled, exec));
    estimates.Add(report.estimate);
  }
  EXPECT_NEAR(truth, estimates.mean(),
              5.0 * estimates.stddev_sample() / std::sqrt(1.0 * kTrials));
}

}  // namespace
}  // namespace gus
