// Tests for the Section 6.3 unbiased Ŷ_S recursion: exactness under the
// identity GUS, Monte-Carlo unbiasedness under real sampling designs, and
// coefficient sanity.

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/unbiased.h"
#include "est/ys.h"
#include "mc/monte_carlo.h"
#include "sampling/samplers.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;
using ::gus::testing::TinyJoinData;

TEST(UnbiasingCoefficientTest, DiagonalIsB) {
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.3), "R"));
  EXPECT_DOUBLE_EQ(g.b(SubsetMask{0}), UnbiasingCoefficient(g, 0, 0));
  EXPECT_DOUBLE_EQ(g.b(SubsetMask{1}), UnbiasingCoefficient(g, 1, 1));
}

TEST(UnbiasingCoefficientTest, SingleStep) {
  // d_{∅,{R}} = b_R − b_∅ for a single relation.
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.3), "R"));
  EXPECT_NEAR(0.3 - 0.09, UnbiasingCoefficient(g, 0, 1), 1e-15);
}

TEST(UnbiasedYTest, IdentityGusReturnsInput) {
  // With no sampling (a = 1, b = 1), Y is already y: the recursion must be
  // the identity transform.
  GusParams id =
      GusParams::Identity(LineageSchema::Make({"A", "B"}).ValueOrDie());
  const std::vector<double> Y = {100.0, 58.0, 52.0, 30.0};
  ASSERT_OK_AND_ASSIGN(auto y_hat, UnbiasedYEstimates(id, Y));
  // d_{S,U} = 0 for U ≠ S when all b are equal (telescoping), so Ŷ = Y.
  for (size_t m = 0; m < Y.size(); ++m) {
    EXPECT_NEAR(Y[m], y_hat[m], 1e-9) << "mask " << m;
  }
}

TEST(UnbiasedYTest, WrongTableSizeFails) {
  GusParams id = GusParams::Identity(LineageSchema::Make({"A"}).ValueOrDie());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     UnbiasedYEstimates(id, {1.0}).status());
}

TEST(UnbiasedYTest, ZeroBFails) {
  GusParams null = GusParams::Null(LineageSchema::Make({"A"}).ValueOrDie());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     UnbiasedYEstimates(null, {0.0, 0.0}).status());
}

TEST(UnbiasedYTest, SingleRelationBernoulliMonteCarlo) {
  // E[Ŷ_S] = y_S: check both masks for Bernoulli(0.4) over 20 values.
  Relation r = gus::testing::MakeSingleTable(20);
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.4), "R"));
  ASSERT_OK_AND_ASSIGN(
      SampleView full,
      SampleView::FromRelation(r, Col("v"), g.schema()));
  const auto y_true = ComputeAllYS(YsInput::Of(full));

  Rng rng(70);
  std::vector<MeanVar> y_means(2);
  for (int t = 0; t < 40000; ++t) {
    auto s = BernoulliSample(r, 0.4, &rng).ValueOrDie();
    ASSERT_OK_AND_ASSIGN(
        SampleView sv, SampleView::FromRelation(s, Col("v"), g.schema()));
    const auto Y = ComputeAllYS(YsInput::Of(sv));
    ASSERT_OK_AND_ASSIGN(auto y_hat, UnbiasedYEstimates(g, Y));
    y_means[0].Add(y_hat[0]);
    y_means[1].Add(y_hat[1]);
  }
  for (int m = 0; m < 2; ++m) {
    const double se = y_means[m].stddev_sample() / std::sqrt(40000.0);
    EXPECT_NEAR(y_true[m], y_means[m].mean(), 4.0 * se) << "mask " << m;
  }
}

TEST(UnbiasedYTest, JoinPlanMonteCarloAllMasks) {
  // The full two-relation recursion: E[Ŷ_S] = y_S for every S on a join of
  // Bernoulli and WOR samples (collected via RunSboxTrials).
  TinyJoinData data = MakeTinyJoin(5, 2);
  Catalog catalog = data.MakeCatalog();
  Workload w;
  w.plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.6), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(3, 5),
                       PlanNode::Scan("D")),
      "fk", "pk");
  w.aggregate = Mul(Col("v"), Col("w"));
  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(w, catalog, 40000, 558));
  ASSERT_EQ(4u, stats.y_hat.size());
  for (size_t m = 0; m < 4; ++m) {
    const double se =
        stats.y_hat[m].stddev_sample() / std::sqrt(40000.0);
    EXPECT_NEAR(stats.y_true[m], stats.y_hat[m].mean(), 4.0 * se)
        << "mask " << m;
  }
}

TEST(UnbiasedYTest, CompactedGusMonteCarlo) {
  // Section 7 setting: estimate y_S of the base data from a doubly-sampled
  // stream (Bernoulli then lineage-Bernoulli), unbiasing with the compacted
  // GUS.
  Relation r = gus::testing::MakeSingleTable(25);
  ASSERT_OK_AND_ASSIGN(
      GusParams g1, TranslateBaseSampling(SamplingSpec::Bernoulli(0.5), "R"));
  ASSERT_OK_AND_ASSIGN(
      GusParams g2, TranslateBaseSampling(SamplingSpec::Bernoulli(0.4), "R"));
  ASSERT_OK_AND_ASSIGN(GusParams g, GusCompact(g2, g1));
  ASSERT_OK_AND_ASSIGN(
      SampleView full, SampleView::FromRelation(r, Col("v"), g.schema()));
  const auto y_true = ComputeAllYS(YsInput::Of(full));

  Rng rng(71);
  std::vector<MeanVar> y_means(2);
  for (int t = 0; t < 40000; ++t) {
    auto s1 = BernoulliSample(r, 0.5, &rng).ValueOrDie();
    auto s2 = BernoulliSample(s1, 0.4, &rng).ValueOrDie();
    ASSERT_OK_AND_ASSIGN(
        SampleView sv, SampleView::FromRelation(s2, Col("v"), g.schema()));
    const auto Y = ComputeAllYS(YsInput::Of(sv));
    ASSERT_OK_AND_ASSIGN(auto y_hat, UnbiasedYEstimates(g, Y));
    y_means[0].Add(y_hat[0]);
    y_means[1].Add(y_hat[1]);
  }
  for (int m = 0; m < 2; ++m) {
    const double se = y_means[m].stddev_sample() / std::sqrt(40000.0);
    EXPECT_NEAR(y_true[m], y_means[m].mean(), 4.0 * se) << "mask " << m;
  }
}

}  // namespace
}  // namespace gus
