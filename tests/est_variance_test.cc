// Theorem 1 validation: closed forms for classical designs and Monte-Carlo
// agreement for join plans (the paper's central formula).

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/translate.h"
#include "est/variance.h"
#include "est/ys.h"
#include "mc/monte_carlo.h"
#include "sampling/samplers.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::MakeSingleTable;
using ::gus::testing::MakeTinyJoin;
using ::gus::testing::TinyJoinData;

SampleView ViewOf(const Relation& rel, const ExprPtr& f,
                  const LineageSchema& schema) {
  return SampleView::FromRelation(rel, f, schema).ValueOrDie();
}

TEST(VarianceTest, BernoulliClosedForm) {
  // Var[(1/p) sum f] = (1-p)/p * sum f^2 for Bernoulli(p).
  Relation r = MakeSingleTable(10);
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.3), "R"));
  SampleView full = ViewOf(r, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double var, ExactVariance(g, full));
  double sum_sq = 0.0;
  for (int i = 1; i <= 10; ++i) sum_sq += i * i;
  EXPECT_NEAR((1.0 - 0.3) / 0.3 * sum_sq, var, 1e-9);
}

TEST(VarianceTest, WorClosedForm) {
  // Var = (N-n)/(n(N-1)) * (N*y_full - y_∅) for WOR(n, N).
  const int N = 12, n = 5;
  Relation r = MakeSingleTable(N);
  ASSERT_OK_AND_ASSIGN(
      GusParams g,
      TranslateBaseSampling(SamplingSpec::WithoutReplacement(n, N), "R"));
  SampleView full = ViewOf(r, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double var, ExactVariance(g, full));
  const auto y = ComputeAllYS(YsInput::Of(full));
  const double expected =
      static_cast<double>(N - n) / (n * (N - 1.0)) * (N * y[1] - y[0]);
  EXPECT_NEAR(expected, var, 1e-9 * expected);
}

TEST(VarianceTest, FullWorSampleHasZeroVariance) {
  // Sampling all N rows WOR is deterministic.
  const int N = 8;
  Relation r = MakeSingleTable(N);
  ASSERT_OK_AND_ASSIGN(
      GusParams g,
      TranslateBaseSampling(SamplingSpec::WithoutReplacement(N, N), "R"));
  SampleView full = ViewOf(r, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double var, ExactVariance(g, full));
  EXPECT_NEAR(0.0, var, 1e-9);
}

TEST(VarianceTest, IdentityGusHasZeroVariance) {
  Relation r = MakeSingleTable(10);
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  SampleView full = ViewOf(r, Col("v"), id.schema());
  ASSERT_OK_AND_ASSIGN(double var, ExactVariance(id, full));
  EXPECT_NEAR(0.0, var, 1e-9);
}

TEST(VarianceTest, PointEstimateScalesByA) {
  Relation r = MakeSingleTable(4);  // sum = 10
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.5), "R"));
  SampleView v = ViewOf(r, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double x, PointEstimate(g, v));
  EXPECT_DOUBLE_EQ(20.0, x);
}

TEST(VarianceTest, MismatchedSchemaFails) {
  Relation r = MakeSingleTable(4);
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.5), "X"));
  SampleView v =
      ViewOf(r, Col("v"), LineageSchema::Make({"R"}).ValueOrDie());
  EXPECT_STATUS_CODE(kInvalidArgument, PointEstimate(g, v).status());
}

// ------------------------- Monte-Carlo validation on single relations

TEST(VarianceMcTest, BernoulliEmpiricalMatches) {
  Relation r = MakeSingleTable(40);
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.25), "R"));
  SampleView full = ViewOf(r, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double theory_var, ExactVariance(g, full));
  const double truth = full.SumF();

  Rng rng(99);
  MeanVar estimates;
  for (int t = 0; t < 30000; ++t) {
    auto s = BernoulliSample(r, 0.25, &rng).ValueOrDie();
    SampleView sv = ViewOf(s, Col("v"), g.schema());
    estimates.Add(sv.SumF() / 0.25);
  }
  EXPECT_NEAR(truth, estimates.mean(), 3.0 * std::sqrt(theory_var / 30000));
  EXPECT_NEAR(theory_var, estimates.variance_sample(), 0.05 * theory_var);
}

TEST(VarianceMcTest, WorEmpiricalMatches) {
  const int N = 30, n = 7;
  Relation r = MakeSingleTable(N);
  ASSERT_OK_AND_ASSIGN(
      GusParams g,
      TranslateBaseSampling(SamplingSpec::WithoutReplacement(n, N), "R"));
  SampleView full = ViewOf(r, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double theory_var, ExactVariance(g, full));
  const double truth = full.SumF();
  const double a = static_cast<double>(n) / N;

  Rng rng(100);
  MeanVar estimates;
  for (int t = 0; t < 30000; ++t) {
    auto s = WorSample(r, n, &rng).ValueOrDie();
    SampleView sv = ViewOf(s, Col("v"), g.schema());
    estimates.Add(sv.SumF() / a);
  }
  EXPECT_NEAR(truth, estimates.mean(), 3.0 * std::sqrt(theory_var / 30000));
  EXPECT_NEAR(theory_var, estimates.variance_sample(), 0.05 * theory_var);
}

TEST(VarianceMcTest, BlockSamplingEmpiricalMatches) {
  // Block sampling with block-granularity lineage: Theorem 1 must predict
  // the (larger) variance caused by intra-block correlation.
  Relation r = MakeSingleTable(40);
  auto blocked = AssignBlockLineage(r, 8).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(
      GusParams g,
      TranslateBaseSampling(SamplingSpec::BlockBernoulli(0.3, 8), "R"));
  SampleView full = ViewOf(blocked, Col("v"), g.schema());
  ASSERT_OK_AND_ASSIGN(double theory_var, ExactVariance(g, full));

  Rng rng(101);
  MeanVar estimates;
  for (int t = 0; t < 30000; ++t) {
    auto s = BlockBernoulliSample(blocked, 0.3, &rng).ValueOrDie();
    SampleView sv = ViewOf(s, Col("v"), g.schema());
    estimates.Add(sv.SumF() / 0.3);
  }
  EXPECT_NEAR(full.SumF(), estimates.mean(),
              3.0 * std::sqrt(theory_var / 30000));
  EXPECT_NEAR(theory_var, estimates.variance_sample(), 0.05 * theory_var);
  // Sanity: block variance exceeds the tuple-Bernoulli variance at equal p
  // for this positively-correlated layout.
  ASSERT_OK_AND_ASSIGN(
      GusParams tuple_g,
      TranslateBaseSampling(SamplingSpec::Bernoulli(0.3), "R"));
  SampleView tuple_full = ViewOf(r, Col("v"), tuple_g.schema());
  ASSERT_OK_AND_ASSIGN(double tuple_var, ExactVariance(tuple_g, tuple_full));
  EXPECT_GT(theory_var, tuple_var);
}

// ------------------------- Monte-Carlo validation on a join (the paper's
// central case: correlated result tuples)

TEST(VarianceMcTest, JoinPlanEmpiricalMatches) {
  TinyJoinData data = MakeTinyJoin(/*num_dim=*/5, /*fanout=*/3);
  Catalog catalog = data.MakeCatalog();
  Workload w;
  w.plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(3, 5),
                       PlanNode::Scan("D")),
      "fk", "pk");
  w.aggregate = Mul(Col("v"), Col("w"));

  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(w, catalog, 30000, 555));
  // Unbiased: empirical mean ≈ truth.
  EXPECT_NEAR(stats.truth, stats.estimates.mean(),
              4.0 * std::sqrt(stats.oracle_variance / 30000));
  // Theorem 1 variance ≈ empirical variance.
  EXPECT_NEAR(stats.oracle_variance, stats.estimates.variance_sample(),
              0.06 * stats.oracle_variance);
  // The estimated variance is itself unbiased for the oracle variance.
  EXPECT_NEAR(stats.oracle_variance, stats.predicted_variance.mean(),
              0.10 * stats.oracle_variance);
}

TEST(VarianceMcTest, CrossProductPlanEmpiricalMatches) {
  // Cross product (Prop 6 is proven through it).
  TinyJoinData data = MakeTinyJoin(4, 2);
  Catalog catalog = data.MakeCatalog();
  Workload w;
  w.plan = PlanNode::Product(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.6), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.4),
                       PlanNode::SelectNode(Ge(Col("pk"), Lit(Value(int64_t{1}))),
                                            PlanNode::Scan("D"))));
  w.aggregate = Add(Col("v"), Col("w"));

  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(w, catalog, 30000, 556));
  EXPECT_NEAR(stats.truth, stats.estimates.mean(),
              4.0 * std::sqrt(stats.oracle_variance / 30000));
  EXPECT_NEAR(stats.oracle_variance, stats.estimates.variance_sample(),
              0.06 * stats.oracle_variance);
}

TEST(VarianceMcTest, UnionPlanEmpiricalMatches) {
  // Prop 7 end-to-end: union of two independent Bernoulli samples.
  TinyJoinData data = MakeTinyJoin(10, 1);
  Catalog catalog = data.MakeCatalog();
  PlanPtr scan = PlanNode::Scan("D");
  Workload w;
  w.plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.3), scan),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.4), scan));
  w.aggregate = Col("w");

  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(w, catalog, 30000, 557));
  EXPECT_NEAR(stats.truth, stats.estimates.mean(),
              4.0 * std::sqrt(stats.oracle_variance / 30000));
  EXPECT_NEAR(stats.oracle_variance, stats.estimates.variance_sample(),
              0.07 * stats.oracle_variance);
}

}  // namespace
}  // namespace gus
