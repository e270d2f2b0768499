// Tests for the sampling-design optimizer.

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/translate.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "est/variance.h"
#include "est/ys.h"
#include "mc/monte_carlo.h"
#include "opt/design_optimizer.h"
#include "test_util.h"

namespace gus {
namespace {

LineageSchema SchemaLO() {
  return LineageSchema::Make({"l", "o"}).ValueOrDie();
}

std::vector<DesignDimension> DimsLO(double card_l = 1000.0,
                                    double card_o = 500.0) {
  return {{"l", card_l, 0.01, 1.0}, {"o", card_o, 0.01, 1.0}};
}

/// y table of a synthetic dataset over {l, o}.
std::vector<double> SyntheticY() {
  // Plausible magnitudes: y_∅ >= y_l, y_o >= y_lo > 0.
  return {1.0e6, 4.0e4, 9.0e4, 2.0e3};
}

TEST(PredictVarianceTest, MatchesManualGus) {
  auto y = SyntheticY();
  ASSERT_OK_AND_ASSIGN(
      double var,
      PredictBernoulliVariance(SchemaLO(), DimsLO(), {0.2, 0.5}, y));
  // Manual: variance = sum c_S/a^2 y_S - y_empty with the multi-dim
  // Bernoulli GUS. Cross-check with a direct computation.
  ASSERT_OK_AND_ASSIGN(
      GusParams g,
      MultiDimBernoulliGus(SchemaLO(), {{"l", 0.2}, {"o", 0.5}}));
  ASSERT_OK_AND_ASSIGN(double direct, VarianceFromY(g, y));
  EXPECT_DOUBLE_EQ(direct, var);
}

TEST(PredictVarianceTest, MonotoneInRates) {
  // More sampling -> less variance, in each coordinate.
  auto y = SyntheticY();
  double prev = 1e300;
  for (double p : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    ASSERT_OK_AND_ASSIGN(
        double var,
        PredictBernoulliVariance(SchemaLO(), DimsLO(), {p, 0.5}, y));
    EXPECT_LT(var, prev + 1e-9) << "p=" << p;
    prev = var;
  }
}

TEST(PredictVarianceTest, FullSamplingZeroVariance) {
  auto y = SyntheticY();
  ASSERT_OK_AND_ASSIGN(
      double var,
      PredictBernoulliVariance(SchemaLO(), DimsLO(), {1.0, 1.0}, y));
  EXPECT_NEAR(0.0, var, 1e-6);
}

TEST(PredictVarianceTest, InvalidInputs) {
  auto y = SyntheticY();
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      PredictBernoulliVariance(SchemaLO(), DimsLO(), {0.0, 0.5}, y).status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      PredictBernoulliVariance(SchemaLO(), DimsLO(), {0.5}, y).status());
  EXPECT_STATUS_CODE(
      kKeyError,
      PredictBernoulliVariance(SchemaLO(),
                               {{"zzz", 10.0, 0.01, 1.0}}, {0.5}, y)
          .status());
}

TEST(OptimizerTest, RespectsBudget) {
  OptimizerConfig config;
  config.budget = 300.0;
  ASSERT_OK_AND_ASSIGN(
      DesignResult result,
      OptimizeBernoulliDesign(SchemaLO(), DimsLO(), SyntheticY(), config));
  EXPECT_LE(result.expected_cost, config.budget * 1.0001);
  for (double p : result.rates) {
    EXPECT_GE(p, 0.01);
    EXPECT_LE(p, 1.0);
  }
}

TEST(OptimizerTest, UsesEntireBudgetWhenBinding) {
  // Variance is monotone decreasing in each rate, so an interior optimum
  // must sit on the budget surface.
  OptimizerConfig config;
  config.budget = 300.0;
  ASSERT_OK_AND_ASSIGN(
      DesignResult result,
      OptimizeBernoulliDesign(SchemaLO(), DimsLO(), SyntheticY(), config));
  EXPECT_GT(result.expected_cost, config.budget * 0.98);
}

TEST(OptimizerTest, BeatsUniformAllocation) {
  // Skew the data so the two relations deserve very different rates, then
  // verify the optimizer beats spending the budget uniformly.
  std::vector<double> y = {1.0e6, 5.0e5, 1.0e3, 5.0e2};  // l-groups dominate
  OptimizerConfig config;
  config.budget = 400.0;
  auto dims = DimsLO();
  ASSERT_OK_AND_ASSIGN(DesignResult best,
                       OptimizeBernoulliDesign(SchemaLO(), dims, y, config));
  // Uniform: equal p on both such that cost = budget.
  const double uniform_p = config.budget / (1000.0 + 500.0);
  ASSERT_OK_AND_ASSIGN(
      double uniform_var,
      PredictBernoulliVariance(SchemaLO(), dims, {uniform_p, uniform_p}, y));
  EXPECT_LT(best.predicted_variance, 0.9 * uniform_var);
}

TEST(OptimizerTest, InfeasibleBudgetFails) {
  OptimizerConfig config;
  config.budget = 1.0;  // below min_p * cardinalities = 15
  EXPECT_STATUS_CODE(kInvalidArgument,
                     OptimizeBernoulliDesign(SchemaLO(), DimsLO(),
                                             SyntheticY(), config)
                         .status());
}

TEST(OptimizerTest, OptimizedDesignVerifiedByMonteCarlo) {
  // End-to-end: optimize rates from *exact* y statistics of a real join,
  // then verify the predicted variance empirically at those rates.
  TpchConfig data_config;
  data_config.num_orders = 300;
  data_config.num_customers = 40;
  data_config.num_parts = 30;
  TpchData data = GenerateTpch(data_config);
  Catalog catalog = data.MakeCatalog();

  // Exact y over the unsampled Query-1 relational core.
  Query1Params params;
  params.orders_n = 100;
  params.orders_population = 300;
  Workload q1 = MakeQuery1(params);
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(q1.plan));
  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(Relation exact,
                       ExecutePlan(q1.plan, catalog, &rng, ExecMode::kExact));
  ASSERT_OK_AND_ASSIGN(
      SampleView exact_view,
      SampleView::FromRelation(exact, q1.aggregate, soa.top.schema()));
  const auto y = ComputeAllYS(YsInput::Of(exact_view));

  std::vector<DesignDimension> dims = {
      {"l", static_cast<double>(data.lineitem.num_rows()), 0.05, 1.0},
      {"o", 300.0, 0.05, 1.0}};
  OptimizerConfig config;
  config.budget = 0.3 * (static_cast<double>(data.lineitem.num_rows()) + 300.0);
  ASSERT_OK_AND_ASSIGN(DesignResult best,
                       OptimizeBernoulliDesign(soa.top.schema(), dims, y,
                                               config));

  // Execute the chosen design.
  Workload chosen;
  chosen.plan = PlanNode::SelectNode(
      Gt(Col("l_extendedprice"), Lit(100.0)),
      PlanNode::Join(
          PlanNode::Sample(SamplingSpec::Bernoulli(best.rates[0]),
                           PlanNode::Scan("l")),
          PlanNode::Sample(SamplingSpec::Bernoulli(best.rates[1]),
                           PlanNode::Scan("o")),
          "l_orderkey", "o_orderkey"));
  chosen.aggregate = q1.aggregate;
  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(chosen, catalog, 6000, 909));
  EXPECT_NEAR(best.predicted_variance, stats.estimates.variance_sample(),
              0.12 * best.predicted_variance);
}

}  // namespace
}  // namespace gus
