// SBox end-to-end tests: full pipeline, Section 7 sub-sampled variance, the
// naive-IID baseline, and coverage behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algebra/translate.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "est/streaming.h"
#include "est/variance.h"
#include "mc/monte_carlo.h"
#include "rel/column_batch.h"
#include "test_util.h"
#include "util/random.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;
using ::gus::testing::TinyJoinData;

Workload TinyWorkload() {
  Workload w;
  w.plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(3, 5),
                       PlanNode::Scan("D")),
      "fk", "pk");
  w.aggregate = Mul(Col("v"), Col("w"));
  return w;
}

TEST(SboxTest, ReportFieldsAreCoherent) {
  TinyJoinData data = MakeTinyJoin(5, 2);
  Catalog catalog = data.MakeCatalog();
  Workload w = TinyWorkload();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(w.plan));
  Rng rng(1);
  ASSERT_OK_AND_ASSIGN(Relation sampled, ExecutePlan(w.plan, catalog, &rng));
  ASSERT_OK_AND_ASSIGN(
      SampleView view,
      SampleView::FromRelation(sampled, w.aggregate, soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport report, SboxEstimate(soa.top, view));
  EXPECT_EQ(sampled.num_rows(), report.sample_rows);
  EXPECT_EQ(report.sample_rows, report.variance_rows);
  EXPECT_DOUBLE_EQ(view.SumF() / soa.top.a(), report.estimate);
  EXPECT_DOUBLE_EQ(std::sqrt(report.variance), report.stddev);
  EXPECT_LE(report.interval.lo, report.estimate);
  EXPECT_GE(report.interval.hi, report.estimate);
  EXPECT_EQ(4u, report.y_hat.size());
}

TEST(SboxTest, SchemaMismatchFails) {
  TinyJoinData data = MakeTinyJoin(5, 2);
  GusParams wrong =
      GusParams::Identity(LineageSchema::Make({"X"}).ValueOrDie());
  SampleView view;
  view.schema = LineageSchema::Make({"F", "D"}).ValueOrDie();
  view.lineage.assign(2, {});
  EXPECT_STATUS_CODE(kInvalidArgument, SboxEstimate(wrong, view).status());
}

TEST(SboxTest, EmptySampleYieldsZeroEstimate) {
  Workload w = TinyWorkload();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(w.plan));
  SampleView view;
  view.schema = soa.top.schema();
  view.lineage.assign(2, {});
  ASSERT_OK_AND_ASSIGN(SboxReport report, SboxEstimate(soa.top, view));
  EXPECT_DOUBLE_EQ(0.0, report.estimate);
  EXPECT_DOUBLE_EQ(0.0, report.variance);
}

TEST(SboxTest, CoverageNearNominal) {
  TinyJoinData data = MakeTinyJoin(8, 3);
  Catalog catalog = data.MakeCatalog();
  Workload w;
  w.plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(5, 8),
                       PlanNode::Scan("D")),
      "fk", "pk");
  w.aggregate = Mul(Col("v"), Col("w"));
  SboxOptions options;
  options.confidence_level = 0.95;
  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(w, catalog, 8000, 559, options));
  // Small samples + estimated variance: expect coverage in a generous band
  // around nominal.
  EXPECT_GT(stats.coverage.fraction(), 0.88);
  EXPECT_LT(stats.coverage.fraction(), 0.995);
}

TEST(SboxTest, ChebyshevCoversAtLeastNominal) {
  TinyJoinData data = MakeTinyJoin(8, 3);
  Catalog catalog = data.MakeCatalog();
  Workload w;
  w.plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(5, 8),
                       PlanNode::Scan("D")),
      "fk", "pk");
  w.aggregate = Mul(Col("v"), Col("w"));
  SboxOptions options;
  options.bound_kind = BoundKind::kChebyshev;
  ASSERT_OK_AND_ASSIGN(SboxTrialStats stats,
                       RunSboxTrials(w, catalog, 4000, 560, options));
  EXPECT_GT(stats.coverage.fraction(), 0.97);
}

TEST(SboxTest, SubsampledVarianceCloseToFullVariance) {
  // Section 7: y_S from a sub-sample should give nearly the same variance
  // estimate, at a fraction of the rows.
  TpchConfig config;
  config.num_orders = 3000;
  config.max_lineitems_per_order = 5;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.8;
  params.orders_n = 2500;
  params.orders_population = config.num_orders;
  Workload q1 = MakeQuery1(params);

  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(q1.plan));
  Rng rng(77);
  ASSERT_OK_AND_ASSIGN(Relation sampled, ExecutePlan(q1.plan, catalog, &rng));
  ASSERT_OK_AND_ASSIGN(
      SampleView view,
      SampleView::FromRelation(sampled, q1.aggregate, soa.top.schema()));
  ASSERT_GT(view.num_rows(), 2000);

  ASSERT_OK_AND_ASSIGN(SboxReport full_report, SboxEstimate(soa.top, view));
  SboxOptions sub_options;
  sub_options.subsample = SubsampleConfig{/*target_rows=*/800, /*seed=*/4242};
  ASSERT_OK_AND_ASSIGN(SboxReport sub_report,
                       SboxEstimate(soa.top, view, sub_options));
  // Same point estimate (the estimate never uses the sub-sample).
  EXPECT_DOUBLE_EQ(full_report.estimate, sub_report.estimate);
  // Fewer variance rows.
  EXPECT_LT(sub_report.variance_rows, view.num_rows());
  EXPECT_GT(sub_report.variance_rows, 100);
  // Variance estimate within a factor band (it is noisier, not biased).
  EXPECT_GT(sub_report.variance, 0.2 * full_report.variance);
  EXPECT_LT(sub_report.variance, 5.0 * full_report.variance);
}

TEST(SboxTest, VarianceTermsFoldToReportedVariance) {
  // Theorem 1 term by term: summing the per-subset terms of the report's
  // Ŷ in mask order is the reported variance, bit for bit.
  TpchConfig config;
  config.num_orders = 3000;
  config.max_lineitems_per_order = 5;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.5;
  params.orders_n = 1500;
  params.orders_population = config.num_orders;
  Workload q1 = MakeQuery1(params);

  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(q1.plan));
  Rng rng(78);
  ASSERT_OK_AND_ASSIGN(Relation sampled, ExecutePlan(q1.plan, catalog, &rng));
  ASSERT_OK_AND_ASSIGN(
      SampleView view,
      SampleView::FromRelation(sampled, q1.aggregate, soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport report, SboxEstimate(soa.top, view));
  ASSERT_GT(report.variance, 0.0);

  ASSERT_OK_AND_ASSIGN(std::vector<double> terms,
                       VarianceTermsFromY(soa.top, report.y_hat));
  ASSERT_EQ(report.y_hat.size(), terms.size());
  double var = terms[0];
  for (size_t m = 1; m < terms.size(); ++m) var += terms[m];
  EXPECT_EQ(report.variance, var);
}

TEST(SboxTest, SubsampleNotTriggeredBelowTarget) {
  TinyJoinData data = MakeTinyJoin(5, 2);
  Catalog catalog = data.MakeCatalog();
  Workload w = TinyWorkload();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(w.plan));
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(Relation sampled, ExecutePlan(w.plan, catalog, &rng));
  ASSERT_OK_AND_ASSIGN(
      SampleView view,
      SampleView::FromRelation(sampled, w.aggregate, soa.top.schema()));
  SboxOptions options;
  options.subsample = SubsampleConfig{/*target_rows=*/10000, /*seed=*/1};
  ASSERT_OK_AND_ASSIGN(SboxReport report,
                       SboxEstimate(soa.top, view, options));
  EXPECT_EQ(report.sample_rows, report.variance_rows);
}

TEST(SboxTest, SubsampledEstimateMatchesStreamingFinish) {
  // SboxEstimate stops a row's Section 7 draw at the first unit that
  // reaches the rate; the streaming estimator keeps the whole draw. Both
  // must keep the same survivors, so their reports agree bit for bit.
  auto layout = std::make_shared<BatchLayout>();
  layout->schema = Schema({{"f", ValueType::kFloat64}});
  layout->lineage_schema = {"R", "S"};
  const LineageSchema schema = LineageSchema::Make({"R", "S"}).ValueOrDie();
  SampleView view;
  view.schema = schema;
  view.lineage.assign(2, {});
  ColumnBatch batch(layout);
  Rng rng(31);
  const int64_t n = 3000;
  for (int64_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(rng.UniformInt(uint64_t{64})) / 8.0;
    const uint64_t r = rng.UniformInt(uint64_t{900});
    const uint64_t s = rng.UniformInt(uint64_t{400});
    ASSERT_OK(batch.mutable_column(0)->AppendValue(Value(f)));
    batch.mutable_lineage()->push_back(r);
    batch.mutable_lineage()->push_back(s);
    view.f.push_back(f);
    view.lineage[0].push_back(r);
    view.lineage[1].push_back(s);
  }
  batch.SetNumRows(n);
  const GusParams gus =
      MultiDimBernoulliGus(schema, {{"R", 0.5}, {"S", 0.25}}).ValueOrDie();
  SboxOptions options;
  options.subsample = SubsampleConfig{/*target_rows=*/200, /*seed=*/99};

  ASSERT_OK_AND_ASSIGN(SboxReport direct, SboxEstimate(gus, view, options));
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator streaming,
      StreamingSboxEstimator::Make(*layout, Col("f"), gus, options));
  ASSERT_OK(streaming.Consume(batch));
  ASSERT_OK_AND_ASSIGN(SboxReport streamed, streaming.Finish());

  EXPECT_LT(direct.variance_rows, n);  // the sub-sampler really engaged
  EXPECT_EQ(direct.variance_rows, streamed.variance_rows);
  EXPECT_EQ(direct.estimate, streamed.estimate);
  EXPECT_EQ(direct.variance, streamed.variance);
  EXPECT_EQ(direct.y_hat, streamed.y_hat);
}

TEST(NaiveIidTest, PointEstimateMatchesSbox) {
  TinyJoinData data = MakeTinyJoin(5, 2);
  Catalog catalog = data.MakeCatalog();
  Workload w = TinyWorkload();
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(w.plan));
  Rng rng(4);
  ASSERT_OK_AND_ASSIGN(Relation sampled, ExecutePlan(w.plan, catalog, &rng));
  ASSERT_OK_AND_ASSIGN(
      SampleView view,
      SampleView::FromRelation(sampled, w.aggregate, soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport gus_report, SboxEstimate(soa.top, view));
  ASSERT_OK_AND_ASSIGN(SboxReport naive_report,
                       NaiveIidEstimate(soa.top.a(), view));
  EXPECT_DOUBLE_EQ(gus_report.estimate, naive_report.estimate);
}

TEST(NaiveIidTest, RejectsNonPositiveA) {
  SampleView view;
  view.schema = LineageSchema::Make({"R"}).ValueOrDie();
  view.lineage.assign(1, {});
  EXPECT_STATUS_CODE(kInvalidArgument, NaiveIidEstimate(0.0, view).status());
}

TEST(NaiveIidTest, UnderestimatesVarianceOnCorrelatedJoins) {
  // The motivating failure (paper Section 2): join fanout correlates result
  // tuples; pretending they are IID understates the variance. Use a high-
  // fanout join so the effect is unmistakable.
  TinyJoinData data = MakeTinyJoin(/*num_dim=*/6, /*fanout=*/12);
  Catalog catalog = data.MakeCatalog();
  Workload w;
  w.plan = PlanNode::Join(
      PlanNode::Scan("F"),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(2, 6),
                       PlanNode::Scan("D")),
      "fk", "pk");
  w.aggregate = Mul(Col("v"), Col("w"));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(w.plan));

  Rng rng(5);
  MeanVar gus_var, naive_var;
  for (int t = 0; t < 300; ++t) {
    Rng trial = rng.Fork(t);
    ASSERT_OK_AND_ASSIGN(Relation sampled,
                         ExecutePlan(w.plan, catalog, &trial));
    ASSERT_OK_AND_ASSIGN(
        SampleView view,
        SampleView::FromRelation(sampled, w.aggregate, soa.top.schema()));
    if (view.num_rows() < 2) continue;
    ASSERT_OK_AND_ASSIGN(SboxReport g, SboxEstimate(soa.top, view));
    ASSERT_OK_AND_ASSIGN(SboxReport n, NaiveIidEstimate(soa.top.a(), view));
    gus_var.Add(g.variance);
    naive_var.Add(n.variance);
  }
  EXPECT_GT(gus_var.mean(), 3.0 * naive_var.mean());
}

}  // namespace
}  // namespace gus
