// The partition-merge layer: merging split SampleViews / streaming builders
// / estimators / grouped builders in partition order must be bit-identical
// to the corresponding unsplit run. (Test data uses dyadic-rational f
// values, so every floating-point sum is exact and association-free —
// bit-identity is then a property of the merge logic, not luck.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "est/group_by.h"
#include "est/partial_gather.h"
#include "est/sample_view.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "est/unbiased.h"
#include "est/variance.h"
#include "rel/column_batch.h"
#include "rel/expression.h"
#include "test_util.h"
#include "util/hash.h"
#include "util/random.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;

/// A synthetic single-lineage batch layout {f: float64} / lineage {"R"}.
LayoutPtr MakeLayout() {
  auto layout = std::make_shared<BatchLayout>();
  layout->schema = Schema({{"f", ValueType::kFloat64}});
  layout->lineage_schema = {"R"};
  return layout;
}

/// Batch of rows [begin, end) with f(i) = (i % 97) / 4.0 (dyadic, exact)
/// and lineage id = i.
ColumnBatch MakeBatch(const LayoutPtr& layout, int64_t begin, int64_t end) {
  ColumnBatch batch(layout);
  for (int64_t i = begin; i < end; ++i) {
    EXPECT_TRUE(batch.mutable_column(0)
                    ->AppendValue(Value(static_cast<double>(i % 97) / 4.0))
                    .ok());
    batch.mutable_lineage()->push_back(static_cast<uint64_t>(i));
  }
  batch.SetNumRows(end - begin);
  return batch;
}

SampleView MakeView(int64_t begin, int64_t end) {
  SampleView view;
  view.schema = LineageSchema::Make({"R"}).ValueOrDie();
  view.lineage.assign(1, {});
  for (int64_t i = begin; i < end; ++i) {
    view.f.push_back(static_cast<double>(i % 97) / 4.0);
    view.lineage[0].push_back(static_cast<uint64_t>(i));
  }
  return view;
}

TEST(MergeTest, SampleViewMergeIsConcatenation) {
  for (const int64_t split : {0L, 1L, 100L, 499L, 500L}) {
    SampleView whole = MakeView(0, 500);
    SampleView a = MakeView(0, split);
    SampleView b = MakeView(split, 500);
    ASSERT_OK(a.Merge(std::move(b)));
    EXPECT_EQ(whole.f, a.f);
    EXPECT_EQ(whole.lineage, a.lineage);
  }
}

TEST(MergeTest, SampleViewMergeRejectsSchemaMismatch) {
  SampleView a = MakeView(0, 3);
  SampleView b;
  b.schema = LineageSchema::Make({"S"}).ValueOrDie();
  b.lineage.assign(1, {});
  EXPECT_FALSE(a.Merge(std::move(b)).ok());
}

TEST(MergeTest, SampleViewBuilderMergeMatchesUnsplit) {
  LayoutPtr layout = MakeLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  ExprPtr f = Col("f");

  ASSERT_OK_AND_ASSIGN(SampleViewBuilder whole,
                       SampleViewBuilder::Make(*layout, f, schema));
  ASSERT_OK(whole.Consume(MakeBatch(layout, 0, 700)));
  ASSERT_OK(whole.Consume(MakeBatch(layout, 700, 1000)));

  ASSERT_OK_AND_ASSIGN(SampleViewBuilder a,
                       SampleViewBuilder::Make(*layout, f, schema));
  ASSERT_OK_AND_ASSIGN(SampleViewBuilder b,
                       SampleViewBuilder::Make(*layout, f, schema));
  ASSERT_OK(a.Consume(MakeBatch(layout, 0, 400)));
  ASSERT_OK(b.Consume(MakeBatch(layout, 400, 700)));
  ASSERT_OK(b.Consume(MakeBatch(layout, 700, 1000)));
  ASSERT_OK(a.Merge(std::move(b)));

  EXPECT_EQ(whole.view().f, a.view().f);
  EXPECT_EQ(whole.view().lineage, a.view().lineage);
}

void ExpectReportsIdentical(const SboxReport& x, const SboxReport& y) {
  EXPECT_EQ(x.estimate, y.estimate);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.stddev, y.stddev);
  EXPECT_EQ(x.interval.lo, y.interval.lo);
  EXPECT_EQ(x.interval.hi, y.interval.hi);
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  EXPECT_EQ(x.variance_rows, y.variance_rows);
  EXPECT_EQ(x.y_hat, y.y_hat);
}

TEST(MergeTest, StreamingEstimatorMergeMatchesUnsplitWithSubsample) {
  LayoutPtr layout = MakeLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  ExprPtr f = Col("f");
  GusParams gus =
      MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 64;  // force interim pruning
  const int64_t n = 2000;

  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator whole,
      StreamingSboxEstimator::Make(*layout, f, gus, options));
  for (int64_t at = 0; at < n; at += 300) {
    ASSERT_OK(whole.Consume(MakeBatch(layout, at, std::min(at + 300, n))));
  }
  ASSERT_OK_AND_ASSIGN(SboxReport whole_report, whole.Finish());
  EXPECT_LT(whole_report.variance_rows, n);  // subsample really engaged

  for (const int64_t split : {1L, 512L, 1999L}) {
    ASSERT_OK_AND_ASSIGN(
        StreamingSboxEstimator a,
        StreamingSboxEstimator::Make(*layout, f, gus, options));
    ASSERT_OK_AND_ASSIGN(
        StreamingSboxEstimator b,
        StreamingSboxEstimator::Make(*layout, f, gus, options));
    ASSERT_OK(a.Consume(MakeBatch(layout, 0, split)));
    ASSERT_OK(b.Consume(MakeBatch(layout, split, n)));
    ASSERT_OK(a.Merge(std::move(b)));
    ASSERT_OK_AND_ASSIGN(SboxReport merged_report, a.Finish());
    ExpectReportsIdentical(whole_report, merged_report);
  }
}

TEST(MergeTest, StreamingEstimatorMergeMatchesUnsplitWithoutSubsample) {
  LayoutPtr layout = MakeLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  ExprPtr f = Col("f");
  GusParams gus =
      MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();

  ASSERT_OK_AND_ASSIGN(StreamingSboxEstimator whole,
                       StreamingSboxEstimator::Make(*layout, f, gus, {}));
  ASSERT_OK(whole.Consume(MakeBatch(layout, 0, 300)));
  ASSERT_OK_AND_ASSIGN(SboxReport whole_report, whole.Finish());

  ASSERT_OK_AND_ASSIGN(StreamingSboxEstimator a,
                       StreamingSboxEstimator::Make(*layout, f, gus, {}));
  ASSERT_OK_AND_ASSIGN(StreamingSboxEstimator b,
                       StreamingSboxEstimator::Make(*layout, f, gus, {}));
  ASSERT_OK(a.Consume(MakeBatch(layout, 0, 128)));
  ASSERT_OK(b.Consume(MakeBatch(layout, 128, 300)));
  ASSERT_OK(a.Merge(std::move(b)));
  ASSERT_OK_AND_ASSIGN(SboxReport merged_report, a.Finish());
  ExpectReportsIdentical(whole_report, merged_report);
}

TEST(MergeTest, StreamingEstimatorMergeRejectsMismatchedOptions) {
  LayoutPtr layout = MakeLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  GusParams gus =
      MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  SboxOptions with_sub;
  with_sub.subsample = SubsampleConfig{};
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator a,
      StreamingSboxEstimator::Make(*layout, Col("f"), gus, with_sub));
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator b,
      StreamingSboxEstimator::Make(*layout, Col("f"), gus, {}));
  EXPECT_FALSE(a.Merge(std::move(b)).ok());
}

/// y_S by its definition: groups of equal projected ids numbered by first
/// row, sums in row order, squares folded in group order.
std::vector<double> ReferenceYs(const SampleView& v) {
  std::vector<double> ys(v.schema.num_subsets());
  for (SubsetMask m = 0; m < ys.size(); ++m) {
    std::map<std::vector<uint64_t>, size_t> group_of;
    std::vector<double> sums;
    for (int64_t i = 0; i < v.num_rows(); ++i) {
      std::vector<uint64_t> key;
      for (int d = 0; d < v.schema.arity(); ++d) {
        if (m & (SubsetMask{1} << d)) key.push_back(v.lineage[d][i]);
      }
      const auto [it, inserted] = group_of.emplace(key, sums.size());
      if (inserted) sums.push_back(0.0);
      sums[it->second] += v.f[i];
    }
    double y = 0.0;
    for (const double s : sums) y += s * s;
    ys[m] = y;
  }
  return ys;
}

/// Row i of a stream over lineage {A, B} whose ids repeat across shards and
/// whose f sums depend on their order (not dyadic, unlike the rows above).
uint64_t IdA(int64_t i) { return static_cast<uint64_t>(i % 53); }
uint64_t IdB(int64_t i) { return static_cast<uint64_t>((i * 3) % 41); }
double ValueOf(int64_t i) {
  return 1.0 / static_cast<double>(1 + i % 7) + static_cast<double>(i) * 1e-4;
}

ColumnBatch MakeTwoDimBatch(const LayoutPtr& layout, int64_t begin,
                            int64_t end) {
  ColumnBatch batch(layout);
  for (int64_t i = begin; i < end; ++i) {
    EXPECT_TRUE(batch.mutable_column(0)->AppendValue(Value(ValueOf(i))).ok());
    batch.mutable_lineage()->push_back(IdA(i));
    batch.mutable_lineage()->push_back(IdB(i));
  }
  batch.SetNumRows(end - begin);
  return batch;
}

TEST(MergeTest, FinishDegradedMatchesPerShardViewReference) {
  // Three of four shards survive. FinishDegraded must reproduce, bit for
  // bit, the degraded variance computed from explicit views: one per
  // surviving shard (the within-shard pairs) and one of all survivors in
  // shard order (every pair).
  auto layout = std::make_shared<BatchLayout>();
  layout->schema = Schema({{"f", ValueType::kFloat64}});
  layout->lineage_schema = {"A", "B"};
  const LineageSchema schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  const GusParams base =
      MultiDimBernoulliGus(schema, {{"A", 0.5}, {"B", 0.8}}).ValueOrDie();
  const int kTotal = 4;
  const int64_t kShardRows = 600;
  const std::vector<int64_t> surviving = {0, 2, 3};
  ASSERT_OK_AND_ASSIGN(GusParams survival,
                       ShardSurvivalGus(schema, "A", 3, kTotal));

  for (const bool subsample : {false, true}) {
    SCOPED_TRACE(subsample ? "subsampled" : "every row");
    SboxOptions options;
    if (subsample) {
      options.subsample = SubsampleConfig{};
      options.subsample->target_rows = 150;
    }
    std::vector<StreamingSboxEstimator> states;
    for (const int64_t k : surviving) {
      ASSERT_OK_AND_ASSIGN(
          StreamingSboxEstimator est,
          StreamingSboxEstimator::Make(*layout, Col("f"), base, options));
      const int64_t end = (k + 1) * kShardRows;
      for (int64_t at = k * kShardRows; at < end; at += 250) {
        ASSERT_OK(est.Consume(
            MakeTwoDimBatch(layout, at, std::min(at + 250, end))));
      }
      states.push_back(std::move(est));
    }
    ASSERT_OK_AND_ASSIGN(SboxReport got,
                         StreamingSboxEstimator::FinishDegraded(
                             std::move(states), survival, 3, kTotal));

    const int64_t rows = 3 * kShardRows;
    GusParams analysis = base;
    double p = 1.0;
    if (subsample) {
      p = SubsampleRate(options.subsample->target_rows, rows, 2);
      ASSERT_OK_AND_ASSIGN(analysis, SubsampleAnalysisGus(base, p));
    }
    SampleView merged;
    merged.schema = schema;
    merged.lineage.assign(2, {});
    double sum_f = 0.0;
    std::vector<double> totals;
    std::vector<double> y_within(schema.num_subsets(), 0.0);
    for (const int64_t k : surviving) {
      SampleView view_k = merged;
      view_k.lineage.assign(2, {});
      view_k.f.clear();
      double total_k = 0.0;
      for (int64_t i = k * kShardRows; i < (k + 1) * kShardRows; ++i) {
        total_k += ValueOf(i);
        double u = 0.0;
        for (int d = 0; d < 2; ++d) {
          const uint64_t seed = options.subsample.has_value()
                                    ? options.subsample->seed
                                    : 0;
          u = std::max(u, LineageUnitValue(
                              HashCombine(seed, static_cast<uint64_t>(d)),
                              d == 0 ? IdA(i) : IdB(i)));
        }
        if (subsample && u >= p) continue;
        for (SampleView* v : {&view_k, &merged}) {
          v->lineage[0].push_back(IdA(i));
          v->lineage[1].push_back(IdB(i));
          v->f.push_back(ValueOf(i));
        }
      }
      totals.push_back(total_k);
      sum_f += total_k;
      const std::vector<double> y_k = ReferenceYs(view_k);
      for (size_t m = 0; m < y_within.size(); ++m) y_within[m] += y_k[m];
    }
    const std::vector<double> y_merged = ReferenceYs(merged);
    const double m = 3.0, nn = kTotal;
    const double w_within = nn / m;
    const double w_cross = (nn * (nn - 1.0)) / (m * (m - 1.0));
    std::vector<double> y_corrected(y_within.size());
    for (size_t s = 0; s < y_within.size(); ++s) {
      y_corrected[s] =
          w_within * y_within[s] + w_cross * (y_merged[s] - y_within[s]);
    }
    ASSERT_OK_AND_ASSIGN(std::vector<double> y_hat,
                         UnbiasedYEstimates(analysis, y_corrected));
    ASSERT_OK_AND_ASSIGN(const double var_base, VarianceFromY(base, y_hat));
    const double t_bar = sum_f / m;
    double s2 = 0.0;
    for (const double t : totals) s2 += (t - t_bar) * (t - t_bar);
    s2 /= (m - 1.0);
    const double var_survival =
        nn * nn * (1.0 / m - 1.0 / nn) * s2 / (base.a() * base.a());

    EXPECT_EQ(sum_f / (survival.a() * base.a()), got.estimate);
    EXPECT_EQ(rows, got.sample_rows);
    EXPECT_EQ(merged.num_rows(), got.variance_rows);
    if (subsample) {
      EXPECT_LT(got.variance_rows, rows / 4);
    }
    EXPECT_EQ(y_hat, got.y_hat);
    EXPECT_EQ(std::max(0.0, var_base) + var_survival, got.variance);
  }
}

TEST(MergeTest, GroupedBuilderMergeMatchesRelationPath) {
  // Joined fact ⋈ dim relation grouped by the dim key: the streaming
  // builder fed in two splits must reproduce GroupedSumEstimate over the
  // materialized relation bit for bit.
  testing::TinyJoinData data = MakeTinyJoin(6, 4);
  Catalog catalog = data.MakeCatalog();
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(
      Relation joined,
      ExecutePlan(PlanNode::Join(PlanNode::Scan("F"), PlanNode::Scan("D"),
                                 "fk", "pk"),
                  catalog, &rng, ExecMode::kExact));
  LineageSchema schema = LineageSchema::Make({"F", "D"}).ValueOrDie();
  GusParams gus =
      MultiDimBernoulliGus(schema, {{"F", 0.5}, {"D", 0.5}}).ValueOrDie();
  ExprPtr f = Col("v");

  ASSERT_OK_AND_ASSIGN(auto expected,
                       GroupedSumEstimate(gus, joined, f, "pk"));

  const ColumnarRelation& columnar = *joined.Columnar();
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder a,
      GroupedSumBuilder::Make(columnar.layout(), f, "pk", schema));
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder b,
      GroupedSumBuilder::Make(columnar.layout(), f, "pk", schema));
  const int64_t split = columnar.num_rows() / 3;
  ColumnBatch batch;
  columnar.EmitSlice(0, split, &batch);
  ASSERT_OK(a.Consume(batch));
  columnar.EmitSlice(split, columnar.num_rows() - split, &batch);
  ASSERT_OK(b.Consume(batch));
  ASSERT_OK(a.Merge(std::move(b)));
  ASSERT_OK_AND_ASSIGN(auto merged, a.Finish(gus));

  ASSERT_EQ(expected.size(), merged.size());
  for (size_t g = 0; g < expected.size(); ++g) {
    EXPECT_TRUE(expected[g].key == merged[g].key);
    EXPECT_EQ(expected[g].estimate, merged[g].estimate);
    EXPECT_EQ(expected[g].variance, merged[g].variance);
    EXPECT_EQ(expected[g].interval.lo, merged[g].interval.lo);
    EXPECT_EQ(expected[g].interval.hi, merged[g].interval.hi);
    EXPECT_EQ(expected[g].sample_rows, merged[g].sample_rows);
  }
}

}  // namespace
}  // namespace gus
