// Tests for grouped SUM estimation.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/group_by.h"
#include "est/sbox.h"
#include "rel/column_batch.h"
#include "rel/operators.h"
#include "sampling/samplers.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace {

/// Base relation with columns (grp int64, v float64): 4 groups x 10 rows,
/// group k holding values k+1 each, so SUM per group = 10*(k+1).
Relation MakeGroupedTable() {
  std::vector<Row> rows;
  for (int64_t k = 0; k < 4; ++k) {
    for (int i = 0; i < 10; ++i) {
      rows.push_back(Row{Value(k), Value(static_cast<double>(k + 1))});
    }
  }
  return Relation::MakeBase(
      "R", Schema({{"grp", ValueType::kInt64}, {"v", ValueType::kFloat64}}),
      std::move(rows));
}

TEST(GroupByTest, FullSampleIsExactPerGroup) {
  Relation r = MakeGroupedTable();
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(id, r, Col("v"), "grp"));
  ASSERT_EQ(4u, groups.size());
  for (size_t k = 0; k < groups.size(); ++k) {
    EXPECT_EQ(static_cast<int64_t>(k), groups[k].key.AsInt64());
    EXPECT_DOUBLE_EQ(10.0 * (k + 1), groups[k].estimate);
    EXPECT_NEAR(0.0, groups[k].variance, 1e-9);
    EXPECT_EQ(10, groups[k].sample_rows);
  }
}

TEST(GroupByTest, SortedByKey) {
  Relation r = MakeGroupedTable();
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(id, r, Col("v"), "grp"));
  for (size_t k = 1; k < groups.size(); ++k) {
    EXPECT_LT(groups[k - 1].key.ToDouble(), groups[k].key.ToDouble());
  }
}

TEST(GroupByTest, Int64KeysSortByValue) {
  // 9 < 10 by value, although "10" < "9" as text.
  std::vector<Row> rows = {Row{Value(int64_t{10}), Value(1.0)},
                           Row{Value(int64_t{9}), Value(3.0)},
                           Row{Value(int64_t{10}), Value(4.0)}};
  Relation r = Relation::MakeBase(
      "R", Schema({{"grp", ValueType::kInt64}, {"v", ValueType::kFloat64}}),
      std::move(rows));
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(id, r, Col("v"), "grp"));
  ASSERT_EQ(2u, groups.size());
  EXPECT_TRUE(groups[0].key == Value(int64_t{9}));
  EXPECT_TRUE(groups[1].key == Value(int64_t{10}));
  EXPECT_EQ(3.0, groups[0].estimate);
  EXPECT_EQ(5.0, groups[1].estimate);
}

TEST(GroupByTest, StringKeysSortAsText) {
  // "10" < "5a" < "9" as text, whatever numbers they spell.
  std::vector<Row> rows = {Row{Value(std::string("9")), Value(1.0)},
                           Row{Value(std::string("5a")), Value(2.0)},
                           Row{Value(std::string("10")), Value(3.0)},
                           Row{Value(std::string("9")), Value(4.0)}};
  Relation r = Relation::MakeBase(
      "R", Schema({{"grp", ValueType::kString}, {"v", ValueType::kFloat64}}),
      std::move(rows));
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(id, r, Col("v"), "grp"));
  ASSERT_EQ(3u, groups.size());
  EXPECT_TRUE(groups[0].key == Value(std::string("10")));
  EXPECT_TRUE(groups[1].key == Value(std::string("5a")));
  EXPECT_TRUE(groups[2].key == Value(std::string("9")));
  EXPECT_EQ(3.0, groups[0].estimate);
  EXPECT_EQ(2.0, groups[1].estimate);
  EXPECT_EQ(5.0, groups[2].estimate);
}

/// Row i of a grouped stream over lineage {A, B}: 11 keys, ids that repeat
/// within and across keys, and f values whose sums depend on their order.
int64_t KeyOf(int64_t i) { return (i * 7) % 11 - 3; }
double ValueOf(int64_t i) {
  return 1.0 / static_cast<double>(1 + i % 13) + static_cast<double>(i) * 1e-3;
}
uint64_t IdA(int64_t i) { return static_cast<uint64_t>(i % 17); }
uint64_t IdB(int64_t i) { return static_cast<uint64_t>((i * 5) % 29); }

/// Rows [begin, end) of that stream as a batch {k int64, v float64}.
ColumnBatch MakeKeyedBatch(const LayoutPtr& layout, int64_t begin,
                           int64_t end) {
  ColumnBatch batch(layout);
  for (int64_t i = begin; i < end; ++i) {
    EXPECT_TRUE(batch.mutable_column(0)->AppendValue(Value(KeyOf(i))).ok());
    EXPECT_TRUE(
        batch.mutable_column(1)->AppendValue(Value(ValueOf(i))).ok());
    batch.mutable_lineage()->push_back(IdA(i));
    batch.mutable_lineage()->push_back(IdB(i));
  }
  batch.SetNumRows(end - begin);
  return batch;
}

TEST(GroupByTest, BuilderMatchesPerGroupViewOracle) {
  // A builder fed in three splits, merged and sent through the GRUP wire
  // form must give every group exactly what the SBox gives a view holding
  // only that group's rows, in stream order.
  auto layout = std::make_shared<BatchLayout>();
  layout->schema =
      Schema({{"k", ValueType::kInt64}, {"v", ValueType::kFloat64}});
  layout->lineage_schema = {"A", "B"};
  const LineageSchema schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  const GusParams gus =
      MultiDimBernoulliGus(schema, {{"A", 0.5}, {"B", 0.7}}).ValueOrDie();
  const int64_t n = 900;

  std::vector<GroupedSumBuilder> parts;
  for (const auto& [begin, end] : {std::pair<int64_t, int64_t>{0, 250},
                                   {250, 251},
                                   {251, n}}) {
    ASSERT_OK_AND_ASSIGN(
        GroupedSumBuilder part,
        GroupedSumBuilder::Make(*layout, Col("v"), "k", schema));
    ASSERT_OK(part.Consume(MakeKeyedBatch(layout, begin, end)));
    parts.push_back(std::move(part));
  }
  GroupedSumBuilder merged = std::move(parts[0]);
  ASSERT_OK(merged.Merge(std::move(parts[1])));
  ASSERT_OK(merged.Merge(std::move(parts[2])));
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder wire,
      GroupedSumBuilder::DeserializeState(merged.SerializeState()));
  ASSERT_OK_AND_ASSIGN(auto direct,
                       merged.Finish(gus, 0.9, BoundKind::kChebyshev));
  ASSERT_OK_AND_ASSIGN(auto via_wire,
                       wire.Finish(gus, 0.9, BoundKind::kChebyshev));

  std::map<int64_t, SampleView> views;  // by key, the canonical order
  for (int64_t i = 0; i < n; ++i) {
    SampleView& view = views[KeyOf(i)];
    if (view.lineage.empty()) {
      view.schema = schema;
      view.lineage.assign(2, {});
    }
    view.lineage[0].push_back(IdA(i));
    view.lineage[1].push_back(IdB(i));
    view.f.push_back(ValueOf(i));
  }
  SboxOptions options;
  options.confidence_level = 0.9;
  options.bound_kind = BoundKind::kChebyshev;
  ASSERT_EQ(views.size(), direct.size());
  ASSERT_EQ(views.size(), via_wire.size());
  size_t g = 0;
  for (const auto& [key, view] : views) {
    SCOPED_TRACE(key);
    ASSERT_OK_AND_ASSIGN(SboxReport want, SboxEstimate(gus, view, options));
    for (const GroupEstimate* got : {&direct[g], &via_wire[g]}) {
      EXPECT_TRUE(got->key == Value(key));
      EXPECT_EQ(want.estimate, got->estimate);
      EXPECT_EQ(want.variance, got->variance);
      EXPECT_EQ(want.stddev, got->stddev);
      EXPECT_EQ(want.interval.lo, got->interval.lo);
      EXPECT_EQ(want.interval.hi, got->interval.hi);
      EXPECT_EQ(want.interval.level, got->interval.level);
      EXPECT_EQ(want.interval.kind, got->interval.kind);
      EXPECT_EQ(view.num_rows(), got->sample_rows);
    }
    ++g;
  }
}

TEST(GroupByTest, UnknownKeyColumnFails) {
  Relation r = MakeGroupedTable();
  GusParams id = GusParams::Identity(LineageSchema::Make({"R"}).ValueOrDie());
  EXPECT_STATUS_CODE(
      kKeyError, GroupedSumEstimate(id, r, Col("v"), "nope").status());
}

TEST(GroupByTest, PerGroupEstimatesUnbiasedUnderBernoulli) {
  Relation r = MakeGroupedTable();
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.5), "R"));
  Rng rng(7);
  std::map<int64_t, MeanVar> per_group;
  for (int t = 0; t < 20000; ++t) {
    auto sample = BernoulliSample(r, 0.5, &rng).ValueOrDie();
    auto groups_r = GroupedSumEstimate(g, sample, Col("v"), "grp");
    ASSERT_TRUE(groups_r.ok());
    std::map<int64_t, double> seen;
    for (const auto& ge : groups_r.ValueOrDie()) {
      seen[ge.key.AsInt64()] = ge.estimate;
    }
    // Groups absent from the sample contribute an (implicit) estimate 0.
    for (int64_t k = 0; k < 4; ++k) {
      per_group[k].Add(seen.count(k) ? seen[k] : 0.0);
    }
  }
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(10.0 * (k + 1), per_group[k].mean(), 0.25) << "group " << k;
  }
}

TEST(GroupByTest, PerGroupCoverage) {
  Relation r = MakeGroupedTable();
  ASSERT_OK_AND_ASSIGN(
      GusParams g, TranslateBaseSampling(SamplingSpec::Bernoulli(0.6), "R"));
  Rng rng(8);
  CoverageCounter coverage;
  for (int t = 0; t < 5000; ++t) {
    auto sample = BernoulliSample(r, 0.6, &rng).ValueOrDie();
    auto groups_r = GroupedSumEstimate(g, sample, Col("v"), "grp");
    ASSERT_TRUE(groups_r.ok());
    for (const auto& ge : groups_r.ValueOrDie()) {
      const double truth = 10.0 * (ge.key.AsInt64() + 1);
      coverage.Add(ge.interval.Contains(truth));
    }
  }
  // Small per-group samples: generous band around 95%.
  EXPECT_GT(coverage.fraction(), 0.85);
}

TEST(GroupByTest, WorksOnJoinResults) {
  // Group by the dim key of a sampled fact-dim join.
  auto data = gus::testing::MakeTinyJoin(3, 4);
  ASSERT_OK_AND_ASSIGN(
      GusParams gf, TranslateBaseSampling(SamplingSpec::Bernoulli(0.8), "F"));
  GusParams gd = GusParams::Identity(LineageSchema::Make({"D"}).ValueOrDie());
  ASSERT_OK_AND_ASSIGN(GusParams g, GusJoin(gf, gd));
  Rng rng(9);
  auto fact_sample = BernoulliSample(data.fact, 0.8, &rng).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(Relation joined,
                       HashJoin(fact_sample, data.dim, "fk", "pk"));
  ASSERT_OK_AND_ASSIGN(auto groups,
                       GroupedSumEstimate(g, joined, Col("v"), "pk"));
  EXPECT_LE(groups.size(), 3u);
  for (const auto& ge : groups) {
    EXPECT_GT(ge.estimate, 0.0);
    EXPECT_GE(ge.interval.hi, ge.estimate);
  }
}

}  // namespace
}  // namespace gus
