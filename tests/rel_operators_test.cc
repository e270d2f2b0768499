// Unit tests for the relational operators, with emphasis on lineage
// propagation (the property the GUS analysis depends on).

#include <gtest/gtest.h>

#include <set>

#include "rel/operators.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::MakeSingleTable;
using ::gus::testing::MakeTinyJoin;
using ::gus::testing::TinyJoinData;

TEST(SelectTest, FiltersRowsKeepsLineage) {
  Relation r = MakeSingleTable(5);
  ASSERT_OK_AND_ASSIGN(Relation out, Select(r, Gt(Col("v"), Lit(3.0))));
  EXPECT_EQ(2, out.num_rows());
  EXPECT_DOUBLE_EQ(4.0, out.row(0)[0].AsFloat64());
  EXPECT_EQ(3u, out.lineage(0)[0]);  // Lineage ids survive the filter.
  EXPECT_EQ(4u, out.lineage(1)[0]);
}

TEST(SelectTest, EmptyResult) {
  Relation r = MakeSingleTable(5);
  ASSERT_OK_AND_ASSIGN(Relation out, Select(r, Gt(Col("v"), Lit(100.0))));
  EXPECT_EQ(0, out.num_rows());
  EXPECT_EQ(r.lineage_schema(), out.lineage_schema());
}

TEST(ProjectTest, ComputesExpressionsKeepsLineage) {
  Relation r = MakeSingleTable(3);
  ASSERT_OK_AND_ASSIGN(
      Relation out,
      Project(r, {{"double_v", Mul(Col("v"), Lit(2.0))},
                  {"v", Col("v")}}));
  EXPECT_EQ(2, out.schema().num_columns());
  EXPECT_DOUBLE_EQ(4.0, out.row(1)[0].AsFloat64());
  EXPECT_DOUBLE_EQ(2.0, out.row(1)[1].AsFloat64());
  EXPECT_EQ(1u, out.lineage(1)[0]);
}

TEST(ProjectTest, EmptyExprListFails) {
  Relation r = MakeSingleTable(1);
  EXPECT_STATUS_CODE(kInvalidArgument, Project(r, {}).status());
}

TEST(HashJoinTest, MatchesTuplesAndConcatenatesLineage) {
  TinyJoinData data = MakeTinyJoin(/*num_dim=*/3, /*fanout=*/2);
  ASSERT_OK_AND_ASSIGN(Relation out,
                       HashJoin(data.fact, data.dim, "fk", "pk"));
  EXPECT_EQ(6, out.num_rows());  // Every fact row matches exactly one dim.
  ASSERT_EQ(2u, out.lineage_schema().size());
  EXPECT_EQ("F", out.lineage_schema()[0]);
  EXPECT_EQ("D", out.lineage_schema()[1]);
  // Each output row's fact id joins the right dim id.
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    const int64_t fk = out.row(i)[0].AsInt64();
    const int64_t pk = out.row(i)[2].AsInt64();
    EXPECT_EQ(fk, pk);
    EXPECT_EQ(static_cast<uint64_t>(pk), out.lineage(i)[1]);
  }
}

TEST(HashJoinTest, AgreesWithThetaJoin) {
  TinyJoinData data = MakeTinyJoin(4, 3);
  ASSERT_OK_AND_ASSIGN(Relation hash,
                       HashJoin(data.fact, data.dim, "fk", "pk"));
  ASSERT_OK_AND_ASSIGN(Relation theta,
                       ThetaJoin(data.fact, data.dim, Eq(Col("fk"), Col("pk"))));
  ASSERT_EQ(hash.num_rows(), theta.num_rows());
  // Compare as sets of (lineage) pairs.
  std::set<std::pair<uint64_t, uint64_t>> hs, ts;
  for (int64_t i = 0; i < hash.num_rows(); ++i) {
    hs.insert({hash.lineage(i)[0], hash.lineage(i)[1]});
    ts.insert({theta.lineage(i)[0], theta.lineage(i)[1]});
  }
  EXPECT_EQ(hs, ts);
}

TEST(HashJoinTest, NoMatches) {
  Relation a = Relation::MakeBase(
      "A", Schema({{"k", ValueType::kInt64}}), {Row{Value(int64_t{1})}});
  Relation b = Relation::MakeBase(
      "B", Schema({{"j", ValueType::kInt64}}), {Row{Value(int64_t{2})}});
  ASSERT_OK_AND_ASSIGN(Relation out, HashJoin(a, b, "k", "j"));
  EXPECT_EQ(0, out.num_rows());
}

TEST(HashJoinTest, RejectsSelfJoin) {
  Relation r = MakeSingleTable(3);
  EXPECT_STATUS_CODE(kInvalidArgument, HashJoin(r, r, "v", "v").status());
}

TEST(HashJoinTest, RejectsDuplicateColumnNames) {
  Relation a = MakeSingleTable(2, "A");
  Relation b = MakeSingleTable(2, "B");  // Also has column "v".
  EXPECT_STATUS_CODE(kInvalidArgument, HashJoin(a, b, "v", "v").status());
}

TEST(HashJoinTest, HashCollisionDoesNotFakeMatch) {
  // Different int keys with (astronomically unlikely but conceptually
  // possible) colliding hashes must still compare unequal — exercise the
  // equality re-check path with many keys.
  std::vector<Row> left_rows, right_rows;
  for (int64_t i = 0; i < 500; ++i) {
    left_rows.push_back(Row{Value(i)});
    right_rows.push_back(Row{Value(i + 500)});
  }
  Relation l = Relation::MakeBase("L", Schema({{"k", ValueType::kInt64}}),
                                  std::move(left_rows));
  Relation r = Relation::MakeBase("Rt", Schema({{"j", ValueType::kInt64}}),
                                  std::move(right_rows));
  ASSERT_OK_AND_ASSIGN(Relation out, HashJoin(l, r, "k", "j"));
  EXPECT_EQ(0, out.num_rows());
}

TEST(ThetaJoinTest, InequalityCondition) {
  // Non-equi join: fact.v < dim.w (every fact value is far below every
  // dim value in MakeTinyJoin, so the result is the full product).
  TinyJoinData data = MakeTinyJoin(3, 2);
  ASSERT_OK_AND_ASSIGN(Relation out,
                       ThetaJoin(data.fact, data.dim, Lt(Col("v"), Col("w"))));
  EXPECT_EQ(data.fact.num_rows() * data.dim.num_rows(), out.num_rows());
  // And a selective inequality on keys.
  ASSERT_OK_AND_ASSIGN(
      Relation some,
      ThetaJoin(data.fact, data.dim, Lt(Col("fk"), Col("pk"))));
  EXPECT_LT(some.num_rows(), out.num_rows());
  EXPECT_GT(some.num_rows(), 0);
}

TEST(CrossProductTest, AllPairsWithConcatenatedLineage) {
  Relation a = MakeSingleTable(2, "A");
  Relation b = MakeSingleTable(3, "B");
  EXPECT_STATUS_CODE(kInvalidArgument, CrossProduct(a, b).status());
  // Same column names clash; rename via Project.
  ASSERT_OK_AND_ASSIGN(Relation b2, Project(b, {{"w", Col("v")}}));
  ASSERT_OK_AND_ASSIGN(Relation out, CrossProduct(a, b2));
  EXPECT_EQ(6, out.num_rows());
  std::set<std::pair<uint64_t, uint64_t>> pairs;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    pairs.insert({out.lineage(i)[0], out.lineage(i)[1]});
  }
  EXPECT_EQ(6u, pairs.size());
}

TEST(UnionTest, DeduplicatesOnLineage) {
  Relation r = MakeSingleTable(4);
  ASSERT_OK_AND_ASSIGN(Relation a, Select(r, Gt(Col("v"), Lit(1.0))));  // 2,3,4
  ASSERT_OK_AND_ASSIGN(Relation b, Select(r, Lt(Col("v"), Lit(3.0))));  // 1,2
  ASSERT_OK_AND_ASSIGN(Relation u, UnionDistinctLineage(a, b));
  EXPECT_EQ(4, u.num_rows());  // {2,3,4} ∪ {1,2} = all 4, tuple 2 kept once.
}

TEST(UnionTest, KeepsDistinctLineagesWhoseHashesCollide) {
  const auto [first, second] = ::gus::testing::CollidingLineageRows();
  ASSERT_NE(first, second);
  ASSERT_EQ(HashLineageRow(first.data(), first.size()),
            HashLineageRow(second.data(), second.size()));
  const Schema schema({{"v", ValueType::kFloat64}});
  Relation a(schema, {"X", "Y"});
  a.AppendRow(Row{Value(1.0)}, first);
  Relation b(schema, {"X", "Y"});
  b.AppendRow(Row{Value(2.0)}, second);
  b.AppendRow(Row{Value(3.0)}, first);  // a's tuple again: kept once
  ASSERT_OK_AND_ASSIGN(Relation u, UnionDistinctLineage(a, b));
  ASSERT_EQ(2, u.num_rows());
  EXPECT_EQ(first, u.lineage(0));
  EXPECT_EQ(second, u.lineage(1));
  EXPECT_TRUE(u.row(1)[0] == Value(2.0));
}

TEST(UnionTest, RequiresMatchingSchemas) {
  Relation a = MakeSingleTable(2, "A");
  Relation b = MakeSingleTable(2, "B");
  // Same column schema but different lineage schema -> error.
  EXPECT_STATUS_CODE(kInvalidArgument, UnionDistinctLineage(a, b).status());
}

TEST(AggregateTest, Sum) {
  Relation r = MakeSingleTable(4);  // 1+2+3+4
  ASSERT_OK_AND_ASSIGN(double s, AggregateSum(r, Col("v")));
  EXPECT_DOUBLE_EQ(10.0, s);
}

TEST(AggregateTest, SumOfExpression) {
  Relation r = MakeSingleTable(3);
  ASSERT_OK_AND_ASSIGN(double s, AggregateSum(r, Mul(Col("v"), Col("v"))));
  EXPECT_DOUBLE_EQ(14.0, s);
}

TEST(AggregateTest, CountAndAvg) {
  Relation r = MakeSingleTable(4);
  ASSERT_OK_AND_ASSIGN(double c, AggregateCount(r));
  EXPECT_DOUBLE_EQ(4.0, c);
  ASSERT_OK_AND_ASSIGN(double avg, AggregateAvg(r, Col("v")));
  EXPECT_DOUBLE_EQ(2.5, avg);
}

TEST(AggregateTest, AvgEmptyFails) {
  Relation r = MakeSingleTable(0);
  EXPECT_STATUS_CODE(kInvalidArgument, AggregateAvg(r, Col("v")).status());
}

TEST(AggregateTest, SumEmptyIsZero) {
  Relation r = MakeSingleTable(0);
  ASSERT_OK_AND_ASSIGN(double s, AggregateSum(r, Col("v")));
  EXPECT_DOUBLE_EQ(0.0, s);
}

}  // namespace
}  // namespace gus
