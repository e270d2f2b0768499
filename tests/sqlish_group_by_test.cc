// GROUP BY support in the SQL front end.

#include <gtest/gtest.h>

#include <map>

#include "data/tpch_gen.h"
#include "sqlish/planner.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace sqlish {
namespace {

class SqlGroupByTest : public ::testing::Test {
 protected:
  SqlGroupByTest() {
    TpchConfig config;
    config.num_orders = 400;
    config.num_customers = 5;  // few groups, many rows each
    config.num_parts = 20;
    data_ = GenerateTpch(config);
    catalog_ = data_.MakeCatalog();
  }
  TpchData data_;
  Catalog catalog_;
};

TEST_F(SqlGroupByTest, ParsesGroupBy) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT SUM(o_totalprice) FROM o GROUP BY o_custkey"));
  EXPECT_EQ("o_custkey", q.group_by);
}

TEST_F(SqlGroupByTest, RejectsNonSumAggregates) {
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ParseQuery("SELECT COUNT(*) FROM o GROUP BY o_custkey").status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ParseQuery("SELECT AVG(x) FROM o GROUP BY o_custkey").status());
}

TEST_F(SqlGroupByTest, RejectsUnknownGroupColumn) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT SUM(o_totalprice) FROM o GROUP BY nope"));
  EXPECT_STATUS_CODE(kKeyError, PlanQuery(q, catalog_).status());
}

TEST_F(SqlGroupByTest, UnsampledGroupsAreExact) {
  ASSERT_OK_AND_ASSIGN(
      ApproxResult result,
      RunApproxQuery("SELECT SUM(o_totalprice) FROM o GROUP BY o_custkey",
                     catalog_, 1));
  ASSERT_EQ(5u, result.values.size());
  // Exact per-group sums for comparison.
  std::map<int64_t, double> exact;
  ASSERT_OK_AND_ASSIGN(int ck, data_.orders.schema().IndexOf("o_custkey"));
  ASSERT_OK_AND_ASSIGN(int tp, data_.orders.schema().IndexOf("o_totalprice"));
  for (int64_t i = 0; i < data_.orders.num_rows(); ++i) {
    exact[data_.orders.row(i)[ck].AsInt64()] +=
        data_.orders.row(i)[tp].AsFloat64();
  }
  for (const ApproxValue& v : result.values) {
    EXPECT_NEAR(0.0, v.stddev, 1e-9);
    bool matched = false;
    for (const auto& [key, sum] : exact) {
      if (v.group == "o_custkey=" + std::to_string(key)) {
        EXPECT_NEAR(sum, v.value, 1e-6 * sum);
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << v.group;
  }
}

TEST_F(SqlGroupByTest, SampledGroupsUnbiased) {
  const char* kSql =
      "SELECT SUM(o_totalprice) FROM o TABLESAMPLE (40 PERCENT) "
      "GROUP BY o_custkey";
  std::map<int64_t, double> exact;
  {
    auto ck = data_.orders.schema().IndexOf("o_custkey").ValueOrDie();
    auto tp = data_.orders.schema().IndexOf("o_totalprice").ValueOrDie();
    for (int64_t i = 0; i < data_.orders.num_rows(); ++i) {
      exact[data_.orders.row(i)[ck].AsInt64()] +=
          data_.orders.row(i)[tp].AsFloat64();
    }
  }
  std::map<std::string, MeanVar> per_group;
  for (int t = 0; t < 800; ++t) {
    ASSERT_OK_AND_ASSIGN(ApproxResult result,
                         RunApproxQuery(kSql, catalog_, 100 + t));
    for (const ApproxValue& v : result.values) {
      per_group[v.group].Add(v.value);
    }
  }
  for (const auto& [key, sum] : exact) {
    const std::string group = "o_custkey=" + std::to_string(key);
    ASSERT_TRUE(per_group.count(group)) << group;
    const MeanVar& mv = per_group.at(group);
    // Bernoulli(0.4) on ~80 rows per group: tight enough at 800 trials.
    EXPECT_NEAR(sum, mv.mean(), 4.0 * mv.stddev_sample() / 28.0) << group;
  }
}

TEST_F(SqlGroupByTest, GroupedJoinQueryRuns) {
  const char* kSql = R"(
    SELECT SUM(l_extendedprice)
    FROM l TABLESAMPLE (30 PERCENT), o
    WHERE l_orderkey = o_orderkey
    GROUP BY o_custkey
  )";
  ASSERT_OK_AND_ASSIGN(ApproxResult result,
                       RunApproxQuery(kSql, catalog_, 5));
  EXPECT_LE(result.values.size(), 5u);
  EXPECT_GE(result.values.size(), 1u);
  for (const ApproxValue& v : result.values) {
    EXPECT_GT(v.value, 0.0);
    EXPECT_GE(v.hi, v.lo);
    EXPECT_NE("", v.group);
  }
  const std::string s = result.ToString();
  EXPECT_NE(std::string::npos, s.find("[o_custkey="));
}

TEST_F(SqlGroupByTest, MorselMatchesRowEngineBitForBit) {
  // kMorselParallel streams every morsel into per-item GroupedSumBuilders
  // and merges them in morsel order; kRowAtATime materializes the sample
  // and runs GroupedSumEstimate, the reference oracle. The samplers on the
  // pivot (l) are WOR, which the morsel engine draws exactly as the row
  // engine does: same seed, same draws, and every group's numbers match
  // to the last bit.
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.num_threads = 4;
  exec.morsel_rows = 64;
  for (const char* sql :
       {"SELECT SUM(l_extendedprice), SUM(l_discount * o_totalprice) "
        "FROM l TABLESAMPLE (500 ROWS), o TABLESAMPLE (150 ROWS) "
        "WHERE l_orderkey = o_orderkey GROUP BY o_custkey",
        "SELECT SUM(l_quantity) FROM l TABLESAMPLE (800 ROWS) "
        "WHERE l_discount > 0.02 GROUP BY l_linenumber"}) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(ApproxResult row,
                         RunApproxQuery(sql, catalog_, 23));
    ASSERT_OK_AND_ASSIGN(ApproxResult morsel,
                         RunApproxQuery(sql, catalog_, 23, {}, exec));
    ASSERT_GT(row.values.size(), 1u);
    ASSERT_EQ(row.values.size(), morsel.values.size());
    EXPECT_EQ(row.sample_rows, morsel.sample_rows);
    for (size_t i = 0; i < row.values.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(row.values[i].label, morsel.values[i].label);
      EXPECT_EQ(row.values[i].group, morsel.values[i].group);
      EXPECT_EQ(row.values[i].value, morsel.values[i].value);
      EXPECT_EQ(row.values[i].stddev, morsel.values[i].stddev);
      EXPECT_EQ(row.values[i].lo, morsel.values[i].lo);
      EXPECT_EQ(row.values[i].hi, morsel.values[i].hi);
    }
  }
}

}  // namespace
}  // namespace sqlish
}  // namespace gus
