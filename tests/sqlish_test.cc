// Tests for the SQL-ish front end: tokenizer, parser, planner, and the
// one-call RunApproxQuery — including the paper's Query 1 as written.

#include <gtest/gtest.h>

#include <cmath>

#include "data/tpch_gen.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "sqlish/planner.h"
#include "sqlish/tokenizer.h"
#include "test_util.h"
#include "util/fault_inject.h"

namespace gus {
namespace sqlish {
namespace {

// ------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, BasicTokens) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("SELECT a1, 2.5 FROM t;"));
  ASSERT_EQ(8u, tokens.size());  // SELECT a1 , 2.5 FROM t ; END
  EXPECT_TRUE(IdentEquals(tokens[0], "SELECT"));
  EXPECT_EQ("a1", tokens[1].text);
  EXPECT_EQ(",", tokens[2].text);
  EXPECT_DOUBLE_EQ(2.5, tokens[3].number);
  EXPECT_EQ(TokenType::kEnd, tokens.back().type);
}

TEST(TokenizerTest, TwoCharOperators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("a <= b <> c >= d != e"));
  EXPECT_EQ("<=", tokens[1].text);
  EXPECT_EQ("<>", tokens[3].text);
  EXPECT_EQ(">=", tokens[5].text);
  EXPECT_EQ("<>", tokens[7].text);  // != normalizes to <>
}

TEST(TokenizerTest, StringsAndComments) {
  ASSERT_OK_AND_ASSIGN(auto tokens,
                       Tokenize("'hello world' -- trailing comment\n x"));
  EXPECT_EQ(TokenType::kString, tokens[0].type);
  EXPECT_EQ("hello world", tokens[0].text);
  EXPECT_EQ("x", tokens[1].text);
}

TEST(TokenizerTest, UnterminatedStringFails) {
  EXPECT_STATUS_CODE(kInvalidArgument, Tokenize("'oops").status());
}

TEST(TokenizerTest, StrayByteFails) {
  EXPECT_STATUS_CODE(kInvalidArgument, Tokenize("a @ b").status());
}

TEST(TokenizerTest, KeywordMatchingIsCaseInsensitive) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("select SeLeCt SELECT"));
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(IdentEquals(tokens[i], "SELECT"));
}

// ---------------------------------------------------------------- Parser

TEST(ParserTest, PaperQuery1ParsesVerbatim) {
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (10 PERCENT),
         o TABLESAMPLE (1000 ROWS)
    WHERE l_orderkey = o_orderkey AND
          l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ParsedQuery q, ParseQuery(kSql));
  ASSERT_EQ(1u, q.items.size());
  EXPECT_EQ(AggKind::kSum, q.items[0].kind);
  ASSERT_EQ(2u, q.tables.size());
  EXPECT_EQ("l", q.tables[0].name);
  ASSERT_TRUE(q.tables[0].percent.has_value());
  EXPECT_DOUBLE_EQ(10.0, *q.tables[0].percent);
  ASSERT_TRUE(q.tables[1].rows.has_value());
  EXPECT_EQ(1000, *q.tables[1].rows);
  ASSERT_NE(nullptr, q.where);
}

TEST(ParserTest, ApproxViewQuantiles) {
  const char* kSql =
      "SELECT QUANTILE(SUM(v), 0.05), QUANTILE(SUM(v), 0.95) FROM t";
  ASSERT_OK_AND_ASSIGN(ParsedQuery q, ParseQuery(kSql));
  ASSERT_EQ(2u, q.items.size());
  EXPECT_EQ(AggKind::kQuantile, q.items[0].kind);
  EXPECT_DOUBLE_EQ(0.05, q.items[0].quantile);
  EXPECT_DOUBLE_EQ(0.95, q.items[1].quantile);
}

TEST(ParserTest, CountAndAvg) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseQuery("SELECT COUNT(*), AVG(x) FROM t"));
  EXPECT_EQ(AggKind::kCount, q.items[0].kind);
  EXPECT_EQ(AggKind::kAvg, q.items[1].kind);
}

TEST(ParserTest, ExpressionPrecedence) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseQuery("SELECT SUM(a + b * c - d) FROM t"));
  EXPECT_EQ("((a + (b * c)) - d)", q.items[0].expr->ToString());
}

TEST(ParserTest, BooleanPrecedence) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery q,
      ParseQuery("SELECT SUM(x) FROM t WHERE a = 1 OR b = 2 AND c = 3"));
  // AND binds tighter than OR.
  EXPECT_EQ("((a = 1) OR ((b = 2) AND (c = 3)))", q.where->ToString());
}

TEST(ParserTest, ParenthesesAndUnaryMinus) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery q,
                       ParseQuery("SELECT SUM(-(a + b) * 2) FROM t"));
  EXPECT_EQ("(-((a + b)) * 2)", q.items[0].expr->ToString());
}

TEST(ParserTest, SyntaxErrorsAreInvalidArgument) {
  EXPECT_STATUS_CODE(kInvalidArgument, ParseQuery("SELECT FROM t").status());
  EXPECT_STATUS_CODE(kInvalidArgument, ParseQuery("SUM(x) FROM t").status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ParseQuery("SELECT SUM(x) FROM").status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ParseQuery("SELECT SUM(x) FROM t WHERE").status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ParseQuery("SELECT SUM(x) FROM t TABLESAMPLE (10 BANANAS)").status());
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ParseQuery("SELECT QUANTILE(SUM(x), 1.5) FROM t").status());
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ParseQuery("SELECT SUM(x) FROM t extra junk").status());
}

// --------------------------------------------------------------- Planner

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    TpchConfig config;
    config.num_orders = 300;
    config.num_customers = 40;
    config.num_parts = 30;
    data_ = GenerateTpch(config);
    catalog_ = data_.MakeCatalog();
  }
  TpchData data_;
  Catalog catalog_;
};

TEST_F(PlannerTest, Query1PlanMatchesHandBuiltWorkload) {
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (10 PERCENT), o TABLESAMPLE (100 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseQuery(kSql));
  ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
  // The planned tree transforms to the same GUS as the hand-built one.
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(planned.plan));
  EXPECT_NEAR(0.1 * 100.0 / 300.0, soa.top.a(), 1e-12);
  EXPECT_EQ(2, soa.top.schema().arity());
}

TEST_F(PlannerTest, UnknownTableFails) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseQuery("SELECT SUM(x) FROM nope"));
  EXPECT_STATUS_CODE(kKeyError, PlanQuery(parsed, catalog_).status());
}

TEST_F(PlannerTest, RowsExceedingCardinalityFails) {
  ASSERT_OK_AND_ASSIGN(
      ParsedQuery parsed,
      ParseQuery("SELECT SUM(o_totalprice) FROM o TABLESAMPLE (9999 ROWS)"));
  EXPECT_STATUS_CODE(kInvalidArgument, PlanQuery(parsed, catalog_).status());
}

TEST_F(PlannerTest, CrossJoinWithoutPredicateUsesProduct) {
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed,
                       ParseQuery("SELECT COUNT(*) FROM c, p"));
  ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
  EXPECT_EQ(PlanOp::kProduct, planned.plan->op());
}

TEST_F(PlannerTest, ThreeWayJoinPlans) {
  const char* kSql = R"(
    SELECT SUM(l_extendedprice)
    FROM l TABLESAMPLE (50 PERCENT), o, c
    WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
  )";
  ASSERT_OK_AND_ASSIGN(ParsedQuery parsed, ParseQuery(kSql));
  ASSERT_OK_AND_ASSIGN(PlannedQuery planned, PlanQuery(parsed, catalog_));
  ASSERT_OK_AND_ASSIGN(LineageSchema schema,
                       planned.plan->ComputeLineageSchema());
  EXPECT_EQ(3, schema.arity());
}

// ----------------------------------------------------- RunApproxQuery

TEST_F(PlannerTest, RunApproxQueryEndToEnd) {
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax)),
           COUNT(*),
           AVG(l_discount),
           QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.05),
           QUANTILE(SUM(l_discount*(1.0-l_tax)), 0.95)
    FROM l TABLESAMPLE (40 PERCENT), o TABLESAMPLE (150 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ApproxResult result,
                       RunApproxQuery(kSql, catalog_, /*seed=*/99));
  ASSERT_EQ(5u, result.values.size());
  EXPECT_GT(result.sample_rows, 0);
  // SUM interval brackets its value; quantiles bracket the SUM estimate.
  EXPECT_LE(result.values[0].lo, result.values[0].value);
  EXPECT_GE(result.values[0].hi, result.values[0].value);
  EXPECT_LT(result.values[3].value, result.values[0].value);
  EXPECT_GT(result.values[4].value, result.values[0].value);
  // COUNT is positive, AVG is a small fraction (discounts are <= 0.1).
  EXPECT_GT(result.values[1].value, 0.0);
  EXPECT_GT(result.values[2].value, 0.0);
  EXPECT_LT(result.values[2].value, 0.2);
  // ToString renders every label.
  const std::string s = result.ToString();
  EXPECT_NE(std::string::npos, s.find("SUM("));
  EXPECT_NE(std::string::npos, s.find("COUNT(*)"));
  EXPECT_NE(std::string::npos, s.find("AVG("));
}

TEST_F(PlannerTest, RunApproxQuerySumIsConsistent) {
  // The SQL path and the hand-built workload agree on the estimate given
  // the same seed.
  const char* kSql = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (30 PERCENT), o TABLESAMPLE (100 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";
  ASSERT_OK_AND_ASSIGN(ApproxResult a, RunApproxQuery(kSql, catalog_, 7));
  ASSERT_OK_AND_ASSIGN(ApproxResult b, RunApproxQuery(kSql, catalog_, 7));
  EXPECT_DOUBLE_EQ(a.values[0].value, b.values[0].value);  // deterministic
}

TEST_F(PlannerTest, UnsampledQueryIsExact) {
  ASSERT_OK_AND_ASSIGN(
      ApproxResult result,
      RunApproxQuery("SELECT COUNT(*) FROM o", catalog_, 1));
  EXPECT_DOUBLE_EQ(300.0, result.values[0].value);
  EXPECT_NEAR(0.0, result.values[0].stddev, 1e-9);
}

TEST_F(PlannerTest, ShardedQueryRetriesAFailedShardToIdenticalBits) {
  // SQL shards run under the shard supervisor: shard 1's first attempt
  // fails retryably, is re-dispatched, and re-executes its unit range
  // from the same seed — so the answer is bit-identical to a fault-free
  // run and the counters show exactly one extra attempt.
  for (const char* sql :
       {"SELECT SUM(l_discount * o_totalprice), COUNT(*) "
        "FROM l TABLESAMPLE (40 PERCENT), o "
        "WHERE l_orderkey = o_orderkey",
        "SELECT SUM(l_quantity) "
        "FROM l TABLESAMPLE (50 PERCENT), o "
        "WHERE l_orderkey = o_orderkey GROUP BY o_custkey"}) {
    SCOPED_TRACE(sql);
    ExecOptions exec;
    exec.engine = ExecEngine::kSharded;
    exec.num_shards = 3;
    exec.morsel_rows = 64;
    ASSERT_OK_AND_ASSIGN(ApproxResult want,
                         RunApproxQuery(sql, catalog_, 41, {}, exec));

    ExecStats stats;
    exec.stats = &stats;
    Result<ApproxResult> got = Status::Internal("not run");
    {
      ScopedFaultPlan faults("worker.execute@1=fail");
      got = RunApproxQuery(sql, catalog_, 41, {}, exec);
    }
    ASSERT_OK(got.status());
    EXPECT_EQ(exec.num_shards + 1, stats.shard_attempts);
    EXPECT_EQ(1, stats.shard_retries);
    EXPECT_EQ(0, stats.shards_lost);
    const ApproxResult& retried = got.ValueOrDie();
    ASSERT_EQ(want.values.size(), retried.values.size());
    EXPECT_EQ(want.sample_rows, retried.sample_rows);
    for (size_t i = 0; i < want.values.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(want.values[i].label, retried.values[i].label);
      EXPECT_EQ(want.values[i].group, retried.values[i].group);
      EXPECT_EQ(want.values[i].value, retried.values[i].value);
      EXPECT_EQ(want.values[i].stddev, retried.values[i].stddev);
      EXPECT_EQ(want.values[i].lo, retried.values[i].lo);
      EXPECT_EQ(want.values[i].hi, retried.values[i].hi);
    }
  }
}

}  // namespace
}  // namespace sqlish
}  // namespace gus
