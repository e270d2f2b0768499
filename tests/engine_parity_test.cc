// Row engine vs serial columnar pipeline parity: for identical (plan,
// catalog, seed, mode) the two must produce identical rows and lineage — in
// exact mode AND in sampled mode, because both draw through the shared
// index-selection core in the same order. Covers every plan shape of
// executor_test plus the integration workloads (Query 1, Example 4) and the
// sqlish surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "rel/column_batch.h"
#include "sqlish/planner.h"
#include "store/segment_cache.h"
#include "store/segment_catalog.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::ExecuteColumnar;
using ::gus::testing::MakeTinyJoin;
using ::gus::testing::TinyJoinData;

void ExpectIdentical(const Relation& row_result, const Relation& col_result) {
  ASSERT_TRUE(row_result.schema() == col_result.schema());
  ASSERT_EQ(row_result.lineage_schema(), col_result.lineage_schema());
  ASSERT_EQ(row_result.num_rows(), col_result.num_rows());
  for (int64_t i = 0; i < row_result.num_rows(); ++i) {
    const Row& a = row_result.row(i);
    const Row& b = col_result.row(i);
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].type(), b[c].type()) << "row " << i << " col " << c;
      EXPECT_TRUE(a[c] == b[c])
          << "row " << i << " col " << c << ": " << a[c].ToString() << " vs "
          << b[c].ToString();
    }
    EXPECT_EQ(row_result.lineage(i), col_result.lineage(i)) << "row " << i;
  }
}

void ExpectEnginesAgree(const PlanPtr& plan, const Catalog& catalog,
                        uint64_t seed, ExecMode mode,
                        int64_t batch_rows = kDefaultBatchRows) {
  Rng row_rng(seed);
  auto row_result = ExecutePlan(plan, catalog, &row_rng, mode);
  Rng col_rng(seed);
  auto col_result =
      ExecuteColumnar(plan, catalog, &col_rng, mode, batch_rows);
  ASSERT_EQ(row_result.ok(), col_result.ok())
      << row_result.status().ToString() << " vs "
      << col_result.status().ToString();
  if (!row_result.ok()) {
    EXPECT_EQ(row_result.status().code(), col_result.status().code());
    return;
  }
  ExpectIdentical(*row_result, *col_result);
}

void ExpectEnginesAgreeBothModes(const PlanPtr& plan, const Catalog& catalog,
                                 uint64_t seed,
                                 int64_t batch_rows = kDefaultBatchRows) {
  {
    SCOPED_TRACE("exact");
    ExpectEnginesAgree(plan, catalog, seed, ExecMode::kExact, batch_rows);
  }
  {
    SCOPED_TRACE("sampled");
    ExpectEnginesAgree(plan, catalog, seed, ExecMode::kSampled, batch_rows);
  }
}

TEST(EngineParityTest, Scan) {
  Catalog catalog = MakeTinyJoin(5, 3).MakeCatalog();
  ExpectEnginesAgreeBothModes(PlanNode::Scan("F"), catalog, 1);
}

TEST(EngineParityTest, MissingRelation) {
  Catalog catalog;
  ExpectEnginesAgreeBothModes(PlanNode::Scan("nope"), catalog, 1);
}

TEST(EngineParityTest, BernoulliSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.3), PlanNode::Scan("F")),
      catalog, 2);
}

TEST(EngineParityTest, WorSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(37, 100),
                       PlanNode::Scan("F")),
      catalog, 3);
}

TEST(EngineParityTest, WorPopulationMismatchAgrees) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(SamplingSpec::WithoutReplacement(37, 999),
                                  PlanNode::Scan("F"));
  ExpectEnginesAgree(plan, catalog, 3, ExecMode::kSampled);
}

TEST(EngineParityTest, WrDistinctSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::WithReplacementDistinct(40, 100),
                       PlanNode::Scan("F")),
      catalog, 4);
}

TEST(EngineParityTest, BlockBernoulliSample) {
  Catalog catalog = MakeTinyJoin(16, 1).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::BlockBernoulli(0.5, 4),
                       PlanNode::Scan("D")),
      catalog, 5);
}

TEST(EngineParityTest, LineageBernoulliSample) {
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 77),
                       PlanNode::Scan("F")),
      catalog, 6);
}

TEST(EngineParityTest, Select) {
  Catalog catalog = MakeTinyJoin(4, 2).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::SelectNode(Ge(Col("pk"), Lit(Value(int64_t{2}))),
                           PlanNode::Scan("D")),
      catalog, 7);
}

TEST(EngineParityTest, Join) {
  Catalog catalog = MakeTinyJoin(5, 3).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Join(PlanNode::Scan("F"), PlanNode::Scan("D"), "fk", "pk"),
      catalog, 8);
}

TEST(EngineParityTest, JoinOfSamples) {
  Catalog catalog = MakeTinyJoin(8, 6).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.6), PlanNode::Scan("F")),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(5, 8),
                       PlanNode::Scan("D")),
      "fk", "pk");
  ExpectEnginesAgreeBothModes(plan, catalog, 9);
}

TEST(EngineParityTest, SelectOverJoin) {
  Catalog catalog = MakeTinyJoin(6, 4).MakeCatalog();
  PlanPtr join =
      PlanNode::Join(PlanNode::Scan("F"), PlanNode::Scan("D"), "fk", "pk");
  ExpectEnginesAgreeBothModes(
      PlanNode::SelectNode(Gt(Mul(Col("v"), Col("w")), Lit(20.0)), join),
      catalog, 10);
}

TEST(EngineParityTest, Product) {
  Catalog catalog = MakeTinyJoin(3, 2).MakeCatalog();
  ExpectEnginesAgreeBothModes(
      PlanNode::Product(PlanNode::Scan("F"), PlanNode::Scan("D")), catalog,
      11);
}

TEST(EngineParityTest, UnionOfSamples) {
  Catalog catalog = MakeTinyJoin(12, 1).MakeCatalog();
  PlanPtr scan = PlanNode::Scan("D");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), scan));
  ExpectEnginesAgreeBothModes(plan, catalog, 12);
}

TEST(EngineParityTest, ExactUnionRightBranchErrorSurfaces) {
  // Exact mode only keeps the left union branch's rows, but the right
  // branch still runs, so its errors surface like the row engine's (which
  // executes both). Static error: unknown relation.
  Catalog catalog = MakeTinyJoin(4, 1).MakeCatalog();
  PlanPtr plan =
      PlanNode::Union(PlanNode::Scan("D"), PlanNode::Scan("nope"));
  ExpectEnginesAgree(plan, catalog, 18, ExecMode::kExact);
  // Runtime (data-dependent) error: division by zero in the right
  // branch's predicate — pk takes the value 0 in row 0.
  PlanPtr runtime_err = PlanNode::Union(
      PlanNode::Scan("D"),
      PlanNode::SelectNode(Gt(Div(Lit(1.0), Col("pk")), Lit(0.0)),
                           PlanNode::Scan("D")));
  ExpectEnginesAgree(runtime_err, catalog, 18, ExecMode::kExact);
}

TEST(EngineParityTest, ShortCircuitGuardPredicate) {
  // `fk <> 0 AND v/fk > small` over rows where fk == 0: the guard must
  // short-circuit at row level in both engines (no division-by-zero).
  Catalog catalog = MakeTinyJoin(5, 2).MakeCatalog();
  PlanPtr plan = PlanNode::SelectNode(
      And(Ne(Col("fk"), Lit(Value(int64_t{0}))),
          Gt(Div(Col("v"), Col("fk")), Lit(0.4))),
      PlanNode::Scan("F"));
  ExpectEnginesAgreeBothModes(plan, catalog, 19);
  Rng rng(19);
  ASSERT_OK_AND_ASSIGN(Relation out,
                       ExecuteColumnar(plan, catalog, &rng, ExecMode::kExact));
  EXPECT_GT(out.num_rows(), 0);  // the guarded predicate really ran
}

TEST(EngineParityTest, TwoSamplersInOneChain) {
  // Two Rng-consuming samplers stacked: the breaker discipline must
  // reproduce the row engine's draw order exactly.
  Catalog catalog = MakeTinyJoin(10, 10).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(
      SamplingSpec::Bernoulli(0.7),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")));
  ExpectEnginesAgreeBothModes(plan, catalog, 13);
}

TEST(EngineParityTest, Query1OverTpch) {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 30;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 120;
  params.orders_population = 300;
  Workload q1 = MakeQuery1(params);
  ExpectEnginesAgreeBothModes(q1.plan, catalog, 14);
}

TEST(EngineParityTest, Example4OverTpch) {
  TpchConfig config;
  config.num_orders = 200;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Example4Params params;
  params.lineitem_p = 0.5;
  params.orders_n = 100;
  params.orders_population = 200;
  params.part_p = 0.5;
  Workload e4 = MakeExample4(params);
  ExpectEnginesAgreeBothModes(e4.plan, catalog, 15);
}

TEST(EngineParityTest, StringKeyJoin) {
  // Dictionary-coded string join keys across two relations (distinct
  // dictionaries) must behave exactly like row-engine string equality.
  std::vector<Row> facts, dims;
  const char* keys[] = {"ab", "cd", "ef", "gh"};
  for (int i = 0; i < 12; ++i) {
    facts.push_back(Row{Value(keys[i % 4]), Value(1.5 * i)});
  }
  for (int i = 0; i < 3; ++i) {
    dims.push_back(Row{Value(keys[i]), Value(int64_t{100 + i})});
  }
  Catalog catalog;
  catalog.emplace("SF", Relation::MakeBase(
                            "SF",
                            Schema({{"sk", ValueType::kString},
                                    {"v", ValueType::kFloat64}}),
                            std::move(facts)));
  catalog.emplace("SD", Relation::MakeBase(
                            "SD",
                            Schema({{"dk", ValueType::kString},
                                    {"w", ValueType::kInt64}}),
                            std::move(dims)));
  ExpectEnginesAgreeBothModes(
      PlanNode::Join(PlanNode::Scan("SF"), PlanNode::Scan("SD"), "sk", "dk"),
      catalog, 16);
}

TEST(EngineParityTest, MixedNumericKeyJoin) {
  // int64 fact keys against float64 dim keys: KeyEquals-based joins match
  // them, identically in both engines.
  std::vector<Row> facts, dims;
  for (int i = 0; i < 10; ++i) {
    facts.push_back(Row{Value(int64_t{i % 4}), Value(0.5 * i)});
  }
  for (int i = 0; i < 4; ++i) {
    dims.push_back(Row{Value(static_cast<double>(i)), Value(int64_t{i})});
  }
  Catalog catalog;
  catalog.emplace("MF", Relation::MakeBase(
                            "MF",
                            Schema({{"mk", ValueType::kInt64},
                                    {"v", ValueType::kFloat64}}),
                            std::move(facts)));
  catalog.emplace("MD", Relation::MakeBase(
                            "MD",
                            Schema({{"dk", ValueType::kFloat64},
                                    {"w", ValueType::kInt64}}),
                            std::move(dims)));
  PlanPtr plan =
      PlanNode::Join(PlanNode::Scan("MF"), PlanNode::Scan("MD"), "mk", "dk");
  // The join must actually match rows (10 fact rows each hit one dim row).
  Rng rng(17);
  ASSERT_OK_AND_ASSIGN(Relation joined, ExecutePlan(plan, catalog, &rng));
  EXPECT_EQ(10, joined.num_rows());
  ExpectEnginesAgreeBothModes(plan, catalog, 17);
}

TEST(EngineParityTest, JoinWithSmallerLeftInputBuildsOnTheLeft) {
  // D (5 rows) joined on the left of F (15 rows): the build side flips to
  // the left input, and rows still come out in the row engine's order.
  Catalog catalog = MakeTinyJoin(5, 3).MakeCatalog();
  PlanPtr plan =
      PlanNode::Join(PlanNode::Scan("D"), PlanNode::Scan("F"), "pk", "fk");
  ExpectEnginesAgreeBothModes(plan, catalog, 30);
  Rng rng(30);
  ASSERT_OK_AND_ASSIGN(Relation out, ExecuteColumnar(plan, catalog, &rng));
  EXPECT_EQ(15, out.num_rows());
}

TEST(EngineParityTest, JoinAndProductWithAnEmptyInput) {
  // An empty join input is always the smaller one, hence the build side;
  // the probe side is empty only when both are.
  Catalog catalog = MakeTinyJoin(5, 3).MakeCatalog();
  const PlanPtr f = PlanNode::Scan("F");
  const PlanPtr d = PlanNode::Scan("D");
  const PlanPtr no_f = PlanNode::SelectNode(Lt(Col("v"), Lit(0.0)), f);
  const PlanPtr no_d = PlanNode::SelectNode(Lt(Col("w"), Lit(0.0)), d);
  const std::vector<std::pair<std::string, PlanPtr>> cases = {
      {"join, empty left build side", PlanNode::Join(no_f, d, "fk", "pk")},
      {"join, empty right build side", PlanNode::Join(f, no_d, "fk", "pk")},
      {"join, empty probe side", PlanNode::Join(no_f, no_d, "fk", "pk")},
      {"product, empty left side", PlanNode::Product(no_f, d)},
      {"product, empty right side", PlanNode::Product(f, no_d)},
  };
  for (const auto& [name, plan] : cases) {
    SCOPED_TRACE(name);
    ExpectEnginesAgreeBothModes(plan, catalog, 31);
    Rng rng(31);
    ASSERT_OK_AND_ASSIGN(Relation out, ExecuteColumnar(plan, catalog, &rng));
    EXPECT_EQ(0, out.num_rows());
    EXPECT_EQ(4, out.schema().num_columns());
  }
}

TEST(EngineParityTest, StringKeyJoinOverManySmallBatches) {
  // A 60-row probe side pulled in 7-row batches against a build side with
  // duplicate string keys: every batch boundary keeps probe rows ascending
  // and candidates in build input order, with the build side on either
  // input, and a streaming Bernoulli above the join draws as in the row
  // engine.
  std::vector<Row> facts, dims;
  const char* keys[] = {"ab", "cd", "ef", "gh", "zz"};
  for (int i = 0; i < 60; ++i) {
    facts.push_back(Row{Value(keys[i % 5]), Value(1.5 * i)});
  }
  const char* dim_keys[] = {"cd", "ab", "cd", "ef", "ab", "cd", "yy"};
  for (int i = 0; i < 7; ++i) {
    dims.push_back(Row{Value(dim_keys[i]), Value(int64_t{100 + i})});
  }
  Catalog catalog;
  catalog.emplace("SF", Relation::MakeBase(
                            "SF",
                            Schema({{"sk", ValueType::kString},
                                    {"v", ValueType::kFloat64}}),
                            std::move(facts)));
  catalog.emplace("SD", Relation::MakeBase(
                            "SD",
                            Schema({{"dk", ValueType::kString},
                                    {"w", ValueType::kInt64}}),
                            std::move(dims)));
  const PlanPtr build_right =
      PlanNode::Join(PlanNode::Scan("SF"), PlanNode::Scan("SD"), "sk", "dk");
  const PlanPtr build_left =
      PlanNode::Join(PlanNode::Scan("SD"), PlanNode::Scan("SF"), "dk", "sk");
  for (const PlanPtr& plan : {build_right, build_left}) {
    ExpectEnginesAgreeBothModes(plan, catalog, 32, /*batch_rows=*/7);
    Rng rng(32);
    ASSERT_OK_AND_ASSIGN(
        Relation out,
        ExecuteColumnar(plan, catalog, &rng, ExecMode::kExact, 7));
    EXPECT_EQ(72, out.num_rows());  // per 5 facts: ab 2 + cd 3 + ef 1
  }
  ExpectEnginesAgreeBothModes(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), build_right), catalog,
      33, /*batch_rows=*/7);
}

// -- Morsel engine: thread-count parity ------------------------------------
//
// The morsel-parallel engine draws a *different* (equally valid) sample
// than the serial engines, but its own results must be bit-identical across
// worker counts: the morsel split, per-morsel Rng streams, and merge order
// are all independent of num_threads.

ExecOptions MorselWithThreads(int num_threads) {
  ExecOptions options;
  options.engine = ExecEngine::kMorselParallel;
  options.num_threads = num_threads;
  options.morsel_rows = 32;
  return options;
}

void ExpectMorselThreadParity(const PlanPtr& plan, const Catalog& catalog,
                              uint64_t seed, ExecMode mode) {
  Rng rng1(seed);
  auto one = ExecutePlan(plan, catalog, &rng1, mode, MorselWithThreads(1));
  Rng rng4(seed);
  auto four = ExecutePlan(plan, catalog, &rng4, mode, MorselWithThreads(4));
  ASSERT_EQ(one.ok(), four.ok())
      << one.status().ToString() << " vs " << four.status().ToString();
  if (!one.ok()) {
    EXPECT_EQ(one.status().code(), four.status().code());
    return;
  }
  ExpectIdentical(*one, *four);
}

TEST(EngineParityTest, MorselThreadParityBothModes) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 100;
  params.orders_population = 250;
  Workload q1 = MakeQuery1(params);
  {
    SCOPED_TRACE("exact");
    ExpectMorselThreadParity(q1.plan, catalog, 23, ExecMode::kExact);
  }
  {
    SCOPED_TRACE("sampled");
    ExpectMorselThreadParity(q1.plan, catalog, 23, ExecMode::kSampled);
  }
}

TEST(EngineParityTest, MorselNonPivotJoinMatchesRowEngine) {
  // The non-pivot side is itself a join (E, the smaller input, on its
  // left), so the serial join runs inside the morsel prepare. A WOR sample
  // over the pivot scan keeps the plan seed-decoupled, hence bit-identical
  // to the row engine at every thread count.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120, D: 40
  std::vector<Row> e_rows;
  for (int k = 0; k < 30; ++k) {
    e_rows.push_back(Row{Value(int64_t{k}), Value(0.5 * k)});
  }
  catalog.emplace("E", Relation::MakeBase(
                           "E",
                           Schema({{"ek", ValueType::kInt64},
                                   {"z", ValueType::kFloat64}}),
                           std::move(e_rows)));
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(50, 120),
                       PlanNode::Scan("F")),
      PlanNode::Join(PlanNode::Scan("E"), PlanNode::Scan("D"), "ek", "pk"),
      "fk", "pk");
  for (const ExecMode mode : {ExecMode::kExact, ExecMode::kSampled}) {
    SCOPED_TRACE(mode == ExecMode::kExact ? "exact" : "sampled");
    Rng row_rng(34);
    ASSERT_OK_AND_ASSIGN(Relation row_result,
                         ExecutePlan(plan, catalog, &row_rng, mode));
    EXPECT_GT(row_result.num_rows(), 0);
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      Rng rng(34);
      ASSERT_OK_AND_ASSIGN(
          Relation morsel,
          ExecutePlan(plan, catalog, &rng, mode, MorselWithThreads(threads)));
      ExpectIdentical(row_result, morsel);
    }
  }
}

TEST(EngineParityTest, UnionKeepsLineagesWhoseHashesCollide) {
  // Two tuples whose lineage ids differ but hash alike, one per union
  // branch over the same relation: every engine keeps both.
  const auto [first, second] = ::gus::testing::CollidingLineageRows();
  Relation pairs(Schema({{"k", ValueType::kInt64}}), {"X", "Y"});
  pairs.AppendRow(Row{Value(int64_t{0})}, first);
  pairs.AppendRow(Row{Value(int64_t{1})}, second);
  Catalog catalog;
  catalog.emplace("P", pairs);
  const PlanPtr scan = PlanNode::Scan("P");
  PlanPtr plan = PlanNode::Union(
      PlanNode::SelectNode(Eq(Col("k"), Lit(Value(int64_t{0}))), scan),
      PlanNode::SelectNode(Eq(Col("k"), Lit(Value(int64_t{1}))), scan));
  Rng row_rng(35);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  ASSERT_EQ(2, row_result.num_rows());
  EXPECT_EQ(first, row_result.lineage(0));
  EXPECT_EQ(second, row_result.lineage(1));
  Rng col_rng(35);
  ASSERT_OK_AND_ASSIGN(Relation serial,
                       ExecuteColumnar(plan, catalog, &col_rng));
  ExpectIdentical(row_result, serial);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Rng rng(35);
    ASSERT_OK_AND_ASSIGN(Relation morsel,
                         ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                                     MorselWithThreads(threads)));
    ExpectIdentical(row_result, morsel);
  }
}

TEST(EngineParityTest, SqlishMorselThreadParity) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  // Ungrouped and grouped (hash-table merge) surfaces, threads 1 vs 4.
  for (const char* sql :
       {"SELECT SUM(l_discount * o_totalprice), COUNT(*) "
        "FROM l TABLESAMPLE (40 PERCENT), o "
        "WHERE l_orderkey = o_orderkey",
        "SELECT SUM(l_quantity) "
        "FROM l TABLESAMPLE (50 PERCENT), o "
        "WHERE l_orderkey = o_orderkey GROUP BY o_custkey"}) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult one,
        sqlish::RunApproxQuery(sql, catalog, 31, {}, MorselWithThreads(1)));
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult four,
        sqlish::RunApproxQuery(sql, catalog, 31, {}, MorselWithThreads(4)));
    ASSERT_EQ(one.values.size(), four.values.size());
    EXPECT_GT(one.values.size(), 0u);
    EXPECT_EQ(one.sample_rows, four.sample_rows);
    for (size_t i = 0; i < one.values.size(); ++i) {
      EXPECT_EQ(one.values[i].label, four.values[i].label);
      EXPECT_EQ(one.values[i].group, four.values[i].group);
      EXPECT_EQ(one.values[i].value, four.values[i].value);
      EXPECT_EQ(one.values[i].stddev, four.values[i].stddev);
      EXPECT_EQ(one.values[i].lo, four.values[i].lo);
      EXPECT_EQ(one.values[i].hi, four.values[i].hi);
    }
  }
}

// -- Samplers over a base scan draw on the scan input ----------------------
//
// A WOR, WR-distinct or block sampler whose input is a scan draws its one
// seed at its first pull, from the scan's row count alone, and never
// drains the scan. The cases below pin what that must keep: the Rng order
// against a streaming Bernoulli elsewhere in the plan, the rows over a
// segment-backed scan, and the errors. The morsel engine runs them at 1
// and 4 threads; its pivot is always F (the largest relation), so every
// Bernoulli here is off the pivot and the morsel engine draws the row
// engine's sample.

/// F (120 rows, fk/v), D (40 rows, pk/w) and E (30 rows, ek/z).
Catalog ScanSamplerCatalog() {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  std::vector<Row> e_rows;
  for (int k = 0; k < 30; ++k) {
    e_rows.push_back(Row{Value(int64_t{k}), Value(0.5 * k)});
  }
  catalog.emplace("E", Relation::MakeBase(
                           "E",
                           Schema({{"ek", ValueType::kInt64},
                                   {"z", ValueType::kFloat64}}),
                           std::move(e_rows)));
  return catalog;
}

/// Row engine, serial pipeline and morsel engine (1 and 4 threads): the
/// same rows in the same order, or the same error code.
void ExpectAllEnginesAgree(const PlanPtr& plan, const Catalog& catalog,
                           uint64_t seed) {
  Rng row_rng(seed);
  auto row_result = ExecutePlan(plan, catalog, &row_rng, ExecMode::kSampled);
  Rng col_rng(seed);
  auto serial = ExecuteColumnar(plan, catalog, &col_rng);
  ASSERT_EQ(row_result.ok(), serial.ok())
      << row_result.status().ToString() << " vs "
      << serial.status().ToString();
  if (row_result.ok()) {
    EXPECT_GT(row_result->num_rows(), 0);
    ExpectIdentical(*row_result, *serial);
  } else {
    EXPECT_EQ(row_result.status().code(), serial.status().code());
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Rng rng(seed);
    auto morsel = ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                              MorselWithThreads(threads));
    ASSERT_EQ(row_result.ok(), morsel.ok()) << morsel.status().ToString();
    if (row_result.ok()) {
      ExpectIdentical(*row_result, *morsel);
    } else {
      EXPECT_EQ(row_result.status().code(), morsel.status().code());
    }
  }
}

TEST(EngineParityTest, ScanSamplerDrawsInRowEngineRngOrder) {
  Catalog catalog = ScanSamplerCatalog();
  const PlanPtr bern_d =
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("D"));
  const PlanPtr wor_f = PlanNode::Sample(
      SamplingSpec::WithoutReplacement(50, 120), PlanNode::Scan("F"));
  const PlanPtr wor_e = PlanNode::Sample(
      SamplingSpec::WithoutReplacement(20, 30), PlanNode::Scan("E"));
  const PlanPtr f = PlanNode::Scan("F");
  // A streaming Bernoulli drawing during the join's left drain, before the
  // scan sampler on the right draws its seed; the same join with its sides
  // swapped; and a Bernoulli over such a join. The last three put the scan
  // sampler in the morsel engine's non-pivot subtree (E), which runs in
  // the serial pipeline.
  const PlanPtr d_then_e = PlanNode::Join(bern_d, wor_e, "pk", "ek");
  const PlanPtr e_then_d = PlanNode::Join(wor_e, bern_d, "ek", "pk");
  const std::vector<std::pair<std::string, PlanPtr>> cases = {
      {"Bernoulli left, WOR right", PlanNode::Join(bern_d, wor_f, "pk", "fk")},
      {"WOR left, Bernoulli right", PlanNode::Join(wor_f, bern_d, "fk", "pk")},
      {"non-pivot: Bernoulli left, WOR right",
       PlanNode::Join(f, d_then_e, "fk", "pk")},
      {"non-pivot: WOR left, Bernoulli right",
       PlanNode::Join(f, e_then_d, "fk", "pk")},
      {"non-pivot: Bernoulli over the join",
       PlanNode::Join(
           f, PlanNode::Sample(SamplingSpec::Bernoulli(0.6), d_then_e), "fk",
           "pk")},
  };
  for (const auto& [name, plan] : cases) {
    SCOPED_TRACE(name);
    for (const uint64_t seed : {401, 402, 403}) {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      ExpectAllEnginesAgree(plan, catalog, seed);
    }
  }
}

TEST(EngineParityTest, ScanSamplerErrorsAgreeAcrossEngines) {
  Catalog catalog = ScanSamplerCatalog();
  const PlanPtr f = PlanNode::Scan("F");
  const PlanPtr d = PlanNode::Scan("D");
  const std::vector<std::pair<std::string, SamplingSpec>> specs = {
      {"WOR population mismatch", SamplingSpec::WithoutReplacement(5, 999)},
      {"WR population mismatch",
       SamplingSpec::WithReplacementDistinct(5, 41)},
      {"WOR n > N", SamplingSpec::WithoutReplacement(41, 40)},
      {"WOR n > N, population mismatch",
       SamplingSpec::WithoutReplacement(50, 60)},
  };
  for (const auto& [name, spec] : specs) {
    SCOPED_TRACE(name);
    const PlanPtr sampled = PlanNode::Sample(spec, d);
    // Alone (the morsel engine's pivot), off the pivot, and after a
    // Bernoulli that has drawn.
    for (const PlanPtr& plan :
         {sampled, PlanNode::Join(f, sampled, "fk", "pk"),
          PlanNode::Join(
              PlanNode::Sample(SamplingSpec::Bernoulli(0.5), f), sampled,
              "fk", "pk")}) {
      ExpectAllEnginesAgree(plan, catalog, 404);
      Rng rng(404);
      EXPECT_STATUS_CODE(kInvalidArgument,
                         ExecuteColumnar(plan, catalog, &rng).status());
    }
  }
}

TEST(EngineParityTest, NonPivotScanSamplersOverSegmentsMatchResident) {
  // D and F stored as 7-row segments: D's 40 rows span 6 of them. WOR, WR
  // and block samplers over D, alone (serial pipeline) and as the
  // non-pivot side of a join with F, give the row engine's relation from
  // every engine, over resident and segment-backed catalogs alike.
  Catalog catalog = ScanSamplerCatalog();
  const std::string dir = testing::UniqueTempDir("scan_sampler_segments");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/7));
  ASSERT_OK_AND_ASSIGN(auto stored, SegmentCatalog::Open(dir));
  ColumnarCatalog resident(&catalog);
  const auto fingerprint = [](const ColumnarRelation& rel) {
    return ContentFingerprint("result", rel.data());
  };
  const std::vector<std::pair<std::string, SamplingSpec>> specs = {
      {"WOR", SamplingSpec::WithoutReplacement(15, 40)},
      {"WR", SamplingSpec::WithReplacementDistinct(15, 40)},
      {"block", SamplingSpec::BlockBernoulli(0.5, 4)},
  };
  for (const auto& [name, spec] : specs) {
    SCOPED_TRACE(name);
    const PlanPtr sampled = PlanNode::Sample(spec, PlanNode::Scan("D"));
    for (const PlanPtr& plan :
         {sampled, PlanNode::Join(PlanNode::Scan("F"), sampled, "fk", "pk")}) {
      Rng row_rng(405);
      ASSERT_OK_AND_ASSIGN(Relation row_result,
                           ExecutePlan(plan, catalog, &row_rng,
                                       ExecMode::kSampled));
      ASSERT_GT(row_result.num_rows(), 0);
      const uint64_t expected = fingerprint(*row_result.Columnar());
      for (ColumnarCatalog* columnar :
           {&resident, static_cast<ColumnarCatalog*>(stored.get())}) {
        SCOPED_TRACE(columnar == &resident ? "resident" : "segments");
        Rng serial_rng(405);
        ASSERT_OK_AND_ASSIGN(ColumnarRelation serial,
                             ExecutePlanColumnar(plan, columnar, &serial_rng));
        EXPECT_EQ(expected, fingerprint(serial));
        for (const int threads : {1, 4}) {
          SCOPED_TRACE("threads=" + std::to_string(threads));
          Rng rng(405);
          ASSERT_OK_AND_ASSIGN(
              ColumnarRelation morsel,
              ExecutePlanMorsel(plan, columnar, &rng, ExecMode::kSampled,
                                MorselWithThreads(threads)));
          EXPECT_EQ(expected, fingerprint(morsel));
        }
      }
    }
  }
  // Drawing on the scan input reads only the segments holding a kept row:
  // a 2-row WOR over D faults at most 2 of its 6 segments on a cold cache.
  stored->segment_cache()->Clear();
  const int64_t faults_before = stored->segment_cache()->counters().faults;
  Rng rng(406);
  ASSERT_OK_AND_ASSIGN(
      ColumnarRelation two,
      ExecutePlanColumnar(
          PlanNode::Sample(SamplingSpec::WithoutReplacement(2, 40),
                           PlanNode::Scan("D")),
          stored.get(), &rng));
  EXPECT_EQ(2, two.num_rows());
  EXPECT_LE(stored->segment_cache()->counters().faults - faults_before, 2);
}

// -- Sharded engine: shard-count parity --------------------------------------
//
// ExecEngine::kSharded partitions the same global morsel sequence into
// shards, so its results are bit-identical across num_shards AND to
// kMorselParallel at the same (seed, morsel_rows). Against the *serial*
// engines it draws a different (equally valid) sample — except in exact
// mode and for Rng-free (lineage-seeded) sampling, where the rows
// coincide and only floating-point summation association can differ.

ExecOptions ShardedWith(int num_shards) {
  ExecOptions options;
  options.engine = ExecEngine::kSharded;
  options.num_shards = num_shards;
  options.morsel_rows = 32;
  return options;
}

TEST(EngineParityTest, ShardedShardCountParityBothModes) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.4;
  params.orders_n = 100;
  params.orders_population = 250;
  Workload q1 = MakeQuery1(params);
  for (const ExecMode mode : {ExecMode::kExact, ExecMode::kSampled}) {
    SCOPED_TRACE(mode == ExecMode::kExact ? "exact" : "sampled");
    Rng morsel_rng(43);
    auto morsel =
        ExecutePlan(q1.plan, catalog, &morsel_rng, mode, MorselWithThreads(4));
    ASSERT_TRUE(morsel.ok()) << morsel.status().ToString();
    for (const int num_shards : {1, 3, 8}) {
      SCOPED_TRACE(num_shards);
      Rng rng(43);
      auto sharded =
          ExecutePlan(q1.plan, catalog, &rng, mode, ShardedWith(num_shards));
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ExpectIdentical(*morsel, *sharded);
    }
  }
}

TEST(EngineParityTest, ShardedExactModeMatchesSerialRows) {
  // Exact mode consumes no randomness, so the sharded relation must equal
  // the serial engines' relation row for row (same rows, same order) for
  // every shard count.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.5), PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  Rng serial_rng(47);
  ASSERT_OK_AND_ASSIGN(
      Relation serial,
      ExecuteColumnar(plan, catalog, &serial_rng, ExecMode::kExact));
  for (const int num_shards : {1, 3, 8}) {
    SCOPED_TRACE(num_shards);
    Rng rng(47);
    ASSERT_OK_AND_ASSIGN(Relation sharded,
                         ExecutePlan(plan, catalog, &rng, ExecMode::kExact,
                                     ShardedWith(num_shards)));
    ExpectIdentical(serial, sharded);
  }
}

TEST(EngineParityTest, ShardedLineageBernoulliMatchesSerialRows) {
  // Lineage-seeded sampling is Rng-free: the sharded draw IS the serial
  // draw, in sampled mode, for every shard count.
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 77),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  Rng serial_rng(48);
  ASSERT_OK_AND_ASSIGN(
      Relation serial,
      ExecuteColumnar(plan, catalog, &serial_rng, ExecMode::kSampled));
  EXPECT_GT(serial.num_rows(), 0);
  for (const int num_shards : {1, 3, 8}) {
    SCOPED_TRACE(num_shards);
    Rng rng(48);
    ASSERT_OK_AND_ASSIGN(Relation sharded,
                         ExecutePlan(plan, catalog, &rng, ExecMode::kSampled,
                                     ShardedWith(num_shards)));
    ExpectIdentical(serial, sharded);
  }
}

TEST(EngineParityTest, SqlishShardedParity) {
  TpchConfig config;
  config.num_orders = 250;
  config.num_customers = 30;
  config.num_parts = 25;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  const char* sql =
      "SELECT SUM(l_discount * o_totalprice), COUNT(*) "
      "FROM l TABLESAMPLE (40 PERCENT), o "
      "WHERE l_orderkey = o_orderkey";
  // The serial engine draws a different sample; the sharded estimate must
  // still land within CI distance of it (same design, same data) while
  // staying bit-identical across shard counts.
  ASSERT_OK_AND_ASSIGN(sqlish::ApproxResult serial,
                       sqlish::RunApproxQuery(sql, catalog, 61));
  sqlish::ApproxResult first;
  for (const int num_shards : {1, 3, 8}) {
    SCOPED_TRACE(num_shards);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult sharded,
        sqlish::RunApproxQuery(sql, catalog, 61, {},
                               ShardedWith(num_shards)));
    ASSERT_EQ(serial.values.size(), sharded.values.size());
    for (size_t i = 0; i < serial.values.size(); ++i) {
      // Within 6 stddev of the serial estimate (different draw, same
      // design — the diff is statistical, not a bug signature).
      const double slack =
          6.0 * std::max(serial.values[i].stddev, sharded.values[i].stddev);
      EXPECT_NEAR(serial.values[i].value, sharded.values[i].value, slack);
    }
    if (num_shards == 1) {
      first = sharded;
      continue;
    }
    ASSERT_EQ(first.values.size(), sharded.values.size());
    EXPECT_EQ(first.sample_rows, sharded.sample_rows);
    for (size_t i = 0; i < first.values.size(); ++i) {
      EXPECT_EQ(first.values[i].value, sharded.values[i].value);
      EXPECT_EQ(first.values[i].stddev, sharded.values[i].stddev);
      EXPECT_EQ(first.values[i].lo, sharded.values[i].lo);
      EXPECT_EQ(first.values[i].hi, sharded.values[i].hi);
    }
  }
}

// -- Full pivot coverage: WOR, block-sampling, and union plans vs the -------
// -- serial row engine, across thread AND shard counts ----------------------
//
// These plans' Rng consumers are all seed-decoupled (fixed-size / block /
// lineage-seeded), so the morsel and sharded engines draw the *identical*
// sample as the serial row engine — and with the TinyJoin dyadic values
// the estimator sums are exact, so estimates and CIs compare bit for bit
// at threads {1,2,4,8} x shards {1,2,4}.

void ExpectReportsBitIdentical(const SboxReport& x, const SboxReport& y) {
  EXPECT_EQ(x.estimate, y.estimate);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.stddev, y.stddev);
  EXPECT_EQ(x.interval.lo, y.interval.lo);
  EXPECT_EQ(x.interval.hi, y.interval.hi);
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  EXPECT_EQ(x.variance_rows, y.variance_rows);
  EXPECT_EQ(x.y_hat, y.y_hat);
}

/// Canonical multiset encoding (union plans permute rows by morsel).
std::vector<std::string> CanonicalRelationRows(const Relation& rel) {
  std::vector<std::string> rows;
  rows.reserve(rel.num_rows());
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    std::ostringstream line;
    for (const Value& v : rel.row(i)) line << v.ToString() << "|";
    for (uint64_t id : rel.lineage(i)) line << id << ",";
    rows.push_back(line.str());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// \brief The acceptance matrix for one plan: serial-row reference report
/// and rows vs kMorselParallel (threads 1/2/4/8) and kSharded (shards
/// 1/2/4), everything bit-identical (rows as a multiset when
/// `rows_as_multiset` — union output interleaves by morsel).
void ExpectFullEngineMatrixParity(const PlanPtr& plan, const Catalog& catalog,
                                  uint64_t seed, const ExprPtr& f,
                                  bool rows_as_multiset) {
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 40;  // engage the Section 7 path

  // Serial row engine reference: materialize, then estimate.
  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(Relation row_result,
                       ExecutePlan(plan, catalog, &row_rng,
                                   ExecMode::kSampled));
  EXPECT_GT(row_result.num_rows(), 0);
  ASSERT_OK_AND_ASSIGN(
      SampleView row_view,
      SampleView::FromRelation(row_result, f, soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport reference,
                       SboxEstimate(soa.top, row_view, options));

  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.morsel_rows = 16;
  ColumnarCatalog columnar(&catalog);
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec.num_threads = threads;
    Rng rel_rng(seed);
    ASSERT_OK_AND_ASSIGN(Relation morsel_rel,
                         ExecutePlan(plan, catalog, &rel_rng,
                                     ExecMode::kSampled, exec));
    if (rows_as_multiset) {
      EXPECT_EQ(CanonicalRelationRows(row_result),
                CanonicalRelationRows(morsel_rel));
    } else {
      ExpectIdentical(row_result, morsel_rel);
    }
    Rng est_rng(seed);
    ASSERT_OK_AND_ASSIGN(
        SboxReport morsel_report,
        EstimatePlanParallel(plan, &columnar, &est_rng, f, soa.top, options,
                             ExecMode::kSampled, exec));
    ExpectReportsBitIdentical(reference, morsel_report);
  }
  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExecOptions sharded = exec;
    sharded.engine = ExecEngine::kSharded;
    sharded.num_threads = 2;
    sharded.num_shards = shards;
    Rng rel_rng(seed);
    ASSERT_OK_AND_ASSIGN(Relation sharded_rel,
                         ExecutePlan(plan, catalog, &rel_rng,
                                     ExecMode::kSampled, sharded));
    if (rows_as_multiset) {
      EXPECT_EQ(CanonicalRelationRows(row_result),
                CanonicalRelationRows(sharded_rel));
    } else {
      ExpectIdentical(row_result, sharded_rel);
    }
    ASSERT_OK_AND_ASSIGN(
        SboxReport sharded_report,
        ShardedSboxEstimate(plan, catalog, seed, ExecMode::kSampled, sharded,
                            shards, f, soa.top, options));
    ExpectReportsBitIdentical(reference, sharded_report);
  }
}

TEST(EngineParityTest, WorPivotFullMatrixBitParity) {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::WithoutReplacement(50, 120),
                       PlanNode::Scan("F")),
      PlanNode::Scan("D"), "fk", "pk");
  ExpectFullEngineMatrixParity(plan, catalog, 201, Mul(Col("v"), Col("w")),
                               /*rows_as_multiset=*/false);
}

TEST(EngineParityTest, BlockSamplingFullMatrixBitParity) {
  Catalog catalog = MakeTinyJoin(120, 1).MakeCatalog();  // D: 120 rows
  PlanPtr plan = PlanNode::SelectNode(
      Gt(Col("w"), Lit(5.0)),
      PlanNode::Sample(SamplingSpec::BlockBernoulli(0.5, 12),
                       PlanNode::Scan("D")));
  ExpectFullEngineMatrixParity(plan, catalog, 202, Col("w"),
                               /*rows_as_multiset=*/false);
}

TEST(EngineParityTest, UnionFullMatrixBitParity) {
  Catalog catalog = MakeTinyJoin(40, 3).MakeCatalog();  // F: 120 rows
  PlanPtr scan = PlanNode::Scan("F");
  PlanPtr plan = PlanNode::Union(
      PlanNode::Sample(SamplingSpec::LineageBernoulli("F", 0.4, 7), scan),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(30, 120), scan));
  ExpectFullEngineMatrixParity(plan, catalog, 203, Col("v"),
                               /*rows_as_multiset=*/true);
}

TEST(EngineParityTest, SqlishApproxQueryAgrees) {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 30;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  // WOR on the pivot (l) and on the serially executed side (o): the morsel
  // engine draws the row engine's sample, so the estimates match to the
  // last bit. (Bernoulli Rng-order parity is pinned at plan level.)
  const std::string sql =
      "SELECT SUM(l_discount * o_totalprice), COUNT(*), AVG(l_quantity) "
      "FROM l TABLESAMPLE (400 ROWS), o TABLESAMPLE (150 ROWS) "
      "WHERE l_orderkey = o_orderkey";
  ASSERT_OK_AND_ASSIGN(sqlish::ApproxResult row_result,
                       sqlish::RunApproxQuery(sql, catalog, 99));
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.num_threads = 4;
  exec.morsel_rows = 64;
  ASSERT_OK_AND_ASSIGN(sqlish::ApproxResult morsel_result,
                       sqlish::RunApproxQuery(sql, catalog, 99, {}, exec));
  ASSERT_EQ(row_result.values.size(), morsel_result.values.size());
  EXPECT_GT(row_result.sample_rows, 0);
  EXPECT_EQ(row_result.sample_rows, morsel_result.sample_rows);
  for (size_t i = 0; i < row_result.values.size(); ++i) {
    EXPECT_EQ(row_result.values[i].label, morsel_result.values[i].label);
    EXPECT_EQ(row_result.values[i].value, morsel_result.values[i].value);
    EXPECT_EQ(row_result.values[i].stddev, morsel_result.values[i].stddev);
    EXPECT_EQ(row_result.values[i].lo, morsel_result.values[i].lo);
    EXPECT_EQ(row_result.values[i].hi, morsel_result.values[i].hi);
  }
}

}  // namespace
}  // namespace gus
