// Tests for the columnar layer: a Relation's columns reading back exactly
// the rows appended to it (randomized property test), dictionary interning,
// columns shared by copies of a relation, vectorized expression evaluation
// parity with the row evaluator, and the streaming estimation sinks
// (SampleViewBuilder, StreamingSboxEstimator) matching their materializing
// counterparts exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/tpch_gen.h"
#include "data/workload.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "plan/vector_eval.h"
#include "rel/column_batch.h"
#include "sqlish/planner.h"
#include "test_util.h"
#include "util/random.h"

namespace gus {
namespace {

using ::gus::testing::MakeTinyJoin;

/// A random relation; `rows` and `lineage` receive what was appended.
Relation RandomRelation(Rng* rng, int num_cols, int lineage_arity,
                        int64_t num_rows, std::vector<Row>* rows,
                        std::vector<LineageRow>* lineage) {
  // Fixed vocabulary (also avoids a GCC-12 -Wrestrict false positive on
  // temporary strings constructed into the Value variant).
  static const std::vector<std::string> kVocab = {"s0", "s1", "s2", "s3",
                                                  "s4", "s5", "s6"};
  std::vector<Column> cols;
  std::vector<std::string> lineage_names;
  for (int c = 0; c < num_cols; ++c) {
    const auto type = static_cast<ValueType>(rng->UniformInt(uint64_t{3}));
    cols.push_back({"c" + std::to_string(c), type});
  }
  for (int d = 0; d < lineage_arity; ++d) {
    lineage_names.push_back("R" + std::to_string(d));
  }
  Relation rel(Schema(cols), lineage_names);
  for (int64_t i = 0; i < num_rows; ++i) {
    Row row;
    for (int c = 0; c < num_cols; ++c) {
      switch (cols[c].type) {
        case ValueType::kInt64:
          row.push_back(Value(static_cast<int64_t>(rng->UniformInt(-50, 50))));
          break;
        case ValueType::kFloat64:
          row.push_back(Value(rng->Uniform(-10.0, 10.0)));
          break;
        case ValueType::kString:
          // Small vocabulary: exercises dictionary code reuse.
          row.push_back(Value(kVocab[rng->UniformInt(uint64_t{7})]));
          break;
      }
    }
    LineageRow lin;
    for (int d = 0; d < lineage_arity; ++d) {
      lin.push_back(rng->UniformInt(uint64_t{1} << 20));
    }
    rel.AppendRow(row, lin);
    rows->push_back(std::move(row));
    lineage->push_back(std::move(lin));
  }
  return rel;
}

TEST(ColumnarRoundTripTest, RandomizedProperty) {
  Rng rng(0xC01);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_cols = 1 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    const int arity = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    const int64_t num_rows =
        static_cast<int64_t>(rng.UniformInt(uint64_t{300}));
    std::vector<Row> rows;
    std::vector<LineageRow> lineage;
    Relation original =
        RandomRelation(&rng, num_cols, arity, num_rows, &rows, &lineage);
    // Value types, bit patterns and lineage read back exactly.
    ASSERT_EQ(num_rows, original.num_rows());
    ASSERT_EQ(num_rows, original.Columnar()->num_rows());
    for (int64_t i = 0; i < num_rows; ++i) {
      const Row got = original.row(i);
      ASSERT_EQ(rows[i].size(), got.size());
      for (size_t c = 0; c < got.size(); ++c) {
        EXPECT_EQ(rows[i][c].type(), got[c].type());
        EXPECT_TRUE(rows[i][c] == got[c]) << "row " << i << " col " << c;
      }
      EXPECT_EQ(lineage[i], original.lineage(i));
    }
  }
}

TEST(ColumnarRoundTripTest, StringsShareDictionaryCodes) {
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Row{Value(i % 2 ? "hot" : "cold")});
  }
  Relation rel = Relation::MakeBase(
      "S", Schema({{"tag", ValueType::kString}}), std::move(rows));
  const std::shared_ptr<const ColumnarRelation> columnar = rel.Columnar();
  const ColumnData& col = columnar->data().column(0);
  ASSERT_NE(nullptr, col.dict);
  EXPECT_EQ(2u, col.dict->values.size());  // interned, not duplicated
  EXPECT_EQ(100u, col.codes.size());
}

// ---- Columns shared by copies of a Relation --------------------------------

constexpr char kMemoQuery1[] = R"(
    SELECT SUM(l_discount*(1.0-l_tax))
    FROM l TABLESAMPLE (10 PERCENT), o TABLESAMPLE (100 ROWS)
    WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0;
  )";

Catalog MakeMemoCatalog() {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 30;
  return GenerateTpch(config).MakeCatalog();
}

/// A deep copy of `catalog`, appended row by row: it shares no columns.
Catalog RebuildCatalog(const Catalog& catalog) {
  Catalog fresh;
  for (const auto& [name, rel] : catalog) {
    Relation copy(rel.schema(), rel.lineage_schema());
    for (int64_t i = 0; i < rel.num_rows(); ++i) {
      copy.AppendRow(rel.row(i), rel.lineage(i));
    }
    fresh.emplace(name, std::move(copy));
  }
  return fresh;
}

/// Appends `n` copies of the first rows of `rel` under new lineage ids.
void AppendCopies(Relation* rel, int64_t n) {
  const auto next_id = static_cast<uint64_t>(rel->num_rows());
  for (int64_t i = 0; i < n; ++i) {
    rel->AppendRow(rel->row(i), {next_id + static_cast<uint64_t>(i)});
  }
}

void ExpectSameApprox(const sqlish::ApproxResult& a,
                      const sqlish::ApproxResult& b) {
  EXPECT_EQ(a.sample_rows, b.sample_rows);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].label, b.values[i].label);
    EXPECT_EQ(a.values[i].group, b.values[i].group);
    EXPECT_EQ(a.values[i].value, b.values[i].value);
    EXPECT_EQ(a.values[i].stddev, b.values[i].stddev);
    EXPECT_EQ(a.values[i].lo, b.values[i].lo);
    EXPECT_EQ(a.values[i].hi, b.values[i].hi);
  }
}

ExecOptions MorselExec(int num_threads) {
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.num_threads = num_threads;
  return exec;
}

TEST(SharedColumnsTest, ConcurrentFirstQueriesSeeOnePointer) {
  const Catalog catalog = MakeMemoCatalog();  // never queried before
  constexpr int kThreads = 8;
  constexpr uint64_t kSeed = 7;
  std::vector<sqlish::ApproxResult> results(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<const ColumnarRelation*> handed_out(kThreads, nullptr);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      auto result = sqlish::RunApproxQuery(kMemoQuery1, catalog, kSeed, {},
                                           MorselExec(2));
      if (!result.ok()) {
        errors[t] = result.status().ToString();
        return;
      }
      results[t] = std::move(result).ValueOrDie();
      handed_out[t] = catalog.at("l").Columnar().get();
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  ASSERT_OK_AND_ASSIGN(
      sqlish::ApproxResult serial,
      sqlish::RunApproxQuery(kMemoQuery1, catalog, kSeed, {}, MorselExec(1)));
  const ColumnarRelation* l = catalog.at("l").Columnar().get();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ("", errors[t]);
    ExpectSameApprox(serial, results[t]);
    EXPECT_EQ(l, handed_out[t]);
  }
}

TEST(SharedColumnsTest, QueryAfterAppendSeesTheNewRows) {
  Catalog catalog = MakeMemoCatalog();
  constexpr uint64_t kSeed = 11;
  ColumnarCatalog before(&catalog);
  ASSERT_OK_AND_ASSIGN(const ColumnarRelation* snapshot, before.Get("l"));
  const int64_t old_rows = snapshot->num_rows();
  {
    // The serial pipeline, at plan level.
    ASSERT_OK_AND_ASSIGN(sqlish::ParsedQuery parsed,
                         sqlish::ParseQuery(kMemoQuery1));
    ASSERT_OK_AND_ASSIGN(sqlish::PlannedQuery planned,
                         sqlish::PlanQuery(parsed, catalog));
    Rng first_rng(kSeed);
    ASSERT_OK_AND_ASSIGN(
        Relation first,
        testing::ExecuteColumnar(planned.plan, catalog, &first_rng));
    AppendCopies(&catalog.at("l"), 200);
    Rng second_rng(kSeed);
    ASSERT_OK_AND_ASSIGN(
        Relation second,
        testing::ExecuteColumnar(planned.plan, catalog, &second_rng));
    Rng fresh_rng(kSeed);
    ASSERT_OK_AND_ASSIGN(Relation fresh,
                         testing::ExecuteColumnar(planned.plan,
                                                  RebuildCatalog(catalog),
                                                  &fresh_rng));
    EXPECT_EQ(fresh.num_rows(), second.num_rows());
    EXPECT_EQ(fresh.Columnar()->data().lineage(),
              second.Columnar()->data().lineage());
    EXPECT_NE(first.num_rows(), second.num_rows());
  }
  {
    const ExecOptions exec = MorselExec(2);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult first,
        sqlish::RunApproxQuery(kMemoQuery1, catalog, kSeed, {}, exec));
    AppendCopies(&catalog.at("l"), 200);
    ASSERT_OK_AND_ASSIGN(
        sqlish::ApproxResult second,
        sqlish::RunApproxQuery(kMemoQuery1, catalog, kSeed, {}, exec));
    ASSERT_OK_AND_ASSIGN(sqlish::ApproxResult fresh,
                         sqlish::RunApproxQuery(kMemoQuery1,
                                                RebuildCatalog(catalog), kSeed,
                                                {}, exec));
    ExpectSameApprox(fresh, second);
    EXPECT_NE(first.sample_rows, second.sample_rows);
  }
  // A catalog built before the appends keeps scanning its snapshot.
  ASSERT_OK_AND_ASSIGN(const ColumnarRelation* again, before.Get("l"));
  EXPECT_EQ(snapshot, again);
  EXPECT_EQ(old_rows, again->num_rows());
  EXPECT_EQ(old_rows + 400, catalog.at("l").num_rows());
}

TEST(SharedColumnsTest, CopiesShareColumnsUntilOneAppends) {
  Relation a = testing::MakeSingleTable(10);
  Relation b = a;
  const std::shared_ptr<const ColumnarRelation> from_a = a.Columnar();
  EXPECT_EQ(from_a.get(), b.Columnar().get());

  b.AppendRow(Row{Value(11.0)}, {10});
  EXPECT_NE(from_a.get(), b.Columnar().get());
  EXPECT_EQ(11, b.num_rows());
  EXPECT_EQ(11, b.Columnar()->num_rows());
  EXPECT_EQ(from_a.get(), a.Columnar().get());
  EXPECT_EQ(10, a.num_rows());
  EXPECT_EQ(10, from_a->num_rows());

  // Copying a catalog copies no column data either.
  const Catalog catalog = MakeMemoCatalog();
  Catalog copy = catalog;
  for (const auto& [name, rel] : catalog) {
    EXPECT_EQ(rel.Columnar().get(), copy.at(name).Columnar().get()) << name;
  }
  const ColumnarRelation* l = catalog.at("l").Columnar().get();
  const int64_t l_rows = catalog.at("l").num_rows();
  AppendCopies(&copy.at("l"), 3);
  EXPECT_NE(l, copy.at("l").Columnar().get());
  EXPECT_EQ(l_rows + 3, copy.at("l").num_rows());
  EXPECT_EQ(l, catalog.at("l").Columnar().get());
  EXPECT_EQ(l_rows, catalog.at("l").num_rows());
}

TEST(SharedColumnsTest, SoleOwnerAppendsInPlaceAndForgetsFingerprints) {
  Relation a = testing::MakeSingleTable(5);
  const ColumnarRelation* columns = a.Columnar().get();
  const uint64_t fp = a.Fingerprint("R");
  a.AppendRow(Row{Value(6.0)}, {5});
  EXPECT_EQ(columns, a.Columnar().get());
  const uint64_t grown = a.Fingerprint("R");
  EXPECT_NE(fp, grown);
  EXPECT_EQ(ContentFingerprint("R", testing::MakeSingleTable(6)
                                        .Columnar()
                                        ->data()),
            grown);
}

TEST(SharedColumnsTest, SoleOwnerAppendIsOrderedAfterAReaderLetsGo) {
  // A reader thread reads a copy's columns and then drops the copy. The
  // owner learns of that only through the owner count (the flag is a
  // relaxed atomic, which orders nothing) and appends in place, so the
  // sole-owner check itself must order the append after the reader's
  // reads. ThreadSanitizer builds report it if it does not.
  Relation a = testing::MakeSingleTable(1000);
  const ColumnarRelation* columns = a.Columnar().get();
  std::atomic<bool> released{false};
  double sum = 0.0;
  std::thread reader([copy = a, &released, &sum]() mutable {
    for (const double v : copy.Columnar()->data().column(0).f64) sum += v;
    copy = Relation();
    released.store(true, std::memory_order_relaxed);
  });
  while (!released.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
  a.AppendRow(Row{Value(1001.0)}, {1000});
  reader.join();
  EXPECT_EQ(columns, a.Columnar().get());  // written in place
  EXPECT_EQ(1001, a.num_rows());
  EXPECT_EQ(500500.0, sum);
}

TEST(SharedColumnsTest, MovedFromRelationWorksAfterReassignment) {
  Relation a = testing::MakeSingleTable(5);
  const std::shared_ptr<const ColumnarRelation> original = a.Columnar();
  Relation b = std::move(a);
  EXPECT_EQ(original.get(), b.Columnar().get());

  a = testing::MakeSingleTable(3);
  EXPECT_EQ(3, a.Columnar()->num_rows());
  a.AppendRow(Row{Value(4.0)}, {3});
  const std::shared_ptr<const ColumnarRelation> reassigned = a.Columnar();
  EXPECT_EQ(4, reassigned->num_rows());
  EXPECT_EQ(ContentFingerprint("R", reassigned->data()), a.Fingerprint("R"));

  Relation c;  // default-constructed: empty columns
  EXPECT_EQ(0, c.Columnar()->num_rows());
}

TEST(SharedColumnsTest, FingerprintsAreSharedAndTrackAppends) {
  Catalog catalog = MakeMemoCatalog();
  ColumnarCatalog first(&catalog);
  ColumnarCatalog second(&catalog);
  ASSERT_OK_AND_ASSIGN(const uint64_t fp, first.Fingerprint("l"));
  ASSERT_OK_AND_ASSIGN(const uint64_t fp_again, second.Fingerprint("l"));
  EXPECT_EQ(fp, fp_again);
  // The memoized value is the plain ContentFingerprint of the content.
  EXPECT_EQ(ContentFingerprint(
                "l", RebuildCatalog(catalog).at("l").Columnar()->data()),
            fp);
  ASSERT_OK_AND_ASSIGN(const uint64_t other, first.Fingerprint("o"));
  EXPECT_NE(fp, other);

  ColumnarCatalog pinned(&catalog);
  ASSERT_OK(pinned.Get("l").status());
  AppendCopies(&catalog.at("l"), 1);
  ColumnarCatalog after(&catalog);
  ASSERT_OK_AND_ASSIGN(const uint64_t changed, after.Fingerprint("l"));
  EXPECT_NE(fp, changed);
  EXPECT_EQ(changed, catalog.at("l").Fingerprint("l"));
  // Catalogs that saw the old content keep fingerprinting that snapshot.
  ASSERT_OK_AND_ASSIGN(const uint64_t old_cached, first.Fingerprint("l"));
  ASSERT_OK_AND_ASSIGN(const uint64_t old_pinned, pinned.Fingerprint("l"));
  EXPECT_EQ(fp, old_cached);
  EXPECT_EQ(fp, old_pinned);
}

TEST(SharedColumnsTest, SharedDictionaryIsNeverExtendedInPlace) {
  const Schema schema({{"tag", ValueType::kString}});
  const Relation base = Relation::MakeBase(
      "S", schema, {Row{Value("a")}, Row{Value("b")}});
  const std::shared_ptr<const ColumnarRelation> shared = base.Columnar();
  const std::shared_ptr<const ColumnarRelation> other =
      Relation::MakeBase("S", schema, {Row{Value("c")}}).Columnar();
  const StringDict& dict = *shared->data().column(0).dict;

  ColumnBatch ranged(shared->layout_ptr());
  ranged.AppendRangeFrom(shared->data(), 0, 2);  // adopts the shared dict
  ranged.AppendRangeFrom(other->data(), 0, 1);
  ColumnBatch gathered(shared->layout_ptr());
  gathered.GatherFrom(shared->data(), std::vector<int64_t>{1});
  gathered.GatherFrom(other->data(), std::vector<int64_t>{0});
  Relation copy = base;
  copy.AppendRow(Row{Value("d")}, {2});

  EXPECT_EQ(2u, dict.values.size());
  EXPECT_EQ("c", ranged.column(0).StringAt(2));
  EXPECT_EQ("c", gathered.column(0).StringAt(1));
  EXPECT_EQ("d", copy.row(2)[0].AsString());
  EXPECT_EQ(2, base.num_rows());
}

// ---- Vectorized expression evaluation --------------------------------------

class VectorEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(0xE7A);
    std::vector<Row> rows;
    for (int i = 0; i < 257; ++i) {  // not a multiple of any lane width
      rows.push_back(Row{
          Value(static_cast<int64_t>(rng.UniformInt(-20, 20))),
          Value(static_cast<int64_t>(rng.UniformInt(-3, 3))),
          Value(rng.Uniform(-5.0, 5.0)),
          Value(rng.Uniform(-1.0, 1.0)),
          Value("k" + std::to_string(rng.UniformInt(uint64_t{3}))),
      });
    }
    rel_ = Relation::MakeBase("E",
                              Schema({{"a", ValueType::kInt64},
                                      {"b", ValueType::kInt64},
                                      {"x", ValueType::kFloat64},
                                      {"y", ValueType::kFloat64},
                                      {"s", ValueType::kString}}),
                              std::move(rows));
    columnar_ = *rel_.Columnar();
  }

  /// Evaluates `expr` both ways and asserts identical per-row results
  /// (including identical error behavior).
  void ExpectEvalParity(const ExprPtr& expr) {
    SCOPED_TRACE(expr->ToString());
    auto bound_or = expr->Bind(rel_.schema());
    ASSERT_TRUE(bound_or.ok());
    const ExprPtr bound = bound_or.ValueOrDie();
    auto batch_or = EvalExprBatch(bound, columnar_.data());

    // Row-at-a-time reference (first error wins, as in the batch path).
    std::vector<Value> expected;
    Status row_status = Status::OK();
    for (int64_t i = 0; i < rel_.num_rows(); ++i) {
      auto v = bound->Eval(rel_.row(i));
      if (!v.ok()) {
        row_status = v.status();
        break;
      }
      expected.push_back(std::move(v).ValueOrDie());
    }
    if (!row_status.ok()) {
      ASSERT_FALSE(batch_or.ok()) << "batch eval unexpectedly succeeded";
      EXPECT_EQ(row_status.code(), batch_or.status().code());
      return;
    }
    ASSERT_TRUE(batch_or.ok()) << batch_or.status().ToString();
    const ColumnData& col = batch_or.ValueOrDie();
    ASSERT_EQ(rel_.num_rows(), col.size());
    for (int64_t i = 0; i < rel_.num_rows(); ++i) {
      const Value got = col.ValueAt(i);
      EXPECT_EQ(expected[i].type(), got.type()) << "row " << i;
      EXPECT_TRUE(expected[i] == got)
          << "row " << i << ": " << expected[i].ToString() << " vs "
          << got.ToString();
    }
  }

  Relation rel_;
  ColumnarRelation columnar_;
};

TEST_F(VectorEvalTest, ArithmeticStaysIntegral) {
  ExpectEvalParity(Add(Col("a"), Col("b")));
  ExpectEvalParity(Sub(Col("a"), Lit(Value(int64_t{3}))));
  ExpectEvalParity(Mul(Col("a"), Col("b")));
}

TEST_F(VectorEvalTest, MixedArithmeticPromotes) {
  ExpectEvalParity(Add(Col("a"), Col("x")));
  ExpectEvalParity(Mul(Col("x"), Sub(Col("y"), Lit(0.25))));
  ExpectEvalParity(Neg(Col("a")));
  ExpectEvalParity(Neg(Col("x")));
}

TEST_F(VectorEvalTest, DivisionAlwaysFloatAndChecksZero) {
  ExpectEvalParity(Div(Col("x"), Lit(2.0)));
  ExpectEvalParity(Div(Col("a"), Col("b")));  // b hits 0 -> both error
}

TEST_F(VectorEvalTest, Comparisons) {
  ExpectEvalParity(Ge(Col("x"), Col("y")));
  ExpectEvalParity(Lt(Col("a"), Lit(Value(int64_t{0}))));
  ExpectEvalParity(Eq(Col("a"), Col("x")));  // mixed numeric compare
  ExpectEvalParity(Eq(Col("s"), Lit("k1")));
  ExpectEvalParity(Ne(Col("s"), Lit("k2")));
  ExpectEvalParity(Le(Col("s"), Lit("k1")));  // lexicographic
}

TEST_F(VectorEvalTest, BooleanLogic) {
  ExpectEvalParity(And(Gt(Col("x"), Lit(0.0)), Lt(Col("a"), Lit(Value(5)))));
  ExpectEvalParity(Or(Le(Col("y"), Lit(0.0)), Eq(Col("b"), Lit(Value(1)))));
  ExpectEvalParity(Not(Gt(Col("x"), Col("y"))));
}

TEST_F(VectorEvalTest, ShortCircuitGuardsRowLevel) {
  // Column b hits 0; the guard must keep the division from ever being
  // evaluated on those rows — both evaluators succeed and agree.
  ExpectEvalParity(And(Ne(Col("b"), Lit(Value(0))),
                       Gt(Div(Lit(1.0), Col("b")), Lit(0.2))));
  ExpectEvalParity(Or(Eq(Col("b"), Lit(Value(0))),
                      Lt(Div(Lit(1.0), Col("b")), Lit(0.0))));
  // Nested guard inside the undecided-row sub-batch path.
  ExpectEvalParity(And(Gt(Col("a"), Lit(Value(0))),
                       And(Ne(Col("b"), Lit(Value(0))),
                           Gt(Div(Col("a"), Col("b")), Lit(1.0)))));
}

TEST_F(VectorEvalTest, TypeErrorsMatch) {
  ExpectEvalParity(Add(Col("s"), Col("a")));  // string arithmetic
  ExpectEvalParity(Gt(Col("s"), Col("a")));   // string vs numeric compare
  ExpectEvalParity(Not(Col("s")));            // string truthiness
}

TEST_F(VectorEvalTest, PredicateSelectionVector) {
  auto bound = Gt(Col("x"), Lit(0.0))->Bind(rel_.schema()).ValueOrDie();
  std::vector<int64_t> sel;
  ASSERT_OK(EvalPredicateBatch(bound, columnar_.data(), &sel));
  std::vector<int64_t> expected;
  for (int64_t i = 0; i < rel_.num_rows(); ++i) {
    if (rel_.row(i)[2].AsFloat64() > 0.0) expected.push_back(i);
  }
  EXPECT_EQ(expected, sel);
}

// ---- Streaming estimation sinks --------------------------------------------

struct Query1Setup {
  Catalog catalog;
  Workload workload;
  SoaResult soa;
};

Query1Setup MakeQuery1Setup() {
  TpchConfig config;
  config.num_orders = 400;
  config.num_customers = 50;
  config.num_parts = 40;
  TpchData data = GenerateTpch(config);
  Query1Params params;
  params.lineitem_p = 0.5;
  params.orders_n = 200;
  params.orders_population = 400;
  Workload q1 = MakeQuery1(params);
  SoaResult soa = SoaTransform(q1.plan).ValueOrDie();
  return {data.MakeCatalog(), std::move(q1), std::move(soa)};
}

TEST(SampleViewBuilderTest, MatchesFromRelation) {
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 31;

  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));
  ASSERT_OK_AND_ASSIGN(SampleView expected,
                       SampleView::FromRelation(sample,
                                                setup.workload.aggregate,
                                                setup.soa.top.schema()));

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<BatchSource> pipeline,
      CompileBatchPipeline(setup.workload.plan, &columnar, &col_rng,
                           ExecMode::kSampled));
  ASSERT_OK_AND_ASSIGN(
      SampleViewBuilder builder,
      SampleViewBuilder::Make(*pipeline->layout(), setup.workload.aggregate,
                              setup.soa.top.schema()));
  ColumnBatch batch;
  while (true) {
    auto more = pipeline->Next(&batch);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_OK(builder.Consume(batch));
  }
  const SampleView& got = builder.view();
  ASSERT_EQ(expected.num_rows(), got.num_rows());
  EXPECT_EQ(expected.f, got.f);            // bit-identical values
  EXPECT_EQ(expected.lineage, got.lineage);
}

void ExpectReportsIdentical(const SboxReport& a, const SboxReport& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.interval.lo, b.interval.lo);
  EXPECT_EQ(a.interval.hi, b.interval.hi);
  EXPECT_EQ(a.sample_rows, b.sample_rows);
  EXPECT_EQ(a.variance_rows, b.variance_rows);
  EXPECT_EQ(a.y_hat, b.y_hat);
}

TEST(StreamingSboxTest, MatchesBatchEstimateWithoutSubsample) {
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 32;

  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));
  ASSERT_OK_AND_ASSIGN(SampleView view,
                       SampleView::FromRelation(sample,
                                                setup.workload.aggregate,
                                                setup.soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport expected,
                       SboxEstimate(setup.soa.top, view));

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      SboxReport got,
      EstimatePlanStreaming(setup.workload.plan, &columnar, &col_rng,
                            setup.workload.aggregate, setup.soa.top));
  ExpectReportsIdentical(expected, got);
}

TEST(StreamingSboxTest, MatchesBatchEstimateWithSubsample) {
  Query1Setup setup = MakeQuery1Setup();
  const uint64_t seed = 33;
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 50;  // force the Section 7 path hard

  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));
  ASSERT_OK_AND_ASSIGN(SampleView view,
                       SampleView::FromRelation(sample,
                                                setup.workload.aggregate,
                                                setup.soa.top.schema()));
  ASSERT_OK_AND_ASSIGN(SboxReport expected,
                       SboxEstimate(setup.soa.top, view, options));
  ASSERT_GT(expected.sample_rows, 50);  // the subsample actually engaged
  ASSERT_LT(expected.variance_rows, expected.sample_rows);

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      SboxReport got,
      EstimatePlanStreaming(setup.workload.plan, &columnar, &col_rng,
                            setup.workload.aggregate, setup.soa.top,
                            options));
  ExpectReportsIdentical(expected, got);
}

TEST(StreamingSboxTest, RetainedStateStaysBounded) {
  Query1Setup setup = MakeQuery1Setup();
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 20;

  ColumnarCatalog columnar(&setup.catalog);
  Rng rng(34);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<BatchSource> pipeline,
      CompileBatchPipeline(setup.workload.plan, &columnar, &rng,
                           ExecMode::kSampled));
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator est,
      StreamingSboxEstimator::Make(*pipeline->layout(),
                                   setup.workload.aggregate, setup.soa.top,
                                   options));
  ColumnBatch batch;
  while (true) {
    auto more = pipeline->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_OK(est.Consume(batch));
    EXPECT_LE(est.retained_rows(), 2048);  // far below rows_seen
  }
  EXPECT_GT(est.rows_seen(), 200);
  ASSERT_OK_AND_ASSIGN(SboxReport report, est.Finish());
  EXPECT_GT(report.sample_rows, 0);
}

TEST(PumpToSinkTest, NeverMaterializingCountMatches) {
  // A trivial sink counting rows must see exactly the materialized total.
  Query1Setup setup = MakeQuery1Setup();
  struct CountingSink final : public BatchSink {
    int64_t rows = 0;
    Status Consume(const ColumnBatch& batch) override {
      rows += batch.num_rows();
      return Status::OK();
    }
  };
  const uint64_t seed = 35;
  Rng row_rng(seed);
  ASSERT_OK_AND_ASSIGN(
      Relation sample,
      ExecutePlan(setup.workload.plan, setup.catalog, &row_rng));

  ColumnarCatalog columnar(&setup.catalog);
  Rng col_rng(seed);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<BatchSource> pipeline,
                       CompileBatchPipeline(setup.workload.plan, &columnar,
                                            &col_rng, ExecMode::kSampled));
  CountingSink sink;
  ASSERT_OK(PumpToSink(pipeline.get(), &sink));
  EXPECT_EQ(sample.num_rows(), sink.rows);
}

}  // namespace
}  // namespace gus
