// Unit tests for rel/value.h and rel/schema.h.

#include <gtest/gtest.h>

#include "rel/relation.h"
#include "rel/schema.h"
#include "rel/value.h"
#include "test_util.h"

namespace gus {
namespace {

using ::gus::testing::MakeSingleTable;

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(ValueType::kInt64, Value(int64_t{3}).type());
  EXPECT_EQ(ValueType::kInt64, Value(3).type());
  EXPECT_EQ(ValueType::kFloat64, Value(3.0).type());
  EXPECT_EQ(ValueType::kString, Value("x").type());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(7, Value(int64_t{7}).AsInt64());
  EXPECT_DOUBLE_EQ(2.5, Value(2.5).AsFloat64());
  EXPECT_EQ("hi", Value("hi").AsString());
}

TEST(ValueTest, ToDoubleWidensInts) {
  EXPECT_DOUBLE_EQ(7.0, Value(int64_t{7}).ToDouble());
  EXPECT_DOUBLE_EQ(2.5, Value(2.5).ToDouble());
}

TEST(ValueTest, EqualityIsTypeSensitive) {
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_NE(Value(int64_t{3}), Value(3.0));  // int64 vs float64
  EXPECT_EQ(Value("a"), Value("a"));
  EXPECT_NE(Value("a"), Value("b"));
}

TEST(ValueTest, HashAgreesWithEquality) {
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(int64_t{5}).Hash());
  EXPECT_EQ(Value("key").Hash(), Value("key").Hash());
  EXPECT_NE(Value(int64_t{5}).Hash(), Value(int64_t{6}).Hash());
  EXPECT_NE(Value("key").Hash(), Value("kez").Hash());
}

TEST(ValueTest, KeyEqualsPromotesAcrossNumericTypes) {
  EXPECT_TRUE(Value(int64_t{5}).KeyEquals(Value(5.0)));
  EXPECT_TRUE(Value(5.0).KeyEquals(Value(int64_t{5})));
  EXPECT_FALSE(Value(int64_t{5}).KeyEquals(Value(5.5)));
  EXPECT_FALSE(Value(int64_t{5}).KeyEquals(Value("5")));
  EXPECT_TRUE(Value("x").KeyEquals(Value("x")));
  // Beyond 2^53 a double cannot represent every integer; KeyEquals must not
  // conflate neighbors that merely round to the same double.
  const int64_t big = (int64_t{1} << 53) + 1;
  EXPECT_FALSE(Value(big).KeyEquals(Value(static_cast<double>(big))));
}

TEST(ValueTest, HashConsistentWithKeyEquals) {
  // Integral float64 hashes like the int64 it promotes from, so
  // mixed-type join keys that compare equal also hash equal.
  EXPECT_EQ(Value(int64_t{5}).Hash(), Value(5.0).Hash());
  EXPECT_EQ(Value(int64_t{-3}).Hash(), Value(-3.0).Hash());
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());  // -0.0 == 0.0
  EXPECT_NE(Value(5.5).Hash(), Value(int64_t{5}).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ("42", Value(int64_t{42}).ToString());
  EXPECT_EQ("abc", Value("abc").ToString());
}

TEST(SchemaTest, IndexOfFindsColumns) {
  Schema s({{"a", ValueType::kInt64}, {"b", ValueType::kFloat64}});
  EXPECT_EQ(2, s.num_columns());
  EXPECT_EQ(0, s.IndexOf("a").ValueOrDie());
  EXPECT_EQ(1, s.IndexOf("b").ValueOrDie());
  EXPECT_TRUE(s.Contains("a"));
  EXPECT_FALSE(s.Contains("c"));
}

TEST(SchemaTest, IndexOfMissingIsKeyError) {
  Schema s({{"a", ValueType::kInt64}});
  EXPECT_STATUS_CODE(kKeyError, s.IndexOf("zzz").status());
}

TEST(SchemaTest, ConcatDisjoint) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"y", ValueType::kFloat64}});
  ASSERT_OK_AND_ASSIGN(Schema ab, Schema::Concat(a, b));
  EXPECT_EQ(2, ab.num_columns());
  EXPECT_EQ("x", ab.column(0).name);
  EXPECT_EQ("y", ab.column(1).name);
}

TEST(SchemaTest, ConcatRejectsDuplicates) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"x", ValueType::kFloat64}});
  EXPECT_STATUS_CODE(kInvalidArgument, Schema::Concat(a, b).status());
}

TEST(SchemaTest, Equality) {
  Schema a({{"x", ValueType::kInt64}});
  Schema b({{"x", ValueType::kInt64}});
  Schema c({{"x", ValueType::kFloat64}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(RelationTest, MakeBaseAssignsRowIdLineage) {
  Relation r = MakeSingleTable(3);
  EXPECT_EQ(3, r.num_rows());
  ASSERT_EQ(1u, r.lineage_schema().size());
  EXPECT_EQ("R", r.lineage_schema()[0]);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(static_cast<uint64_t>(i), r.lineage(i)[0]);
  }
}

TEST(RelationTest, MakeBaseWithIds) {
  std::vector<Row> rows = {Row{Value(1.0)}, Row{Value(2.0)}};
  Relation r = Relation::MakeBaseWithIds(
      "B", Schema({{"v", ValueType::kFloat64}}), std::move(rows), {77, 99});
  EXPECT_EQ(77u, r.lineage(0)[0]);
  EXPECT_EQ(99u, r.lineage(1)[0]);
}

TEST(RelationTest, LineageDisjoint) {
  Relation a = MakeSingleTable(2, "A");
  Relation b = MakeSingleTable(2, "B");
  Relation a2 = MakeSingleTable(2, "A");
  EXPECT_TRUE(Relation::LineageDisjoint(a, b));
  EXPECT_FALSE(Relation::LineageDisjoint(a, a2));
}

TEST(RelationTest, AppendRowEnforcesAritiesAndTypes) {
  Relation r(Schema({{"v", ValueType::kFloat64}}), {"R"});
  EXPECT_DEATH(r.AppendRow(Row{Value(1.0), Value(2.0)}, LineageRow{0}),
               "row arity");
  EXPECT_DEATH(r.AppendRow(Row{Value(1.0)}, LineageRow{0, 1}),
               "lineage arity");
  EXPECT_DEATH(r.AppendRow(Row{Value(int64_t{1})}, LineageRow{0}),
               "value type");
  EXPECT_DEATH(r.AppendRow(Row{Value("1.0")}, LineageRow{0}), "value type");
}

TEST(RelationTest, AppendRowCheckedSurfacesStatus) {
  Relation r(Schema({{"v", ValueType::kFloat64}}), {"R"});
  EXPECT_STATUS_CODE(kInvalidArgument,
                     r.AppendRowChecked(Row{Value(1.0), Value(2.0)},
                                        LineageRow{0}));
  EXPECT_STATUS_CODE(kInvalidArgument,
                     r.AppendRowChecked(Row{Value(1.0)}, LineageRow{0, 1}));
  ASSERT_OK(r.AppendRowChecked(Row{Value(1.0)}, LineageRow{7}));
  EXPECT_EQ(1, r.num_rows());
}

TEST(RelationTest, AppendRowCheckedRejectsMistypedValues) {
  Relation r(Schema({{"k", ValueType::kInt64}, {"s", ValueType::kString}}),
             {"R"});
  // The columnar engines could not hold these; neither does the relation.
  EXPECT_STATUS_CODE(kTypeError,
                     r.AppendRowChecked(Row{Value(1.5), Value("a")},
                                        LineageRow{0}));
  EXPECT_STATUS_CODE(kTypeError,
                     r.AppendRowChecked(Row{Value(int64_t{1}), Value(2.0)},
                                        LineageRow{0}));
  EXPECT_STATUS_CODE(kTypeError,
                     r.AppendRowChecked(Row{Value("5a"), Value("a")},
                                        LineageRow{0}));
  EXPECT_EQ(0, r.num_rows());  // a rejected row appends nothing
  ASSERT_OK(r.AppendRowChecked(Row{Value(int64_t{5}), Value("a")},
                               LineageRow{0}));
  EXPECT_EQ(1, r.num_rows());
  EXPECT_EQ(Value(int64_t{5}), r.row(0)[0]);
}

TEST(RelationTest, ToStringShowsRowsAndLineage) {
  Relation r = MakeSingleTable(2);
  const std::string s = r.ToString();
  EXPECT_NE(std::string::npos, s.find("rows=2"));
  EXPECT_NE(std::string::npos, s.find("<0>"));
  EXPECT_NE(std::string::npos, s.find("<1>"));
}

}  // namespace
}  // namespace gus
