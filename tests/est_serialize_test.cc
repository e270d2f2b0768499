// Round-trip and error-path tests for the external-tool serialization
// (text format) and the binary estimator-state wire format (est/wire.h,
// docs/WIRE_FORMAT.md): golden-buffer layout checks, property-style
// Merge(Deserialize(Serialize(...))) bit-parity against the in-process
// merge path, and loud failure on truncation, corruption, and version
// skew.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "algebra/translate.h"
#include "est/group_by.h"
#include "est/partial_gather.h"
#include "est/sbox.h"
#include "est/serialize.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "rel/column_batch.h"
#include "test_util.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/random.h"

namespace gus {
namespace {

SboxInput MakeSample() {
  GusParams gl =
      TranslateBaseSampling(SamplingSpec::Bernoulli(0.1), "l").ValueOrDie();
  GusParams go =
      TranslateBaseSampling(SamplingSpec::WithoutReplacement(10, 100), "o")
          .ValueOrDie();
  GusParams gus = GusJoin(gl, go).ValueOrDie();
  SampleView view;
  view.schema = gus.schema();
  view.lineage = {{1, 1, 2, 3}, {10, 11, 10, 12}};
  view.f = {0.5, 1.5, -2.0, 3.25};
  return SboxInput{std::move(gus), std::move(view)};
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  SboxInput input = MakeSample();
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, input.view));
  ASSERT_OK_AND_ASSIGN(SboxInput parsed, SboxInputFromString(text));
  EXPECT_TRUE(parsed.gus.schema() == input.gus.schema());
  EXPECT_DOUBLE_EQ(input.gus.a(), parsed.gus.a());
  for (SubsetMask m = 0; m < input.gus.schema().num_subsets(); ++m) {
    EXPECT_DOUBLE_EQ(input.gus.b(m), parsed.gus.b(m));
  }
  ASSERT_EQ(input.view.num_rows(), parsed.view.num_rows());
  for (int64_t i = 0; i < input.view.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(input.view.f[i], parsed.view.f[i]);
    for (size_t d = 0; d < input.view.lineage.size(); ++d) {
      EXPECT_EQ(input.view.lineage[d][i], parsed.view.lineage[d][i]);
    }
  }
}

TEST(SerializeTest, RoundTripGivesSameEstimate) {
  SboxInput input = MakeSample();
  ASSERT_OK_AND_ASSIGN(SboxReport direct,
                       SboxEstimate(input.gus, input.view));
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, input.view));
  ASSERT_OK_AND_ASSIGN(SboxInput parsed, SboxInputFromString(text));
  ASSERT_OK_AND_ASSIGN(SboxReport roundtrip,
                       SboxEstimate(parsed.gus, parsed.view));
  EXPECT_DOUBLE_EQ(direct.estimate, roundtrip.estimate);
  EXPECT_DOUBLE_EQ(direct.variance, roundtrip.variance);
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  SboxInput input = MakeSample();
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, input.view));
  const std::string commented = "# a comment\n\n" + text;
  ASSERT_OK(SboxInputFromString(commented).status());
}

TEST(SerializeTest, MissingMagicFails) {
  EXPECT_STATUS_CODE(kInvalidArgument,
                     SboxInputFromString("schema l o\n").status());
}

TEST(SerializeTest, TruncatedBTableFails) {
  SboxInput input = MakeSample();
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, input.view));
  // Chop the file in the middle of the b table.
  const size_t pos = text.find("b 2");
  ASSERT_NE(std::string::npos, pos);
  EXPECT_STATUS_CODE(kInvalidArgument,
                     SboxInputFromString(text.substr(0, pos)).status());
}

TEST(SerializeTest, TruncatedDataFails) {
  SboxInput input = MakeSample();
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, input.view));
  const size_t pos = text.rfind('\n', text.size() - 2);
  EXPECT_STATUS_CODE(kInvalidArgument,
                     SboxInputFromString(text.substr(0, pos + 1)).status());
}

TEST(SerializeTest, BadProbabilityFails) {
  SboxInput input = MakeSample();
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, input.view));
  const size_t pos = text.find("a 0.0");
  ASSERT_NE(std::string::npos, pos);
  std::string corrupted = text;
  corrupted.replace(pos, 7, "a 7.0\n#");
  EXPECT_STATUS_CODE(kInvalidArgument,
                     SboxInputFromString(corrupted).status());
}

TEST(SerializeTest, EmptyViewRoundTrips) {
  SboxInput input = MakeSample();
  SampleView empty;
  empty.schema = input.gus.schema();
  empty.lineage.assign(2, {});
  ASSERT_OK_AND_ASSIGN(std::string text,
                       SboxInputToString(input.gus, empty));
  ASSERT_OK_AND_ASSIGN(SboxInput parsed, SboxInputFromString(text));
  EXPECT_EQ(0, parsed.view.num_rows());
}

TEST(SerializeTest, SchemaMismatchRejectedOnWrite) {
  SboxInput input = MakeSample();
  SampleView wrong;
  wrong.schema = LineageSchema::Make({"x"}).ValueOrDie();
  wrong.lineage.assign(1, {});
  EXPECT_STATUS_CODE(kInvalidArgument,
                     SboxInputToString(input.gus, wrong).status());
}

// ---- Binary wire format ----------------------------------------------------

/// Single-lineage layout {f: float64} / {"R"} (the merge_test idiom).
LayoutPtr MakeWireLayout() {
  auto layout = std::make_shared<BatchLayout>();
  layout->schema = Schema({{"f", ValueType::kFloat64}});
  layout->lineage_schema = {"R"};
  return layout;
}

/// Rows [begin, end): f = (i % 97) / 4.0 (dyadic — sums are exact, so
/// bit-identity tests the logic, not floating-point luck), lineage id = i.
ColumnBatch MakeWireBatch(const LayoutPtr& layout, int64_t begin,
                          int64_t end) {
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

void ExpectWireReportsIdentical(const SboxReport& x, const SboxReport& y) {
  EXPECT_EQ(x.estimate, y.estimate);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.stddev, y.stddev);
  EXPECT_EQ(x.interval.lo, y.interval.lo);
  EXPECT_EQ(x.interval.hi, y.interval.hi);
  EXPECT_EQ(x.sample_rows, y.sample_rows);
  EXPECT_EQ(x.variance_rows, y.variance_rows);
  EXPECT_EQ(x.y_hat, y.y_hat);
}

/// Rewrites a (possibly patched) bundle's trailing checksum so only the
/// patched field — not the digest — trips the reader.
std::string FixBundleChecksum(std::string bundle) {
  const uint64_t sum = WireChecksum(
      std::string_view(bundle).substr(0, bundle.size() - 8));
  for (int i = 0; i < 8; ++i) {
    bundle[bundle.size() - 8 + i] =
        static_cast<char>((sum >> (8 * i)) & 0xFF);
  }
  return bundle;
}

TEST(WireTest, SampleViewRoundTripsBitExact) {
  SboxInput input = MakeSample();
  const std::string bytes = SampleViewToBytes(input.view);
  ASSERT_OK_AND_ASSIGN(SampleView parsed, SampleViewFromBytes(bytes));
  EXPECT_TRUE(parsed.schema == input.view.schema);
  EXPECT_EQ(input.view.f, parsed.f);
  EXPECT_EQ(input.view.lineage, parsed.lineage);
}

TEST(WireTest, EmptySampleViewRoundTrips) {
  SampleView empty;
  empty.schema = LineageSchema::Make({"l", "o"}).ValueOrDie();
  empty.lineage.assign(2, {});
  ASSERT_OK_AND_ASSIGN(SampleView parsed,
                       SampleViewFromBytes(SampleViewToBytes(empty)));
  EXPECT_EQ(0, parsed.num_rows());
  EXPECT_TRUE(parsed.schema == empty.schema);
}

TEST(WireTest, GoldenSampleViewBytesMatchSpec) {
  // The byte-for-byte layout documented in docs/WIRE_FORMAT.md: arity u32,
  // (u32 len + bytes) per relation name, row count u64, lineage columns,
  // then f as IEEE-754 bit patterns — all little-endian.
  SampleView view;
  view.schema = LineageSchema::Make({"l", "o"}).ValueOrDie();
  view.lineage = {{7}, {9}};
  view.f = {1.5};
  const std::string bytes = SampleViewToBytes(view);
  const uint8_t expected[] = {
      0x02, 0x00, 0x00, 0x00,              // arity = 2
      0x01, 0x00, 0x00, 0x00, 'l',         // "l"
      0x01, 0x00, 0x00, 0x00, 'o',         // "o"
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // rows = 1
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // lineage[l][0]
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // lineage[o][0]
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // f[0] = 1.5
  };
  ASSERT_EQ(sizeof(expected), bytes.size());
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(expected[i], static_cast<uint8_t>(bytes[i])) << "byte " << i;
  }
}

TEST(WireTest, GoldenBundleHeaderMatchesSpec) {
  WireBundleWriter bundle;
  bundle.AddSection(WireTag::kSampleView, std::string("abc"));
  const std::string bytes = bundle.Finish();
  // "GUSB" | version 3 | count 1 | tag "VIEW" | len 3 | "abc" | checksum.
  ASSERT_EQ(4 + 4 + 4 + 4 + 8 + 3 + 8, bytes.size());
  EXPECT_EQ('G', bytes[0]);
  EXPECT_EQ('U', bytes[1]);
  EXPECT_EQ('S', bytes[2]);
  EXPECT_EQ('B', bytes[3]);
  EXPECT_EQ(3, static_cast<uint8_t>(bytes[4]));  // version 3, LE
  EXPECT_EQ(1, static_cast<uint8_t>(bytes[8]));  // section count 1
  EXPECT_EQ('V', bytes[12]);                     // tag reads as ASCII
  EXPECT_EQ('I', bytes[13]);
  EXPECT_EQ('E', bytes[14]);
  EXPECT_EQ('W', bytes[15]);
  EXPECT_EQ(3, static_cast<uint8_t>(bytes[16]));  // payload length 3
  EXPECT_EQ("abc", bytes.substr(24, 3));
  // The trailing u64 is Checksum64 of everything before it.
  const uint64_t sum = Checksum64(bytes.data(), 27);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((sum >> (8 * i)) & 0xFF, static_cast<uint8_t>(bytes[27 + i]));
  }
  ASSERT_OK_AND_ASSIGN(std::vector<WireSectionView> sections,
                       ParseWireBundle(bytes));
  ASSERT_EQ(1u, sections.size());
  EXPECT_EQ(WireTag::kSampleView, sections[0].tag);
  EXPECT_EQ("abc", sections[0].payload);
}

TEST(WireTest, GoldenSurvivingRangesBytesMatchSpec) {
  // The wire v2.1 LIVE section, byte for byte as documented in
  // docs/WIRE_FORMAT.md: pivot string (u32 len + bytes), u32 total
  // shards, i64 total units, u32 range count, then per range
  // (u32 shard index, i64 unit begin, i64 unit end) — all little-endian.
  SurvivingRangesInfo info;
  info.pivot_relation = "l";
  info.total_shards = 4;
  info.total_units = 19;
  info.surviving = {{0, 0, 5}, {2, 10, 15}};
  const std::string bytes = SurvivingRangesToBytes(info);
  const uint8_t expected[] = {
      0x01, 0x00, 0x00, 0x00, 'l',                      // pivot "l"
      0x04, 0x00, 0x00, 0x00,                           // total_shards = 4
      0x13, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // total_units = 19
      0x02, 0x00, 0x00, 0x00,                           // 2 ranges
      0x00, 0x00, 0x00, 0x00,                           // shard 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // begin 0
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // end 5
      0x02, 0x00, 0x00, 0x00,                           // shard 2
      0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // begin 10
      0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // end 15
  };
  ASSERT_EQ(sizeof(expected), bytes.size());
  for (size_t i = 0; i < sizeof(expected); ++i) {
    EXPECT_EQ(expected[i], static_cast<uint8_t>(bytes[i])) << "byte " << i;
  }
  // Round trip back to the same struct.
  ASSERT_OK_AND_ASSIGN(SurvivingRangesInfo parsed,
                       SurvivingRangesFromBytes(bytes));
  EXPECT_EQ(info.pivot_relation, parsed.pivot_relation);
  EXPECT_EQ(info.total_shards, parsed.total_shards);
  EXPECT_EQ(info.total_units, parsed.total_units);
  ASSERT_EQ(info.surviving.size(), parsed.surviving.size());
  EXPECT_TRUE(info.surviving[0] == parsed.surviving[0]);
  EXPECT_TRUE(info.surviving[1] == parsed.surviving[1]);
}

TEST(WireTest, SurvivingRangesTruncationAndCorruptionFailLoudly) {
  SurvivingRangesInfo info;
  info.pivot_relation = "lineitem";
  info.total_shards = 8;
  info.total_units = 123;
  info.surviving = {{1, 10, 20}, {5, 60, 70}};
  const std::string bytes = SurvivingRangesToBytes(info);

  // Every truncation point fails loudly — never a partially-parsed struct.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = SurvivingRangesFromBytes(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
  // Trailing garbage is a format error too.
  EXPECT_FALSE(SurvivingRangesFromBytes(bytes + "x").ok());

  // A corrupt range count cannot make the reader over-allocate or walk
  // off the buffer: count bytes live right after the 17-byte prefix +
  // pivot string.
  std::string corrupt = bytes;
  const size_t count_at = 4 + info.pivot_relation.size() + 4 + 8;
  corrupt[count_at] = static_cast<char>(0xFF);
  corrupt[count_at + 1] = static_cast<char>(0xFF);
  EXPECT_FALSE(SurvivingRangesFromBytes(corrupt).ok());

  // Inside a bundle the container checksum catches payload damage before
  // the section decoder ever runs.
  WireBundleWriter bundle;
  bundle.AddSection(WireTag::kSurvivingRanges, bytes);
  std::string container = bundle.Finish();
  container[container.size() / 2] =
      static_cast<char>(container[container.size() / 2] ^ 0x20);
  auto parsed = ParseWireBundle(container);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(std::string::npos, parsed.status().ToString().find("checksum"))
      << parsed.status().ToString();
}

TEST(WireTest, SboxStateRoundTripMergeMatchesInProcess) {
  // The acceptance property: Merge(Deserialize(Serialize(a)),
  // Deserialize(Serialize(b))) must be bit-identical to the in-process
  // Merge(a, b) — with the Section 7 retained set engaged, across several
  // split points, including an empty shard.
  LayoutPtr layout = MakeWireLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  GusParams gus = MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  options.subsample->target_rows = 64;  // force interim pruning
  const int64_t n = 2000;

  for (const int64_t split : {0L, 1L, 512L, 1999L, 2000L}) {
    SCOPED_TRACE(split);
    ASSERT_OK_AND_ASSIGN(
        StreamingSboxEstimator a,
        StreamingSboxEstimator::Make(*layout, Col("f"), gus, options));
    ASSERT_OK_AND_ASSIGN(
        StreamingSboxEstimator b,
        StreamingSboxEstimator::Make(*layout, Col("f"), gus, options));
    ASSERT_OK(a.Consume(MakeWireBatch(layout, 0, split)));
    ASSERT_OK(b.Consume(MakeWireBatch(layout, split, n)));

    ASSERT_OK_AND_ASSIGN(
        StreamingSboxEstimator wire_a,
        StreamingSboxEstimator::DeserializeState(a.SerializeState()));
    ASSERT_OK_AND_ASSIGN(
        StreamingSboxEstimator wire_b,
        StreamingSboxEstimator::DeserializeState(b.SerializeState()));
    EXPECT_EQ(a.rows_seen(), wire_a.rows_seen());
    EXPECT_EQ(a.retained_rows(), wire_a.retained_rows());

    ASSERT_OK(a.Merge(std::move(b)));
    ASSERT_OK_AND_ASSIGN(SboxReport direct, a.Finish());
    ASSERT_OK(wire_a.Merge(std::move(wire_b)));
    ASSERT_OK_AND_ASSIGN(SboxReport viawire, wire_a.Finish());
    ExpectWireReportsIdentical(direct, viawire);
  }
}

TEST(WireTest, SboxStateRoundTripWithoutSubsample) {
  LayoutPtr layout = MakeWireLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  GusParams gus = MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator est,
      StreamingSboxEstimator::Make(*layout, Col("f"), gus, {}));
  ASSERT_OK(est.Consume(MakeWireBatch(layout, 0, 300)));
  ASSERT_OK_AND_ASSIGN(
      StreamingSboxEstimator wire,
      StreamingSboxEstimator::DeserializeState(est.SerializeState()));
  ASSERT_OK_AND_ASSIGN(SboxReport direct, est.Finish());
  ASSERT_OK_AND_ASSIGN(SboxReport viawire, wire.Finish());
  ExpectWireReportsIdentical(direct, viawire);
}

TEST(WireTest, ViewBuilderRoundTripMergeMatchesInProcess) {
  LayoutPtr layout = MakeWireLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(SampleViewBuilder a,
                       SampleViewBuilder::Make(*layout, Col("f"), schema));
  ASSERT_OK_AND_ASSIGN(SampleViewBuilder b,
                       SampleViewBuilder::Make(*layout, Col("f"), schema));
  ASSERT_OK(a.Consume(MakeWireBatch(layout, 0, 400)));
  ASSERT_OK(b.Consume(MakeWireBatch(layout, 400, 1000)));

  ASSERT_OK_AND_ASSIGN(
      SampleViewBuilder wire_a,
      SampleViewBuilder::DeserializeState(a.SerializeState()));
  ASSERT_OK_AND_ASSIGN(
      SampleViewBuilder wire_b,
      SampleViewBuilder::DeserializeState(b.SerializeState()));
  ASSERT_OK(a.Merge(std::move(b)));
  ASSERT_OK(wire_a.Merge(std::move(wire_b)));
  EXPECT_EQ(a.view().f, wire_a.view().f);
  EXPECT_EQ(a.view().lineage, wire_a.view().lineage);
}

TEST(WireTest, DeserializedStateIsMergeOnly) {
  LayoutPtr layout = MakeWireLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(SampleViewBuilder builder,
                       SampleViewBuilder::Make(*layout, Col("f"), schema));
  ASSERT_OK(builder.Consume(MakeWireBatch(layout, 0, 10)));
  ASSERT_OK_AND_ASSIGN(
      SampleViewBuilder wire,
      SampleViewBuilder::DeserializeState(builder.SerializeState()));
  // The bound aggregate expression does not travel; consuming more batches
  // through a deserialized builder must fail loudly, not crash.
  EXPECT_STATUS_CODE(kInvalidArgument,
                     wire.Consume(MakeWireBatch(layout, 10, 20)));
}

/// Builds a string-keyed relation {k: string, v: float64} named "R" with
/// the given (key, value) rows.
Relation MakeStringKeyRelation(
    const std::vector<std::pair<std::string, double>>& rows) {
  std::vector<Row> data;
  data.reserve(rows.size());
  for (const auto& [k, v] : rows) {
    data.push_back(Row{Value(k), Value(v)});
  }
  return Relation::MakeBase(
      "R", Schema({{"k", ValueType::kString}, {"v", ValueType::kFloat64}}),
      std::move(data));
}

TEST(WireTest, GroupedSumRoundTripWithCollidingDictionaries) {
  // Shard A's dictionary assigns {x=0, y=1}; shard B's assigns {y=0, z=1}:
  // code 0 names different strings in the two payloads. Decode must remap
  // codes to content so the cross-shard merge groups by string value, bit-
  // identically to the in-process merge of the original builders.
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  GusParams gus = MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  Relation rel_a = MakeStringKeyRelation(
      {{"x", 0.5}, {"y", 1.25}, {"x", 2.0}});
  Relation rel_b = MakeStringKeyRelation(
      {{"y", 0.75}, {"z", 3.5}, {"z", 0.25}});
  const ColumnarRelation& col_a = *rel_a.Columnar();
  const ColumnarRelation& col_b = *rel_b.Columnar();

  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder a,
      GroupedSumBuilder::Make(col_a.layout(), Col("v"), "k", schema));
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder b,
      GroupedSumBuilder::Make(col_b.layout(), Col("v"), "k", schema));
  ColumnBatch batch;
  col_a.EmitSlice(0, col_a.num_rows(), &batch);
  ASSERT_OK(a.Consume(batch));
  col_b.EmitSlice(0, col_b.num_rows(), &batch);
  ASSERT_OK(b.Consume(batch));

  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder wire_a,
      GroupedSumBuilder::DeserializeState(a.SerializeState()));
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder wire_b,
      GroupedSumBuilder::DeserializeState(b.SerializeState()));
  ASSERT_OK(a.Merge(std::move(b)));
  ASSERT_OK(wire_a.Merge(std::move(wire_b)));

  ASSERT_OK_AND_ASSIGN(auto direct, a.Finish(gus));
  ASSERT_OK_AND_ASSIGN(auto viawire, wire_a.Finish(gus));
  ASSERT_EQ(3u, direct.size());  // x, y, z
  ASSERT_EQ(direct.size(), viawire.size());
  for (size_t g = 0; g < direct.size(); ++g) {
    EXPECT_TRUE(direct[g].key == viawire[g].key);
    EXPECT_EQ(direct[g].estimate, viawire[g].estimate);
    EXPECT_EQ(direct[g].variance, viawire[g].variance);
    EXPECT_EQ(direct[g].interval.lo, viawire[g].interval.lo);
    EXPECT_EQ(direct[g].interval.hi, viawire[g].interval.hi);
    EXPECT_EQ(direct[g].sample_rows, viawire[g].sample_rows);
  }
}

TEST(WireTest, GroupedSumEmptyShardMerges) {
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  GusParams gus = MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  Relation rel = MakeStringKeyRelation({{"x", 0.5}, {"y", 1.25}});
  const ColumnarRelation& col = *rel.Columnar();
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder a,
      GroupedSumBuilder::Make(col.layout(), Col("v"), "k", schema));
  ColumnBatch batch;
  col.EmitSlice(0, col.num_rows(), &batch);
  ASSERT_OK(a.Consume(batch));
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder empty,
      GroupedSumBuilder::Make(col.layout(), Col("v"), "k", schema));

  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder wire_a,
      GroupedSumBuilder::DeserializeState(a.SerializeState()));
  ASSERT_OK_AND_ASSIGN(
      GroupedSumBuilder wire_empty,
      GroupedSumBuilder::DeserializeState(empty.SerializeState()));
  ASSERT_OK(wire_a.Merge(std::move(wire_empty)));
  ASSERT_OK_AND_ASSIGN(auto direct, a.Finish(gus));
  ASSERT_OK_AND_ASSIGN(auto viawire, wire_a.Finish(gus));
  ASSERT_EQ(direct.size(), viawire.size());
  for (size_t g = 0; g < direct.size(); ++g) {
    EXPECT_EQ(direct[g].estimate, viawire[g].estimate);
  }
}

TEST(WireTest, RngStateRoundTripResumesStream) {
  Rng rng(1234);
  for (int i = 0; i < 17; ++i) rng.Next();
  ASSERT_OK_AND_ASSIGN(Rng resumed, RngStateFromBytes(RngStateToBytes(rng)));
  EXPECT_EQ(rng.num_draws(), resumed.num_draws());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.Next(), resumed.Next());
  }
}

std::string MakeValidBundle() {
  SboxInput input = MakeSample();
  WireBundleWriter bundle;
  bundle.AddSection(WireTag::kSampleView, SampleViewToBytes(input.view));
  return bundle.Finish();
}

TEST(WireTest, UnknownVersionRejectedCleanly) {
  std::string bundle = MakeValidBundle();
  bundle[4] = 99;  // version field, little-endian low byte
  bundle = FixBundleChecksum(std::move(bundle));
  const Status st = ParseWireBundle(bundle).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("version"));
}

TEST(WireTest, VersionTwoBundleIsAVersionErrorNotCorruption) {
  // What a v2 writer emits: version 2 and a bytewise FNV-1a trailer. The
  // reader checks the version first, so the skew is named as such.
  std::string bundle = MakeValidBundle();
  bundle[4] = 2;
  const uint64_t fnv =
      HashBytes(kFnv1aOffset, bundle.data(), bundle.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bundle[bundle.size() - 8 + i] = static_cast<char>((fnv >> (8 * i)) & 0xFF);
  }
  const Status st = ParseWireBundle(bundle).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("version 2")) << st.ToString();
  EXPECT_EQ(std::string::npos, st.message().find("checksum")) << st.ToString();
}

TEST(WireTest, UnknownSectionTagRejectedCleanly) {
  std::string bundle = MakeValidBundle();
  bundle[12] = 0x3F;  // tag field: "VIEW" -> "?IEW"
  bundle = FixBundleChecksum(std::move(bundle));
  const Status st = ParseWireBundle(bundle).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("tag"));
}

TEST(WireTest, CorruptedByteRejectedByChecksum) {
  std::string bundle = MakeValidBundle();
  // Flip one payload byte without fixing the digest: the estimator state
  // would decode to plausible-but-wrong numbers, so the checksum must
  // catch it before any field is trusted.
  bundle[bundle.size() - 12] = static_cast<char>(
      static_cast<uint8_t>(bundle[bundle.size() - 12]) ^ 0xFF);
  const Status st = ParseWireBundle(bundle).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("checksum"));
}

TEST(WireTest, EveryTruncationFailsCleanly) {
  const std::string bundle = MakeValidBundle();
  for (size_t len = 0; len < bundle.size(); ++len) {
    EXPECT_FALSE(ParseWireBundle(std::string_view(bundle).substr(0, len)).ok())
        << "prefix length " << len;
  }
  // Same totality for a typed payload decoder on raw (unframed) bytes.
  LayoutPtr layout = MakeWireLayout();
  LineageSchema schema = LineageSchema::Make({"R"}).ValueOrDie();
  GusParams gus = MultiDimBernoulliGus(schema, {{"R", 0.5}}).ValueOrDie();
  SboxOptions options;
  options.subsample = SubsampleConfig{};
  StreamingSboxEstimator est =
      StreamingSboxEstimator::Make(*layout, Col("f"), gus, options)
          .ValueOrDie();
  ASSERT_OK(est.Consume(MakeWireBatch(layout, 0, 50)));
  const std::string payload = est.SerializeState();
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(StreamingSboxEstimator::DeserializeState(
                     std::string_view(payload).substr(0, len))
                     .ok())
        << "payload prefix length " << len;
  }
}

}  // namespace
}  // namespace gus
