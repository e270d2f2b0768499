// The storage layer (src/store/): segment file round trips, fingerprint
// parity with the in-memory catalog, zone-map boundary semantics, the
// pinned-segment LRU cache, loud checksum failures, CSV ingestion, and —
// the load-bearing property — pruned vs unpruned bit-identical estimates
// across engines, thread counts, and shard counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "algebra/translate.h"
#include "data/tpch_gen.h"
#include "dist/coordinator.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/executor.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "rel/expression.h"
#include "store/csv_import.h"
#include "store/pruner.h"
#include "store/segment_cache.h"
#include "store/segment_catalog.h"
#include "store/segment_store.h"
#include "test_util.h"

namespace gus {
namespace {

TpchConfig SmallTpch() {
  TpchConfig config;
  config.num_orders = 300;
  config.num_customers = 40;
  config.num_parts = 50;
  config.seed = 0xC0FFEE;
  return config;
}

// ---------------------------------------------------------------------------
// Round trip + fingerprint parity

TEST(SegmentStoreTest, RoundTripAndFingerprintParity) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = testing::UniqueTempDir("store_roundtrip");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/64));

  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
  ColumnarCatalog mem_catalog(&catalog);
  for (const auto& [name, rel] : catalog) {
    SCOPED_TRACE(name);
    ASSERT_OK_AND_ASSIGN(const StoredRelation* stored,
                         stored_catalog->Stored(name));
    ASSERT_NE(stored, nullptr);
    EXPECT_EQ(rel.num_rows(), stored->num_rows());
    EXPECT_EQ(64, stored->segment_rows());
    EXPECT_EQ((rel.num_rows() + 63) / 64, stored->num_segments());

    // Fingerprint parity: the header value, a fresh streaming recompute,
    // and the in-memory catalog all agree.
    ASSERT_OK_AND_ASSIGN(const uint64_t mem_fp, mem_catalog.Fingerprint(name));
    ASSERT_OK_AND_ASSIGN(const uint64_t stored_fp,
                         stored_catalog->Fingerprint(name));
    ASSERT_OK_AND_ASSIGN(const uint64_t recomputed,
                         stored->ComputeContentFingerprint());
    EXPECT_EQ(mem_fp, stored_fp);
    EXPECT_EQ(mem_fp, recomputed);

    // Materialization reproduces the rows exactly.
    ASSERT_OK_AND_ASSIGN(const ColumnarRelation* materialized,
                         stored_catalog->Get(name));
    const Relation back(*materialized);
    ASSERT_EQ(rel.num_rows(), back.num_rows());
    for (int64_t i = 0; i < rel.num_rows(); ++i) {
      ASSERT_EQ(rel.lineage(i), back.lineage(i)) << "row " << i;
      const Row& a = rel.row(i);
      const Row& b = back.row(i);
      ASSERT_EQ(a.size(), b.size());
      for (size_t c = 0; c < a.size(); ++c) {
        ASSERT_TRUE(a[c] == b[c]) << "row " << i << " col " << c;
      }
    }
  }
}

TEST(SegmentStoreTest, RowCatalogMaterializationMatches) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = testing::UniqueTempDir("store_rowcat");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/128));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
  ASSERT_OK_AND_ASSIGN(Catalog rows, stored_catalog->MaterializeRowCatalog());
  ASSERT_EQ(catalog.size(), rows.size());
  for (const auto& [name, rel] : catalog) {
    ASSERT_EQ(rel.num_rows(), rows.at(name).num_rows()) << name;
  }
}

// ---------------------------------------------------------------------------
// Zone-map boundary semantics

TEST(ZoneMapTest, SingleRowSegmentsAndMinEqMax) {
  // 5 rows, segment_rows=1: every segment is a single row, every numeric
  // zone has min == max.
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(Row{Value(int64_t{10 * i}), Value(0.5 * i)});
  }
  Relation rel = Relation::MakeBase(
      "one",
      Schema({{"k", ValueType::kInt64}, {"x", ValueType::kFloat64}}),
      std::move(rows));
  const ColumnarRelation& crel = *rel.Columnar();
  const std::string dir = testing::UniqueTempDir("store_single");
  std::filesystem::create_directories(dir);
  ASSERT_OK_AND_ASSIGN(
      auto summary,
      WriteRelationSegments("one", crel, dir + "/one.gseg",
                            /*segment_rows=*/1));
  EXPECT_EQ(5, summary.num_segments);

  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(dir + "/one.gseg"));
  for (int64_t s = 0; s < 5; ++s) {
    const ColumnZone& zk = stored->segment(s).zones[0];
    ASSERT_EQ(ColumnZone::kRanged, zk.kind);
    EXPECT_EQ(10 * s, zk.min_i64);
    EXPECT_EQ(zk.min_i64, zk.max_i64);  // min == max by construction

    // kEq prunes exactly the non-matching single-row segments.
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kEq,
                             Value(int64_t{10 * s})));
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kEq,
                              Value(int64_t{10 * s + 1})));
    // kNe on a min==max zone excludes iff the constant equals the value.
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kNe,
                              Value(int64_t{10 * s})));
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kNe,
                             Value(int64_t{10 * s + 1})));
    // Inclusive boundary ops at the exact edge.
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kLe,
                             Value(int64_t{10 * s})));
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kLt,
                              Value(int64_t{10 * s})));
    EXPECT_TRUE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kGe,
                             Value(int64_t{10 * s})));
    EXPECT_FALSE(ZoneMayMatch(zk, ValueType::kInt64, ExprOp::kGt,
                              Value(int64_t{10 * s})));
  }
}

TEST(ZoneMapTest, EmptyUnknownAndAllNullZones) {
  // kEmpty can never match; kUnknown always may.
  ColumnZone empty;
  empty.kind = ColumnZone::kEmpty;
  ColumnZone unknown;
  unknown.kind = ColumnZone::kUnknown;
  for (const ExprOp op : {ExprOp::kEq, ExprOp::kNe, ExprOp::kLt, ExprOp::kLe,
                          ExprOp::kGt, ExprOp::kGe}) {
    EXPECT_FALSE(ZoneMayMatch(empty, ValueType::kInt64, op, Value(int64_t{0})));
    EXPECT_TRUE(
        ZoneMayMatch(unknown, ValueType::kFloat64, op, Value(1.5)));
  }
}

TEST(ZoneMapTest, NaNPagesAreUnknownAndNeverPruned) {
  // A float page containing NaN must get a kUnknown zone: NaN breaks the
  // min/max ordering, so no bound is trustworthy.
  std::vector<Row> rows;
  rows.push_back(Row{Value(std::nan(""))});
  rows.push_back(Row{Value(1.0)});
  Relation rel = Relation::MakeBase(
      "nanrel", Schema({{"x", ValueType::kFloat64}}), std::move(rows));
  const ColumnarRelation& crel = *rel.Columnar();
  const std::string dir = testing::UniqueTempDir("store_nan");
  std::filesystem::create_directories(dir);
  ASSERT_OK(WriteRelationSegments("nanrel", crel, dir + "/nanrel.gseg",
                                  /*segment_rows=*/8)
                .status());
  ASSERT_OK_AND_ASSIGN(auto stored,
                       StoredRelation::Open(dir + "/nanrel.gseg"));
  const ColumnZone& zone = stored->segment(0).zones[0];
  EXPECT_EQ(ColumnZone::kUnknown, zone.kind);
  EXPECT_TRUE(ZoneMayMatch(zone, ValueType::kFloat64, ExprOp::kLt,
                           Value(-1e300)));
}

TEST(ZoneMapTest, StringZonesAreLexicographic) {
  std::vector<Row> rows;
  for (const char* s : {"delta", "alpha", "charlie"}) {
    rows.push_back(Row{Value(s)});
  }
  Relation rel = Relation::MakeBase(
      "strs", Schema({{"s", ValueType::kString}}), std::move(rows));
  const ColumnarRelation& crel = *rel.Columnar();
  const std::string dir = testing::UniqueTempDir("store_strz");
  std::filesystem::create_directories(dir);
  ASSERT_OK(WriteRelationSegments("strs", crel, dir + "/strs.gseg",
                                  /*segment_rows=*/8)
                .status());
  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(dir + "/strs.gseg"));
  const ColumnZone& zone = stored->segment(0).zones[0];
  ASSERT_EQ(ColumnZone::kRanged, zone.kind);
  EXPECT_EQ("alpha", zone.min_str);
  EXPECT_EQ("delta", zone.max_str);
  EXPECT_TRUE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kEq, Value("bravo")));
  EXPECT_FALSE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kEq, Value("zulu")));
  EXPECT_FALSE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kLt, Value("alpha")));
  EXPECT_TRUE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kLe, Value("alpha")));
  EXPECT_FALSE(
      ZoneMayMatch(zone, ValueType::kString, ExprOp::kGt, Value("delta")));
}

// ---------------------------------------------------------------------------
// Pinned-segment cache

TEST(SegmentCacheTest, LruEvictionAndPinsSurvive) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = testing::UniqueTempDir("store_cache");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/32));
  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(dir + "/l.gseg"));
  ASSERT_GE(stored->num_segments(), 8);

  // Budget of ~two segments: touching them all must evict.
  SegmentCacheOptions options;
  options.max_bytes = 2 * stored->segment(0).page_bytes + 1;
  SegmentCache cache(options);

  ASSERT_OK_AND_ASSIGN(auto pin0, cache.Fault(*stored, 0));
  const int64_t pinned_rows = pin0->num_rows();
  for (int64_t s = 0; s < stored->num_segments(); ++s) {
    ASSERT_OK(cache.Fault(*stored, s).status());
  }
  SegmentCacheCounters c = cache.counters();
  // One decode per segment, plus one hit: the pinned segment 0 was still
  // resident when the sweep touched it.
  EXPECT_EQ(stored->num_segments(), c.faults);
  EXPECT_EQ(1, c.hits);
  EXPECT_GT(c.evictions, 0);
  EXPECT_LE(c.resident_bytes, options.max_bytes);
  EXPECT_GT(c.bytes_read, 0);

  // Re-faulting a hot segment is a hit, a cold (evicted) one a miss.
  const int64_t last = stored->num_segments() - 1;
  const int64_t hits_before = cache.counters().hits;
  ASSERT_OK(cache.Fault(*stored, last).status());
  EXPECT_EQ(hits_before + 1, cache.counters().hits);

  // The pin taken before the eviction storm still reads good data, even
  // after a full Clear.
  cache.Clear();
  EXPECT_EQ(0, cache.counters().resident_bytes);
  EXPECT_EQ(pinned_rows, pin0->num_rows());
}

TEST(SegmentCacheTest, ChecksumCorruptionFailsLoudly) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const std::string dir = testing::UniqueTempDir("store_corrupt");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/64));
  const std::string path = dir + "/o.gseg";

  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(path));
  const auto [page_off, page_len] = stored->segment(0).column_pages[0];
  ASSERT_GT(page_len, 0u);
  stored.reset();  // unmap before mutating the file

  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(page_off));
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x5A;
    f.seekp(static_cast<std::streamoff>(page_off));
    f.write(&byte, 1);
  }

  ASSERT_OK_AND_ASSIGN(auto reopened, StoredRelation::Open(path));
  EXPECT_FALSE(reopened->DecodeSegment(0).ok());
  SegmentCache cache;
  EXPECT_FALSE(cache.Fault(*reopened, 0).ok());
}

/// Writes a 40-row relation (int64, float64 and string columns) as
/// 13-row segments: every page length (104 or 52 bytes) leaves a tail
/// after the checksum's 32-byte lane blocks.
std::string WriteMixedTypeSegments(const std::string& tag) {
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back(Row{Value(int64_t{1000 + i}), Value(0.25 * i),
                       Value(std::string(1, static_cast<char>('a' + i % 7)))});
  }
  Relation rel = Relation::MakeBase(
      "mixed",
      Schema({{"k", ValueType::kInt64},
              {"x", ValueType::kFloat64},
              {"s", ValueType::kString}}),
      std::move(rows));
  const ColumnarRelation& crel = *rel.Columnar();
  const std::string dir = testing::UniqueTempDir("store_" + tag);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/mixed.gseg";
  const Status st =
      WriteRelationSegments("mixed", crel, path, /*segment_rows=*/13)
          .status();
  EXPECT_TRUE(st.ok()) << st.ToString();
  return path;
}

/// XORs `mask` into the byte at file offset `at`.
void FlipFileByte(const std::string& path, uint64_t at, char mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(at));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= mask;
  f.seekp(static_cast<std::streamoff>(at));
  f.write(&byte, 1);
}

TEST(SegmentCacheTest, BitFlipInAnyPageFailsItsSegmentOnly) {
  const std::string clean = WriteMixedTypeSegments("bitflip");
  ASSERT_OK_AND_ASSIGN(auto stored, StoredRelation::Open(clean));
  ASSERT_EQ(4, stored->num_segments());
  constexpr int64_t kSeg = 1;
  const SegmentInfo& seg = stored->segment(kSeg);
  ASSERT_EQ(104u, seg.column_pages[0].second);  // int64
  ASSERT_EQ(104u, seg.column_pages[1].second);  // float64
  ASSERT_EQ(52u, seg.column_pages[2].second);   // string codes
  ASSERT_EQ(104u, seg.lineage_page.second);
  const struct {
    const char* what;
    uint64_t at;
    char mask;
  } flips[] = {
      {"int64 page", seg.column_pages[0].first + 5, 0x10},
      {"float64 page", seg.column_pages[1].first + 40, 0x01},
      {"string-code page", seg.column_pages[2].first + 17, 0x04},
      {"lineage page", seg.lineage_page.first + 70, 0x40},
      // Last bytes of pages whose length is not a multiple of 32: the
      // int64 page ends in a leftover whole word, the string page in a
      // zero-padded tail.
      {"int64 page, last byte",
       seg.column_pages[0].first + seg.column_pages[0].second - 1, 0x01},
      {"string-code page, last byte",
       seg.column_pages[2].first + seg.column_pages[2].second - 1, 0x01},
  };
  stored.reset();
  for (const auto& flip : flips) {
    SCOPED_TRACE(flip.what);
    const std::string path = clean + ".flipped";
    std::filesystem::copy_file(
        clean, path, std::filesystem::copy_options::overwrite_existing);
    FlipFileByte(path, flip.at, flip.mask);
    ASSERT_OK_AND_ASSIGN(auto damaged, StoredRelation::Open(path));
    const Status st = damaged->DecodeSegment(kSeg).status();
    EXPECT_STATUS_CODE(kInternal, st);
    EXPECT_NE(std::string::npos, st.message().find("failed its checksum"))
        << st.ToString();
    for (int64_t s = 0; s < damaged->num_segments(); ++s) {
      if (s != kSeg) ASSERT_OK(damaged->DecodeSegment(s).status());
    }
  }
}

TEST(SegmentStoreTest, VersionOneFileFailsToOpen) {
  const std::string path = WriteMixedTypeSegments("v1");
  {
    // The header's u32 version field follows the u32 magic.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const char v1[4] = {1, 0, 0, 0};
    f.seekp(4);
    f.write(v1, sizeof(v1));
  }
  const Status st = StoredRelation::Open(path).status();
  EXPECT_STATUS_CODE(kInvalidArgument, st);
  EXPECT_NE(std::string::npos, st.message().find("unsupported version 1"))
      << st.ToString();
}

// ---------------------------------------------------------------------------
// CSV ingestion

TEST(CsvImportTest, InfersTypesAndHandlesQuoting) {
  const std::string text =
      "id,price,name\n"
      "1,1.5,widget\n"
      "2,2,\"gad,get\"\n"
      "3,-0.25,\"say \"\"hi\"\"\"\n";
  ASSERT_OK_AND_ASSIGN(Relation rel, ImportCsvText("t", text));
  ASSERT_EQ(3, rel.num_rows());
  ASSERT_EQ(3, rel.schema().num_columns());
  EXPECT_EQ(ValueType::kInt64, rel.schema().column(0).type);
  EXPECT_EQ(ValueType::kFloat64, rel.schema().column(1).type);
  EXPECT_EQ(ValueType::kString, rel.schema().column(2).type);
  EXPECT_EQ("gad,get", rel.row(1)[2].AsString());
  EXPECT_EQ("say \"hi\"", rel.row(2)[2].AsString());
  // Base lineage: id = row position.
  EXPECT_EQ(LineageRow{2}, rel.lineage(2));
}

TEST(CsvImportTest, PinnedTypesRejectBadFields) {
  CsvImportOptions options;
  options.column_types = {"int64"};
  EXPECT_FALSE(ImportCsvText("t", "k\n1\nx\n", options).ok());
  // A missing trailing newline is fine.
  ASSERT_OK_AND_ASSIGN(Relation ok_rel, ImportCsvText("t", "k\n1\n2\n3"));
  EXPECT_EQ(3, ok_rel.num_rows());
}

TEST(CsvImportTest, CsvToSegmentsRoundTrip) {
  const std::string text =
      "k,v\n"
      "0,0.5\n"
      "1,1.5\n"
      "2,2.5\n"
      "3,3.5\n";
  ASSERT_OK_AND_ASSIGN(Relation rel, ImportCsvText("r", text));
  Catalog catalog;
  catalog["r"] = rel;
  const std::string dir = testing::UniqueTempDir("store_csvseg");
  ASSERT_OK(WriteCatalogSegments(catalog, dir, /*segment_rows=*/2));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
  ColumnarCatalog mem_catalog(&catalog);
  ASSERT_OK_AND_ASSIGN(const uint64_t a, mem_catalog.Fingerprint("r"));
  ASSERT_OK_AND_ASSIGN(const uint64_t b, stored_catalog->Fingerprint("r"));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// The tentpole property: pruned == unpruned == in-memory, bit for bit

struct ParityCase {
  std::string label;
  PlanPtr plan;
};

std::vector<ParityCase> ParityCases(int64_t lineitem_rows) {
  // Predicates over l_orderkey exploit the generator's sorted order (rows
  // are emitted order-by-order), so zone maps genuinely prune; the WOR /
  // block / lineage samplers exercise keep-set pruning.
  std::vector<ParityCase> cases;
  cases.push_back(
      {"select_wor",
       PlanNode::SelectNode(
           Lt(Col("l_orderkey"), Lit(int64_t{40})),
           PlanNode::Sample(
               SamplingSpec::WithoutReplacement(25, lineitem_rows),
               PlanNode::Scan("l")))});
  cases.push_back(
      {"bernoulli_select",
       PlanNode::SelectNode(
           Lt(Col("l_orderkey"), Lit(int64_t{30})),
           PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                            PlanNode::Scan("l")))});
  cases.push_back(
      {"block_sample",
       PlanNode::SelectNode(
           Ge(Col("l_orderkey"), Lit(int64_t{250})),
           PlanNode::Sample(SamplingSpec::BlockBernoulli(0.4, 16),
                            PlanNode::Scan("l")))});
  // 48 does not divide the 64-row segments the parity test writes:
  // morsels align to lcm = 192 rows, so kept blocks straddle segment
  // boundaries inside a morsel and gather from two segments.
  cases.push_back(
      {"block_straddles_segments",
       PlanNode::Sample(SamplingSpec::BlockBernoulli(0.4, 48),
                        PlanNode::Scan("l"))});
  cases.push_back(
      {"join_selective",
       PlanNode::Join(
           PlanNode::SelectNode(
               Lt(Col("l_orderkey"), Lit(int64_t{25})),
               PlanNode::Sample(
                   SamplingSpec::WithoutReplacement(20, lineitem_rows),
                   PlanNode::Scan("l"))),
           PlanNode::Scan("o"), "l_orderkey", "o_orderkey")});
  return cases;
}

void ExpectReportsBitIdentical(const SboxReport& a, const SboxReport& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.interval.lo, b.interval.lo);
  EXPECT_EQ(a.interval.hi, b.interval.hi);
  EXPECT_EQ(a.sample_rows, b.sample_rows);
  EXPECT_EQ(a.variance_rows, b.variance_rows);
}

TEST(PruningParityTest, PrunedRunsAreBitIdenticalAcrossEnginesAndShards) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const int64_t lineitem_rows = catalog.at("l").num_rows();
  const std::string dir = testing::UniqueTempDir("store_parity");
  constexpr int64_t kSegmentRows = 64;
  ASSERT_OK(WriteCatalogSegments(catalog, dir, kSegmentRows));

  for (const uint64_t seed : {7u, 1234u}) {
    for (const ParityCase& pc : ParityCases(lineitem_rows)) {
      SCOPED_TRACE(pc.label + " seed=" + std::to_string(seed));
      ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(pc.plan));
      const ExprPtr f = Col("l_quantity");
      SboxOptions sbox;

      ExecOptions exec;
      exec.engine = ExecEngine::kMorselParallel;
      // Explicit, segment-aligned morsels: geometry identical with and
      // without the store, so even plain streaming Bernoulli agrees.
      exec.morsel_rows = 2 * kSegmentRows;

      // In-memory baseline.
      ColumnarCatalog mem_catalog(&catalog);
      Rng rng_mem(seed);
      ASSERT_OK_AND_ASSIGN(
          SboxReport baseline,
          EstimatePlanParallel(pc.plan, &mem_catalog, &rng_mem, f, soa.top,
                               sbox, ExecMode::kSampled, exec));

      // The serial compiler over stored segments: batch_rows = 48 does
      // not divide segment_rows, so its scan views clip mid-segment.
      {
        constexpr int64_t kSerialBatchRows = 48;
        Rng rng_serial_mem(seed);
        ASSERT_OK_AND_ASSIGN(
            SboxReport serial_mem,
            EstimatePlanStreaming(pc.plan, &mem_catalog, &rng_serial_mem, f,
                                  soa.top, sbox, ExecMode::kSampled,
                                  kSerialBatchRows));
        ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
        Rng rng_serial_stored(seed);
        ASSERT_OK_AND_ASSIGN(
            SboxReport serial_stored,
            EstimatePlanStreaming(pc.plan, stored_catalog.get(),
                                  &rng_serial_stored, f, soa.top, sbox,
                                  ExecMode::kSampled, kSerialBatchRows));
        SCOPED_TRACE("serial streaming");
        ExpectReportsBitIdentical(serial_mem, serial_stored);
      }

      for (const int threads : {1, 4}) {
        for (const bool prune : {false, true}) {
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " prune=" + std::to_string(prune));
          ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
          ExecOptions stored_exec = exec;
          stored_exec.num_threads = threads;
          stored_exec.prune_segments = prune;
          ExecStats stats;
          stored_exec.stats = &stats;
          Rng rng(seed);
          ASSERT_OK_AND_ASSIGN(
              SboxReport report,
              EstimatePlanParallel(pc.plan, stored_catalog.get(), &rng, f,
                                   soa.top, sbox, ExecMode::kSampled,
                                   stored_exec));
          ExpectReportsBitIdentical(baseline, report);
          EXPECT_GT(stats.segments_total, 0);
          if (!prune) {
            EXPECT_EQ(0, stats.segments_skipped);
          }
        }
      }

      // Sharded over the stored catalog, pruning on: still bit-identical,
      // for every shard count.
      for (const int shards : {1, 2}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));
        ExecOptions shard_exec = exec;
        shard_exec.engine = ExecEngine::kSharded;
        ASSERT_OK_AND_ASSIGN(
            SboxReport report,
            ShardedSboxEstimateOverCatalog(pc.plan, stored_catalog.get(),
                                           seed, ExecMode::kSampled,
                                           shard_exec, shards, f, soa.top,
                                           sbox));
        // The sharded gather runs the same units with the same streams;
        // against the morsel baseline only the estimate-bearing fields
        // are comparable (and must match exactly).
        ExpectReportsBitIdentical(baseline, report);
      }
    }
  }
}

TEST(PruningParityTest, SelectiveQueryActuallySkipsSegments) {
  const TpchData data = GenerateTpch(SmallTpch());
  Catalog catalog = data.MakeCatalog();
  const int64_t lineitem_rows = catalog.at("l").num_rows();
  const std::string dir = testing::UniqueTempDir("store_skips");
  constexpr int64_t kSegmentRows = 64;
  ASSERT_OK(WriteCatalogSegments(catalog, dir, kSegmentRows));
  ASSERT_OK_AND_ASSIGN(auto stored_catalog, SegmentCatalog::Open(dir));

  // l_orderkey < 20 touches only the head of the sorted lineitem file.
  PlanPtr plan = PlanNode::SelectNode(
      Lt(Col("l_orderkey"), Lit(int64_t{20})),
      PlanNode::Sample(SamplingSpec::WithoutReplacement(10, lineitem_rows),
                       PlanNode::Scan("l")));
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  exec.morsel_rows = kSegmentRows;
  ExecStats stats;
  exec.stats = &stats;
  Rng rng(3);
  ASSERT_OK_AND_ASSIGN(
      SboxReport report,
      EstimatePlanParallel(plan, stored_catalog.get(), &rng, Col("l_quantity"),
                           soa.top, SboxOptions{}, ExecMode::kSampled, exec));
  (void)report;
  EXPECT_GT(stats.segments_skipped, stats.segments_total / 2)
      << "selective scan should skip most segments";
  // Cold cache + single relation: every segment is either skipped or
  // faulted exactly once.
  EXPECT_EQ(stats.segments_total,
            stats.segments_skipped + stats.segments_faulted);
  EXPECT_GT(stats.store_bytes_read, 0);
}

}  // namespace
}  // namespace gus
