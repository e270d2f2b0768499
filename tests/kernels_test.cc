// Hot-path kernel tests: the flat open-addressing JoinHashTable
// (duplicates, forced hash collisions, the loud-failure build check, empty
// builds), the geometric-skip Bernoulli kernel (span-partition
// invariance, Binomial(N, p) mean/variance, O(pN) draw count, identical
// keep-sets across engines) and the fixed-size WOR keep-set kernel
// (closed-form priorities, threshold filter and rescan against a
// brute-force oracle on every tier and thread count).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "kernels/sampling_kernels.h"
#include "kernels/simd/simd_dispatch.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "plan/parallel_executor.h"
#include "sampling/samplers.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace {

using ::gus::testing::MakeSingleTable;
using ::gus::testing::MakeTinyJoin;

std::vector<int64_t> Candidates(const JoinHashTable& table, uint64_t hash) {
  const JoinHashTable::Range r = table.Find(hash);
  return std::vector<int64_t>(r.begin, r.end);
}

TEST(JoinHashTableTest, EmptyBuild) {
  JoinHashTable table;
  ASSERT_OK(table.Build(nullptr, 0));
  EXPECT_EQ(0, table.num_build_rows());
  EXPECT_TRUE(table.Find(0).empty());
  EXPECT_TRUE(table.Find(0xdeadbeefULL).empty());
}

TEST(JoinHashTableTest, DuplicateKeysKeepInputOrder) {
  // Key pattern a b a c a b: candidate lists must preserve build input
  // order within each key (the property that pins join output order).
  const uint64_t a = HashInt64Key(1), b = HashInt64Key(2),
                 c = HashInt64Key(3);
  const std::vector<uint64_t> hashes = {a, b, a, c, a, b};
  JoinHashTable table;
  ASSERT_OK(table.Build(hashes.data(), 6));
  EXPECT_EQ(6, table.num_build_rows());
  EXPECT_EQ(3, table.num_distinct_hashes());
  EXPECT_EQ((std::vector<int64_t>{0, 2, 4}), Candidates(table, a));
  EXPECT_EQ((std::vector<int64_t>{1, 5}), Candidates(table, b));
  EXPECT_EQ((std::vector<int64_t>{3}), Candidates(table, c));
  EXPECT_TRUE(table.Find(HashInt64Key(4)).empty());
}

TEST(JoinHashTableTest, ManyKeysRoundTrip) {
  // Enough keys to force directory growth and probe runs.
  Rng rng(7);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 5000; ++i) {
    hashes.push_back(HashInt64Key(static_cast<int64_t>(rng.UniformInt(
        uint64_t{1500}))));
  }
  JoinHashTable table;
  ASSERT_OK(table.Build(hashes.data(), static_cast<int64_t>(hashes.size())));
  for (int64_t k = 0; k < 1500; ++k) {
    std::vector<int64_t> expect;
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (hashes[i] == HashInt64Key(k)) {
        expect.push_back(static_cast<int64_t>(i));
      }
    }
    EXPECT_EQ(expect, Candidates(table, HashInt64Key(k))) << "key " << k;
  }
}

TEST(JoinHashTableTest, HashCollisionMergesCandidatesWithoutEq) {
  // Without a key-equality callback the table is hash-only: two distinct
  // keys forced onto one hash share a candidate list (in input order), and
  // the caller's KeyEquals recheck is what keeps the join correct.
  const std::vector<uint64_t> hashes = {42, 42, 42};
  JoinHashTable table;
  ASSERT_OK(table.Build(hashes.data(), 3));
  EXPECT_EQ((std::vector<int64_t>{0, 1, 2}), Candidates(table, 42));
  EXPECT_EQ(1, table.num_distinct_hashes());
}

TEST(JoinHashTableTest, TrueKeyCollisionFailsLoudly) {
  // With the key-equality callback, a true 64-bit collision — equal
  // hashes, unequal keys — refuses to build, PR-2 group-by semantics.
  const std::vector<uint64_t> hashes = {42, 7, 42};
  const std::vector<int64_t> keys = {100, 200, 300};  // rows 0 and 2 collide
  JoinHashTable table;
  const Status st =
      table.Build(hashes.data(), 3,
                  [&keys](int64_t i, int64_t j) { return keys[i] == keys[j]; });
  EXPECT_STATUS_CODE(kInternal, st);
}

TEST(JoinHashTableTest, EqualKeysWithEqualHashesBuildFine) {
  const std::vector<uint64_t> hashes = {42, 7, 42, 42};
  const std::vector<int64_t> keys = {100, 200, 100, 100};
  JoinHashTable table;
  ASSERT_OK(table.Build(
      hashes.data(), 4,
      [&keys](int64_t i, int64_t j) { return keys[i] == keys[j]; }));
  EXPECT_EQ((std::vector<int64_t>{0, 2, 3}), Candidates(table, 42));
}

TEST(JoinHashTableTest, BuildFromColumnAndProbeBatch) {
  ColumnData col;
  col.type = ValueType::kInt64;
  col.i64 = {5, 9, 5, 11};
  JoinHashTable table;
  ASSERT_OK(table.BuildFrom(col, 4));
  std::vector<uint64_t> probe_hashes = {HashInt64Key(5), HashInt64Key(3),
                                        HashInt64Key(11)};
  std::vector<int64_t> probe_idx, build_idx;
  table.ProbeBatch(probe_hashes.data(), 3, &probe_idx, &build_idx);
  EXPECT_EQ((std::vector<int64_t>{0, 0, 2}), probe_idx);
  EXPECT_EQ((std::vector<int64_t>{0, 2, 3}), build_idx);
}

TEST(JoinHashTableTest, NanKeysAreNotCollisionsAndNeverMatch) {
  // Two NaNs share a bit pattern (same hash input), so they are NOT a
  // true collision — the build must succeed, and probe-side KeyEquals
  // keeps NaN from ever matching, in every engine.
  ColumnData col;
  col.type = ValueType::kFloat64;
  const double nan = std::nan("");
  col.f64 = {1.0, nan, nan, 2.0};
  JoinHashTable table;
  ASSERT_OK(table.BuildFrom(col, 4));

  std::vector<Row> left_rows = {Row{Value(nan), Value(1.0)},
                                Row{Value(3.0), Value(2.0)}};
  std::vector<Row> right_rows = {Row{Value(nan), Value(int64_t{1})},
                                 Row{Value(nan), Value(int64_t{2})},
                                 Row{Value(3.0), Value(int64_t{3})}};
  Catalog catalog;
  catalog.emplace("NL", Relation::MakeBase(
                            "NL",
                            Schema({{"k", ValueType::kFloat64},
                                    {"v", ValueType::kFloat64}}),
                            std::move(left_rows)));
  catalog.emplace("NR", Relation::MakeBase(
                            "NR",
                            Schema({{"j", ValueType::kFloat64},
                                    {"w", ValueType::kInt64}}),
                            std::move(right_rows)));
  PlanPtr plan =
      PlanNode::Join(PlanNode::Scan("NL"), PlanNode::Scan("NR"), "k", "j");
  Rng row_rng(1);
  ASSERT_OK_AND_ASSIGN(Relation row_out,
                       ExecutePlan(plan, catalog, &row_rng, ExecMode::kSampled));
  EXPECT_EQ(1, row_out.num_rows());  // only the 3.0 = 3.0 pair joins
  Rng col_rng(1);
  ASSERT_OK_AND_ASSIGN(Relation col_out,
                       testing::ExecuteColumnar(plan, catalog, &col_rng));
  EXPECT_EQ(1, col_out.num_rows());
}

// ---- Geometric-skip Bernoulli ---------------------------------------------

TEST(SkipBernoulliTest, SpanPartitionInvariance) {
  // Streaming the row range through spans of any size must reproduce the
  // one-shot keep-set AND the one-shot draw sequence (checked via draw
  // counts and a follow-up draw).
  const int64_t n = 10000;
  const double p = 0.05;
  for (const int64_t span : {1L, 7L, 64L, 2048L, 10000L}) {
    Rng one_shot_rng(99);
    std::vector<int64_t> one_shot;
    SkipBernoulliKeepIndices(n, p, &one_shot_rng, &one_shot);

    Rng span_rng(99);
    SkipBernoulliState state(p);
    std::vector<int64_t> streamed;
    for (int64_t base = 0; base < n; base += span) {
      const int64_t len = std::min(span, n - base);
      std::vector<int64_t> local;
      state.NextSpan(len, &span_rng, &local);
      for (int64_t off : local) streamed.push_back(base + off);
    }
    EXPECT_EQ(one_shot, streamed) << "span " << span;
    EXPECT_EQ(one_shot_rng.num_draws(), span_rng.num_draws());
    EXPECT_EQ(one_shot_rng.Next(), span_rng.Next());
  }
}

TEST(SkipBernoulliTest, DrawCountIsOrderKeptPlusOne) {
  const int64_t n = 50000;
  const double p = 0.01;
  Rng rng(5);
  std::vector<int64_t> keep;
  SkipBernoulliKeepIndices(n, p, &rng, &keep);
  // ~pN + 1 draws: kept + 1 skips, each one Uniform() = one raw draw.
  EXPECT_EQ(keep.size() + 1, rng.num_draws());
  EXPECT_LT(rng.num_draws(), static_cast<uint64_t>(n) / 5);  // >> 5x fewer
}

TEST(SkipBernoulliTest, EdgeProbabilitiesConsumeNoDraws) {
  Rng rng(6);
  std::vector<int64_t> none, all, empty;
  SkipBernoulliKeepIndices(1000, 0.0, &rng, &none);
  EXPECT_TRUE(none.empty());
  SkipBernoulliKeepIndices(1000, 1.0, &rng, &all);
  EXPECT_EQ(1000u, all.size());
  SkipBernoulliKeepIndices(0, 0.5, &rng, &empty);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, rng.num_draws());
}

TEST(SkipBernoulliTest, KeepCountsMatchBinomialMeanAndVariance) {
  // Keep-counts over trials must match Binomial(N, p): mean Np, variance
  // Np(1-p). 2000 trials put the sample mean within ~0.6 rows (3 sigma)
  // and the sample variance within ~10% of truth.
  const int64_t n = 2000;
  const double p = 0.1;
  Rng rng(1234);
  MeanVar counts;
  for (int t = 0; t < 2000; ++t) {
    std::vector<int64_t> keep;
    SkipBernoulliKeepIndices(n, p, &rng, &keep);
    counts.Add(static_cast<double>(keep.size()));
    // Kept indexes are strictly increasing and in range.
    for (size_t i = 0; i < keep.size(); ++i) {
      ASSERT_GE(keep[i], i == 0 ? 0 : keep[i - 1] + 1);
      ASSERT_LT(keep[i], n);
    }
  }
  const double mean = n * p;                // 200
  const double var = n * p * (1.0 - p);     // 180
  EXPECT_NEAR(mean, counts.mean(), 3.0 * std::sqrt(var / 2000.0));
  EXPECT_NEAR(var, counts.variance_sample(), 0.1 * var);
}

TEST(SkipBernoulliTest, PerRowInclusionIsUniform) {
  // No positional bias: every row index is kept with frequency ~p.
  const int64_t n = 200;
  const double p = 0.3;
  Rng rng(777);
  std::vector<int> hits(n, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::vector<int64_t> keep;
    SkipBernoulliKeepIndices(n, p, &rng, &keep);
    for (int64_t i : keep) ++hits[i];
  }
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_NEAR(p, static_cast<double>(hits[i]) / trials, 0.015)
        << "row " << i;
  }
}

// ---- Keep-set parity across engines ---------------------------------------

TEST(KernelParityTest, RowAndColumnarEnginesDrawIdenticalKeepSets) {
  Catalog catalog = MakeTinyJoin(40, 5).MakeCatalog();  // 200 fact rows
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.2),
                                  PlanNode::Scan("F"));
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng row_rng(seed), col_rng(seed);
    ASSERT_OK_AND_ASSIGN(
        Relation row, ExecutePlan(plan, catalog, &row_rng,
                                  ExecMode::kSampled));
    ASSERT_OK_AND_ASSIGN(Relation col,
                         testing::ExecuteColumnar(plan, catalog, &col_rng));
    ASSERT_EQ(row.num_rows(), col.num_rows()) << "seed " << seed;
    for (int64_t i = 0; i < row.num_rows(); ++i) {
      EXPECT_EQ(row.lineage(i), col.lineage(i)) << "seed " << seed;
    }
  }
}

TEST(KernelParityTest, MorselKeepSetsAreThreadCountInvariant) {
  Catalog catalog = MakeTinyJoin(60, 4).MakeCatalog();  // 240 fact rows
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.15),
                                  PlanNode::Scan("F"));
  ExecOptions one;
  one.engine = ExecEngine::kMorselParallel;
  one.num_threads = 1;
  one.morsel_rows = 32;
  ExecOptions eight = one;
  eight.num_threads = 8;
  Rng rng1(3), rng8(3);
  ASSERT_OK_AND_ASSIGN(Relation a, ExecutePlan(plan, catalog, &rng1,
                                               ExecMode::kSampled, one));
  ASSERT_OK_AND_ASSIGN(Relation b, ExecutePlan(plan, catalog, &rng8,
                                               ExecMode::kSampled, eight));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.lineage(i), b.lineage(i));
  }
}

TEST(KernelParityTest, AutoMorselSizingRunsAndIsDeterministic) {
  // morsel_rows = 0 sizes morsels from (pivot rows, num_threads): legal,
  // and repeated runs reproduce bit-for-bit at a fixed thread count.
  Catalog catalog = MakeTinyJoin(50, 4).MakeCatalog();
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                                  PlanNode::Scan("F"));
  ExecOptions auto_sized;
  auto_sized.engine = ExecEngine::kMorselParallel;
  auto_sized.num_threads = 4;
  ASSERT_EQ(0, auto_sized.morsel_rows);  // the default is auto
  Rng rng1(11), rng2(11);
  ASSERT_OK_AND_ASSIGN(Relation a, ExecutePlan(plan, catalog, &rng1,
                                               ExecMode::kSampled, auto_sized));
  ASSERT_OK_AND_ASSIGN(Relation b, ExecutePlan(plan, catalog, &rng2,
                                               ExecMode::kSampled, auto_sized));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int64_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.lineage(i), b.lineage(i));
  }
}

TEST(KernelParityTest, NegativeMorselRowsIsRejected) {
  Catalog catalog = MakeTinyJoin(4, 2).MakeCatalog();
  Rng rng(1);
  ExecOptions bad;
  bad.engine = ExecEngine::kMorselParallel;
  bad.morsel_rows = -1;
  EXPECT_FALSE(
      ExecutePlan(PlanNode::Scan("F"), catalog, &rng, ExecMode::kSampled, bad)
          .ok());
}

// ---- Block decision cache --------------------------------------------------

TEST(JoinHashTableTest, ParallelBuildIsByteIdenticalToSerial) {
  // The partition-parallel region build must merge to exactly the serial
  // layout — StateDigest covers the directory, entries, and packed row
  // ids, so equal digests mean byte-identical probe behavior (same entry
  // offsets and candidate order).
  Rng rng(11);
  const int64_t n = 200000;
  std::vector<uint64_t> hashes(n);
  for (int64_t i = 0; i < n; ++i) {
    // Skewed key space: plenty of duplicates plus a heavy hitter.
    const uint64_t key = rng.UniformInt(uint64_t{50000});
    hashes[i] = HashInt64Key(static_cast<int64_t>(key < 1000 ? 7 : key));
  }
  JoinHashTable serial;
  ASSERT_OK(serial.Build(hashes.data(), n, nullptr, 1));
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    JoinHashTable parallel;
    ASSERT_OK(parallel.Build(hashes.data(), n, nullptr, threads));
    EXPECT_EQ(serial.StateDigest(), parallel.StateDigest());
    EXPECT_EQ(serial.num_build_rows(), parallel.num_build_rows());
    EXPECT_EQ(serial.num_distinct_hashes(), parallel.num_distinct_hashes());
  }
  // Candidate semantics double-check on a few probes.
  for (const uint64_t h :
       {HashInt64Key(7), HashInt64Key(1234), HashInt64Key(999999)}) {
    JoinHashTable parallel;
    ASSERT_OK(parallel.Build(hashes.data(), n, nullptr, 4));
    EXPECT_EQ(Candidates(serial, h), Candidates(parallel, h));
  }
}

TEST(JoinHashTableTest, ParallelBuildFromColumnMatchesSerial) {
  Rng rng(13);
  ColumnData key;
  key.type = ValueType::kInt64;
  const int64_t n = 50000;
  for (int64_t i = 0; i < n; ++i) {
    key.i64.push_back(static_cast<int64_t>(rng.UniformInt(uint64_t{5000})));
  }
  JoinHashTable serial, parallel;
  ASSERT_OK(serial.BuildFrom(key, n, 1));
  ASSERT_OK(parallel.BuildFrom(key, n, 4));
  EXPECT_EQ(serial.StateDigest(), parallel.StateDigest());
}

TEST(FilterEqualKeyPairsTest, TypedCompactionMatchesKeyEqualsAt) {
  ColumnData probe, build;
  probe.type = ValueType::kInt64;
  probe.i64 = {1, 2, 3, 4};
  build.type = ValueType::kFloat64;
  build.f64 = {1.0, 2.5, 3.0, 4.0};
  // Pairs (probe row, build row): only exact promoted matches survive.
  std::vector<int64_t> p = {0, 1, 2, 3};
  std::vector<int64_t> b = {0, 1, 2, 1};
  const int64_t kept = FilterEqualKeyPairs(probe, build, &p, &b);
  EXPECT_EQ(2, kept);
  EXPECT_EQ((std::vector<int64_t>{0, 2}), p);
  EXPECT_EQ((std::vector<int64_t>{0, 2}), b);

  // Same-type int64 path, with a preserved prefix ([0, begin)).
  ColumnData a;
  a.type = ValueType::kInt64;
  a.i64 = {5, 6, 7};
  std::vector<int64_t> pa = {0, 0, 1, 2};
  std::vector<int64_t> pb = {0, 1, 1, 0};
  const int64_t kept2 = FilterEqualKeyPairs(a, a, &pa, &pb, /*begin=*/1);
  EXPECT_EQ(2, kept2);  // keeps the untouched prefix + (1,1)
  EXPECT_EQ((std::vector<int64_t>{0, 1}), pa);
  EXPECT_EQ((std::vector<int64_t>{0, 1}), pb);
}

// -- Fixed-size WOR keep-sets: closed-form priorities + threshold filter -----

const std::vector<simd::SimdTier>& AllTiers() {
  static const std::vector<simd::SimdTier> kTiers = {
      simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
      simd::SimdTier::kAvx512};
  return kTiers;
}

/// Runs `body` once under every tier the host can run, then restores the
/// startup tier.
template <typename Body>
void ForEachRunnableTier(const Body& body) {
  for (const simd::SimdTier tier : AllTiers()) {
    if (simd::SetSimdTierForTesting(tier) != tier) continue;
    SCOPED_TRACE(simd::SimdTierName(tier));
    body();
  }
  simd::ResetSimdTierForTesting();
}

/// The definition itself: sort every (Rng::ForkStream(seed, row).Next(),
/// row) pair and keep the rows of the first n, ascending.
std::vector<int64_t> BruteForceWorKeep(int64_t num_rows, int64_t n,
                                       uint64_t seed) {
  std::vector<WorCandidate> keyed;
  keyed.reserve(static_cast<size_t>(num_rows));
  for (int64_t row = 0; row < num_rows; ++row) {
    keyed.emplace_back(
        Rng::ForkStream(seed, static_cast<uint64_t>(row)).Next(), row);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int64_t> rows;
  for (int64_t i = 0; i < n; ++i) rows.push_back(keyed[i].second);
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(WorPriorityTest, ClosedFormMatchesForkStreamOnEveryTier) {
  const uint64_t seeds[] = {0, 1, ~uint64_t{0}, 0x243f6a8885a308d3ULL};
  const int64_t near_max = std::numeric_limits<int64_t>::max();
  // (begin, len): lengths off the 8-lane (and 32-row) blocks, and rows up
  // to INT64_MAX - 1.
  const std::pair<int64_t, int64_t> spans[] = {
      {0, 0},   {0, 1},     {0, 7},   {5, 8},
      {3, 33},  {100, 1001}, {near_max - 77, 77}, {near_max - 40, 40}};
  ForEachRunnableTier([&] {
    for (const uint64_t seed : seeds) {
      for (const auto& [begin, len] : spans) {
        SCOPED_TRACE(::testing::Message() << seed << " @" << begin << "+"
                                          << len);
        std::vector<uint64_t> prio(static_cast<size_t>(len) + 1);
        std::vector<int64_t> rows(static_cast<size_t>(len) + 1);
        // tau = UINT64_MAX keeps every row: the output is the key stream.
        ASSERT_EQ(len, simd::WorPriorityFilter(seed, ~uint64_t{0}, begin, len,
                                               prio.data(), rows.data()));
        for (int64_t i = 0; i < len; ++i) {
          const auto row = static_cast<uint64_t>(begin + i);
          const uint64_t want = Rng::ForkStream(seed, row).Next();
          ASSERT_EQ(want, prio[i]) << "row " << row;
          ASSERT_EQ(begin + i, rows[i]);
          ASSERT_EQ(want, WorPriority(seed, row));
        }
      }
    }
  });
}

TEST(DecoupledDrawTest, BlockKeepAndWrTargetMatchForkStream) {
  const uint64_t seeds[] = {0, 1, ~uint64_t{0}, 0x13198a2e03707344ULL};
  const int64_t near_max = std::numeric_limits<int64_t>::max();
  // Read as uint64 by both forms; 2^63 + 1 rejects about half the first
  // words, so the redraw path runs too.
  const uint64_t populations[] = {1, 7, (uint64_t{1} << 32) + 1,
                                  (uint64_t{1} << 63) + 1};
  const double ps[] = {0.0, 0.3, 0.5, 1.0};
  int64_t rejected = 0;
  for (const uint64_t seed : seeds) {
    for (const int64_t begin : {int64_t{0}, near_max - 200}) {
      for (int64_t unit = begin; unit < begin + 200; ++unit) {
        SCOPED_TRACE(::testing::Message() << seed << " unit " << unit);
        const auto u = static_cast<uint64_t>(unit);
        for (const double p : ps) {
          ASSERT_EQ(Rng::ForkStream(seed, u).Uniform() < p,
                    DecoupledBlockKeep(seed, u, p));
        }
        for (const uint64_t n : populations) {
          Rng r = Rng::ForkStream(seed, u);
          const uint64_t want = r.UniformInt(n);
          if (r.num_draws() > 1) ++rejected;
          ASSERT_EQ(want, static_cast<uint64_t>(WrDrawTarget(
                              seed, unit, static_cast<int64_t>(n))));
        }
      }
    }
  }
  EXPECT_GT(rejected, 100);
}

TEST(WorPriorityTest, FilterKeepsExactlyTheKeysAtOrBelowTau) {
  const uint64_t seed = 0x5eedULL;
  const int64_t begin = 12345, len = 4099;
  for (const uint64_t tau : {uint64_t{0}, ~uint64_t{0} / 10,
                             ~uint64_t{0} / 2, ~uint64_t{0} - 1}) {
    SCOPED_TRACE(tau);
    std::vector<uint64_t> want_prio;
    std::vector<int64_t> want_rows;
    for (int64_t r = begin; r < begin + len; ++r) {
      const uint64_t p = Rng::ForkStream(seed, static_cast<uint64_t>(r)).Next();
      if (p <= tau) {
        want_prio.push_back(p);
        want_rows.push_back(r);
      }
    }
    ForEachRunnableTier([&] {
      std::vector<uint64_t> prio(len);
      std::vector<int64_t> rows(len);
      const int64_t kept = simd::WorPriorityFilter(seed, tau, begin, len,
                                                   prio.data(), rows.data());
      prio.resize(static_cast<size_t>(kept));
      rows.resize(static_cast<size_t>(kept));
      EXPECT_EQ(want_prio, prio);
      EXPECT_EQ(want_rows, rows);
    });
  }
}

TEST(WorKeepSetTest, MatchesBruteForceOracleAtEveryThreadCountAndTier) {
  const std::pair<int64_t, int64_t> cases[] = {
      {0, 0},       {1, 1},      {5000, 1},        {1000, 1000},
      {10000, 64},  {1000000, 10000}};
  const uint64_t seed = 0xc0ffeeULL;
  for (const auto& [num_rows, n] : cases) {
    SCOPED_TRACE(::testing::Message() << num_rows << "/" << n);
    const std::vector<int64_t> want = BruteForceWorKeep(num_rows, n, seed);
    ForEachRunnableTier([&] {
      for (const int threads : {1, 2, 3, 4}) {
        SCOPED_TRACE(threads);
        ASSERT_OK_AND_ASSIGN(
            std::vector<int64_t> keep,
            DecoupledWorKeepIndices(num_rows, n, seed, threads));
        EXPECT_EQ(want, keep);
      }
    });
  }
}

TEST(WorKeepSetTest, RescanPathIsExact) {
  // A candidate target below n leaves too few survivors under the first
  // threshold, so the kernel must widen and rescan — a path the default
  // target reaches with probability ~Phi(-4).
  const std::pair<int64_t, int64_t> cases[] = {{10000, 64}, {200000, 500}};
  for (const auto& [num_rows, n] : cases) {
    const std::vector<int64_t> want = BruteForceWorKeep(num_rows, n, 17);
    for (const int64_t target : {int64_t{0}, int64_t{1}, n / 2, n - 1}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << num_rows << "/" << n << " t"
                                          << target << " x" << threads);
        EXPECT_EQ(want, WorSmallestPriorityRows(num_rows, n, 17, threads,
                                                target));
      }
    }
  }
}

TEST(WorKeepSetTest, ChunkedCandidatesMatchDirectTopN) {
  // Filtering rows chunk by chunk (any chunking) yields the same candidate
  // list as one pass, and its n smallest are the direct global top-n.
  const uint64_t seed = 0xfeedULL;
  const int64_t n_rows = 10000, n = 64;
  const std::vector<int64_t> expected = BruteForceWorKeep(n_rows, n, seed);
  ASSERT_EQ(n, static_cast<int64_t>(expected.size()));
  const uint64_t tau = WorPriorityThreshold(n_rows, WorCandidateTarget(n));
  std::vector<WorCandidate> direct;
  AppendWorCandidates(seed, tau, 0, n_rows, &direct);
  ASSERT_GE(static_cast<int64_t>(direct.size()), n);
  for (const int64_t chunk : {1L, 7L, 128L, 4096L}) {
    SCOPED_TRACE(chunk);
    std::vector<WorCandidate> folded;
    for (int64_t begin = 0; begin < n_rows; begin += chunk) {
      AppendWorCandidates(seed, tau, begin, std::min(n_rows, begin + chunk),
                          &folded);
    }
    EXPECT_EQ(direct, folded);
    EXPECT_EQ(expected, SmallestCandidateRows(folded, n));
  }
}

TEST(WorKeepSetTest, SmallestCandidatesBreakPriorityTiesBySmallerRow) {
  // Pairs order by (priority, row): of the candidates at the cutoff
  // priority, the smaller rows are kept, and the output stays row-ordered.
  const std::vector<WorCandidate> cands = {
      {5, 0}, {2, 1}, {5, 2}, {9, 3}, {5, 4}, {1, 5}, {5, 6}};
  EXPECT_EQ(std::vector<int64_t>({5}), SmallestCandidateRows(cands, 1));
  EXPECT_EQ(std::vector<int64_t>({0, 1, 5}), SmallestCandidateRows(cands, 3));
  EXPECT_EQ(std::vector<int64_t>({0, 1, 2, 4, 5}),
            SmallestCandidateRows(cands, 5));
  EXPECT_EQ(std::vector<int64_t>({0, 1, 2, 4, 5, 6}),
            SmallestCandidateRows(cands, 6));
  EXPECT_EQ(std::vector<int64_t>({0, 1, 2, 3, 4, 5, 6}),
            SmallestCandidateRows(cands, 7));
}

TEST(WorKeepSetTest, DecoupledWorCoreMatchesOracle) {
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> keep,
                       DecoupledWorKeepIndices(500, 50, 99));
  EXPECT_EQ(BruteForceWorKeep(500, 50, 99), keep);
  EXPECT_EQ(50u, keep.size());
  EXPECT_TRUE(std::is_sorted(keep.begin(), keep.end()));
  EXPECT_TRUE(std::adjacent_find(keep.begin(), keep.end()) == keep.end());
}

TEST(BlockDecisionCacheTest, OneDrawPerDistinctBlock) {
  BlockDecisionCache cache;
  Rng rng(21);
  const bool d0 = cache.Decide(0, 0.5, &rng);
  const bool d7 = cache.Decide(7, 0.5, &rng);
  EXPECT_EQ(2u, rng.num_draws());
  // Revisits are cached: no further draws, same answers.
  EXPECT_EQ(d0, cache.Decide(0, 0.5, &rng));
  EXPECT_EQ(d7, cache.Decide(7, 0.5, &rng));
  EXPECT_EQ(2u, rng.num_draws());
  // Sparse ids beyond the dense cap take the spill path, same contract.
  const uint64_t huge = uint64_t{1} << 40;
  const bool dh = cache.Decide(huge, 0.5, &rng);
  EXPECT_EQ(dh, cache.Decide(huge, 0.5, &rng));
  EXPECT_EQ(3u, rng.num_draws());
  cache.Reset();
  cache.Decide(0, 0.5, &rng);
  EXPECT_EQ(4u, rng.num_draws());  // forgotten after Reset
}

}  // namespace
}  // namespace gus
