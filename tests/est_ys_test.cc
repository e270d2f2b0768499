// Tests for the y_S statistics: hand-computed values, bit-for-bit agreement
// with an exact, first-occurrence-ordered oracle, bilinear generalization.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "est/ys.h"
#include "test_util.h"
#include "util/random.h"

namespace gus {
namespace {

/// A small hand-checkable view over lineage schema {A, B}:
///   rows: (a=0,b=0,f=1), (a=0,b=1,f=2), (a=1,b=0,f=3), (a=1,b=1,f=4)
SampleView MakeHandView() {
  SampleView v;
  v.schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  v.lineage = {{0, 0, 1, 1}, {0, 1, 0, 1}};
  v.f = {1.0, 2.0, 3.0, 4.0};
  return v;
}

TEST(YsTest, EmptyMaskIsSquaredSum) {
  SampleView v = MakeHandView();
  EXPECT_DOUBLE_EQ(100.0, ComputeYS(v, 0));  // (1+2+3+4)^2
}

TEST(YsTest, FullMaskIsSumOfSquares) {
  SampleView v = MakeHandView();
  EXPECT_DOUBLE_EQ(1.0 + 4.0 + 9.0 + 16.0, ComputeYS(v, 0b11));
}

TEST(YsTest, GroupByFirstDimension) {
  SampleView v = MakeHandView();
  // Group by A: {1+2}^2 + {3+4}^2 = 9 + 49.
  EXPECT_DOUBLE_EQ(58.0, ComputeYS(v, 0b01));
}

TEST(YsTest, GroupBySecondDimension) {
  SampleView v = MakeHandView();
  // Group by B: {1+3}^2 + {2+4}^2 = 16 + 36.
  EXPECT_DOUBLE_EQ(52.0, ComputeYS(v, 0b10));
}

TEST(YsTest, ComputeAllMatchesSingle) {
  SampleView v = MakeHandView();
  const auto all = ComputeAllYS(v);
  ASSERT_EQ(4u, all.size());
  for (SubsetMask m = 0; m < 4; ++m) {
    EXPECT_DOUBLE_EQ(ComputeYS(v, m), all[m]);
  }
}

TEST(YsTest, EmptyViewAllZero) {
  SampleView v;
  v.schema = LineageSchema::Make({"A"}).ValueOrDie();
  v.lineage = {{}};
  const auto all = ComputeAllYS(v);
  EXPECT_DOUBLE_EQ(0.0, all[0]);
  EXPECT_DOUBLE_EQ(0.0, all[1]);
}

/// The definition, spelled out: group rows by the exact tuple of their
/// projected ids (std::map), sum f and g in row order within a group, and
/// fold sum_f * sum_g over groups in order of their first row.
std::vector<double> OracleAllYs(const SampleView& v,
                                const std::vector<double>& g) {
  std::vector<double> ys(v.schema.num_subsets());
  for (SubsetMask m = 0; m < ys.size(); ++m) {
    std::map<std::vector<uint64_t>, size_t> group_of;
    std::vector<std::pair<double, double>> sums;  // first-occurrence order
    for (int64_t i = 0; i < v.num_rows(); ++i) {
      std::vector<uint64_t> key;
      for (int d = 0; d < v.schema.arity(); ++d) {
        if (m & (SubsetMask{1} << d)) key.push_back(v.lineage[d][i]);
      }
      const auto [it, inserted] = group_of.emplace(key, sums.size());
      if (inserted) sums.emplace_back(0.0, 0.0);
      sums[it->second].first += v.f[i];
      sums[it->second].second += g[i];
    }
    double y = 0.0;
    for (const auto& [sf, sg] : sums) y += sf * sg;
    ys[m] = y;
  }
  return ys;
}

/// Rows whose ids come from a pool spanning the whole uint64_t range: 0,
/// UINT64_MAX, ids that differ only in their top bit, and random words
/// (pool_size 0: a fresh random word per id, so every row is distinct on
/// every dimension). Every third row appears again with its first two ids
/// swapped, and the f values span magnitudes, so a different fold order
/// shows in the bits.
SampleView MakeAdversarialView(int arity, int64_t rows, int pool_size,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> pool = {0, ~uint64_t{0}, uint64_t{1} << 63, 1,
                                (uint64_t{1} << 63) | 1};
  while (static_cast<int>(pool.size()) < pool_size) {
    const uint64_t r = rng.Next();
    pool.push_back(r);
    pool.push_back(r ^ (uint64_t{1} << 63));
  }
  SampleView v;
  std::vector<std::string> names;
  for (int d = 0; d < arity; ++d) names.push_back(std::string(1, 'A' + d));
  v.schema = LineageSchema::Make(names).ValueOrDie();
  v.lineage.assign(arity, {});
  for (int64_t i = 0; i < rows; ++i) {
    for (int d = 0; d < arity; ++d) {
      v.lineage[d].push_back(pool_size == 0
                                 ? rng.Next()
                                 : pool[rng.UniformInt(uint64_t{pool.size()})]);
    }
    v.f.push_back(rng.Uniform(-1.0, 1.0) *
                  std::pow(10.0, static_cast<double>(rng.UniformInt(
                                     int64_t{-6}, int64_t{6}))));
    if (arity >= 2 && i + 1 < rows && i % 3 == 0) {
      ++i;
      for (int d = 0; d < arity; ++d) {
        const int src = d == 0 ? 1 : d == 1 ? 0 : d;
        v.lineage[d].push_back(v.lineage[src][i - 1]);
      }
      v.f.push_back(rng.Uniform(0.0, 100.0));
    }
  }
  return v;
}

TEST(YsTest, MatchesOrderedOracleBitForBit) {
  uint64_t seed = 1;
  for (int arity = 1; arity <= 4; ++arity) {
    // Few ids (heavy grouping), many (mostly singletons), and every row
    // distinct on every dimension.
    for (const int pool_size : {3, 40, 4000, 0}) {
      SCOPED_TRACE(::testing::Message() << "arity " << arity << " pool "
                                        << pool_size);
      const SampleView v = MakeAdversarialView(arity, 600, pool_size, ++seed);
      std::vector<double> g;
      Rng rng(seed);
      for (int64_t i = 0; i < v.num_rows(); ++i) {
        g.push_back(rng.Uniform(-3.0, 5.0));
      }
      const std::vector<double> want = OracleAllYs(v, v.f);
      const std::vector<double> want_fg = OracleAllYs(v, g);
      const std::vector<double> want_gg = OracleAllYs(
          SampleView{v.schema, v.lineage, g}, g);
      const std::vector<double> all = ComputeAllYS(v);
      ASSERT_OK_AND_ASSIGN(const std::vector<double> all_fg,
                           ComputeAllYSBilinear(v, g));
      ASSERT_OK_AND_ASSIGN(const YsGram gram, ComputeAllYSGram(v, g));
      for (SubsetMask m = 0; m < want.size(); ++m) {
        SCOPED_TRACE(::testing::Message() << "mask " << m);
        EXPECT_EQ(want[m], all[m]);
        EXPECT_EQ(want[m], ComputeYS(v, m));
        EXPECT_EQ(want_fg[m], all_fg[m]);
        ASSERT_OK_AND_ASSIGN(const double one_fg, ComputeYSBilinear(v, g, m));
        EXPECT_EQ(want_fg[m], one_fg);
        EXPECT_EQ(want[m], gram.ff[m]);
        EXPECT_EQ(want_fg[m], gram.fg[m]);
        EXPECT_EQ(want_gg[m], gram.gg[m]);
      }
    }
  }
}

TEST(YsTest, YsMonotoneUnderRefinement) {
  // For non-negative f: coarser grouping (smaller S) merges groups, so
  // (sum)^2 grows: y_S >= y_T when S ⊆ T.
  Rng rng(43);
  SampleView v;
  v.schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  v.lineage.assign(2, {});
  for (int i = 0; i < 300; ++i) {
    v.lineage[0].push_back(rng.UniformInt(uint64_t{5}));
    v.lineage[1].push_back(rng.UniformInt(uint64_t{9}));
    v.f.push_back(rng.Uniform(0.0, 1.0));
  }
  const auto y = ComputeAllYS(v);
  EXPECT_GE(y[0b00], y[0b01]);
  EXPECT_GE(y[0b00], y[0b10]);
  EXPECT_GE(y[0b01], y[0b11]);
  EXPECT_GE(y[0b10], y[0b11]);
}

TEST(YsBilinearTest, DiagonalEqualsQuadratic) {
  SampleView v = MakeHandView();
  for (SubsetMask m = 0; m < 4; ++m) {
    ASSERT_OK_AND_ASSIGN(double bl, ComputeYSBilinear(v, v.f, m));
    EXPECT_DOUBLE_EQ(ComputeYS(v, m), bl);
  }
}

TEST(YsBilinearTest, WithOnesGivesCountCrossTerm) {
  SampleView v = MakeHandView();
  const std::vector<double> ones(4, 1.0);
  // Mask ∅: (sum f)(sum 1) = 10 * 4.
  ASSERT_OK_AND_ASSIGN(double y0, ComputeYSBilinear(v, ones, 0));
  EXPECT_DOUBLE_EQ(40.0, y0);
  // Group by A: (3)(2) + (7)(2) = 20.
  ASSERT_OK_AND_ASSIGN(double y1, ComputeYSBilinear(v, ones, 0b01));
  EXPECT_DOUBLE_EQ(20.0, y1);
}

TEST(YsBilinearTest, LengthMismatchFails) {
  SampleView v = MakeHandView();
  EXPECT_STATUS_CODE(kInvalidArgument,
                     ComputeYSBilinear(v, {1.0}, 0).status());
}

TEST(YsBilinearTest, AllMatchesSingle) {
  SampleView v = MakeHandView();
  const std::vector<double> g = {2.0, -1.0, 0.5, 3.0};
  ASSERT_OK_AND_ASSIGN(auto all, ComputeAllYSBilinear(v, g));
  for (SubsetMask m = 0; m < 4; ++m) {
    ASSERT_OK_AND_ASSIGN(double one, ComputeYSBilinear(v, g, m));
    EXPECT_DOUBLE_EQ(one, all[m]);
  }
}

}  // namespace
}  // namespace gus
