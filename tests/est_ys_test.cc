// Tests for the y_S statistics: hand-computed values, bit-for-bit agreement
// with an exact, first-occurrence-ordered oracle over explicitly copied
// views (selections, f ≡ 1 and g ≡ 1, outer keys), bilinear generalization.

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

std::vector<double> AllYs(const SampleView& v) {
  return ComputeAllYS(YsInput::Of(v));
}

TEST(YsTest, EmptyMaskIsSquaredSum) {
  EXPECT_DOUBLE_EQ(100.0, AllYs(MakeHandView())[0]);  // (1+2+3+4)^2
}

TEST(YsTest, FullMaskIsSumOfSquares) {
  EXPECT_DOUBLE_EQ(1.0 + 4.0 + 9.0 + 16.0, AllYs(MakeHandView())[0b11]);
}

TEST(YsTest, GroupByFirstDimension) {
  // Group by A: {1+2}^2 + {3+4}^2 = 9 + 49.
  EXPECT_DOUBLE_EQ(58.0, AllYs(MakeHandView())[0b01]);
}

TEST(YsTest, GroupBySecondDimension) {
  // Group by B: {1+3}^2 + {2+4}^2 = 16 + 36.
  EXPECT_DOUBLE_EQ(52.0, AllYs(MakeHandView())[0b10]);
}

TEST(YsTest, EmptyViewAllZero) {
  SampleView v;
  v.schema = LineageSchema::Make({"A"}).ValueOrDie();
  v.lineage = {{}};
  const auto all = AllYs(v);
  ASSERT_EQ(2u, all.size());
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

/// Rows `rows` of `v`, in that order, with f read from `f` (aligned with
/// v's rows): the explicit copy the non-owning input forms stand for.
SampleView CopyRows(const SampleView& v, const std::vector<int64_t>& rows,
                    const std::vector<double>& f) {
  SampleView out;
  out.schema = v.schema;
  out.lineage.assign(v.schema.arity(), {});
  for (const int64_t r : rows) {
    for (int d = 0; d < v.schema.arity(); ++d) {
      out.lineage[d].push_back(v.lineage[d][r]);
    }
    out.f.push_back(f[r]);
  }
  return out;
}

/// One input form over `v`: the rows `sel` (every row when empty), f and g
/// (null: the constant 1) and optional slice ends over those rows.
struct Form {
  std::vector<int64_t> sel;
  bool f_is_one = false;
  bool g_is_one = false;
  std::vector<int64_t> ends;
};

/// Checks ComputeAllYS, ComputeAllYSGram and, with slice ends,
/// ComputeAllYSOfSlices on `form` against the oracle run on explicitly
/// copied rows (each slice's alone), bit for bit.
void ExpectMatchesOracle(const SampleView& v, const std::vector<double>& g,
                         const Form& form) {
  std::vector<int64_t> rows = form.sel;
  if (rows.empty()) {
    for (int64_t i = 0; i < v.num_rows(); ++i) rows.push_back(i);
  }
  YsInput in = YsInput::Of(v);
  if (!form.sel.empty()) {
    in.sel = form.sel.data();
    in.rows = static_cast<int64_t>(form.sel.size());
  }
  if (form.f_is_one) in.f = nullptr;
  const std::vector<double> ones(v.f.size(), 1.0);
  const std::vector<double>& f_col = form.f_is_one ? ones : v.f;
  const std::vector<double>& g_col = form.g_is_one ? ones : g;
  const size_t num_subsets = v.schema.num_subsets();
  {
    const std::vector<double> all = ComputeAllYS(in);
    const YsGram gram =
        ComputeAllYSGram(in, form.g_is_one ? nullptr : g.data());
    ASSERT_EQ(num_subsets, all.size());
    ASSERT_EQ(num_subsets, gram.fg.size());
    const SampleView cf = CopyRows(v, rows, f_col);
    const SampleView cg = CopyRows(v, rows, g_col);
    const std::vector<double> want = OracleAllYs(cf, cf.f);
    const std::vector<double> want_fg = OracleAllYs(cf, cg.f);
    const std::vector<double> want_gg = OracleAllYs(cg, cg.f);
    for (SubsetMask m = 0; m < num_subsets; ++m) {
      SCOPED_TRACE(::testing::Message() << "mask " << m);
      EXPECT_EQ(want[m], all[m]);
      EXPECT_EQ(want[m], gram.ff[m]);
      EXPECT_EQ(want_fg[m], gram.fg[m]);
      EXPECT_EQ(want_gg[m], gram.gg[m]);
    }
  }
  if (form.ends.empty()) return;
  const std::vector<double> sliced = ComputeAllYSOfSlices(in, form.ends);
  ASSERT_EQ(form.ends.size() * num_subsets, sliced.size());
  int64_t begin = 0;
  for (size_t k = 0; k < form.ends.size(); ++k) {
    const std::vector<int64_t> slice_rows(rows.begin() + begin,
                                          rows.begin() + form.ends[k]);
    begin = form.ends[k];
    const SampleView cf = CopyRows(v, slice_rows, f_col);
    const std::vector<double> want = OracleAllYs(cf, cf.f);
    for (SubsetMask m = 0; m < num_subsets; ++m) {
      SCOPED_TRACE(::testing::Message() << "slice " << k << " mask " << m);
      EXPECT_EQ(want[m], sliced[k * num_subsets + m]);
    }
  }
}

/// The slices form GROUP BY builds: `rows` (every row of v when empty)
/// stably sorted by a random key below num_keys, one slice per key (empty
/// keys give empty slices).
Form KeySlices(const SampleView& v, std::vector<int64_t> rows,
               uint32_t num_keys, Rng* rng) {
  if (rows.empty()) {
    for (int64_t i = 0; i < v.num_rows(); ++i) rows.push_back(i);
  }
  std::vector<uint32_t> key(rows.size());
  for (uint32_t& k : key) {
    k = static_cast<uint32_t>(rng->UniformInt(uint64_t{num_keys}));
  }
  Form form;
  for (uint32_t k = 0; k < num_keys; ++k) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (key[i] == k) form.sel.push_back(rows[i]);
    }
    form.ends.push_back(static_cast<int64_t>(form.sel.size()));
  }
  return form;
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
      // A Section-7 style selection: about 60% of the rows, in order.
      std::vector<int64_t> sel;
      for (int64_t i = 0; i < v.num_rows(); ++i) {
        if (rng.Uniform(0.0, 1.0) < 0.6) sel.push_back(i);
      }
      Form whole, selected, f_one, g_one;
      selected.sel = sel;
      f_one.f_is_one = true;
      g_one.sel = sel;
      g_one.g_is_one = true;
      for (const auto& [name, form] :
           {std::pair<const char*, const Form&>{"whole view", whole},
            {"selection", selected},
            {"f = 1", f_one},
            {"g = 1 over the selection", g_one}}) {
        SCOPED_TRACE(name);
        ExpectMatchesOracle(v, g, form);
      }
      for (const uint32_t num_keys : {1u, 7u, 600u}) {
        SCOPED_TRACE(::testing::Message() << num_keys << " key slices");
        ExpectMatchesOracle(v, g, KeySlices(v, {}, num_keys, &rng));
        Form selected_slices = KeySlices(v, sel, num_keys, &rng);
        selected_slices.f_is_one = true;
        ExpectMatchesOracle(v, g, selected_slices);
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
  const auto y = AllYs(v);
  EXPECT_GE(y[0b00], y[0b01]);
  EXPECT_GE(y[0b00], y[0b10]);
  EXPECT_GE(y[0b01], y[0b11]);
  EXPECT_GE(y[0b10], y[0b11]);
}

TEST(YsBilinearTest, DiagonalEqualsQuadratic) {
  SampleView v = MakeHandView();
  const YsGram gram = ComputeAllYSGram(YsInput::Of(v), v.f.data());
  const std::vector<double> y = AllYs(v);
  for (SubsetMask m = 0; m < 4; ++m) EXPECT_DOUBLE_EQ(y[m], gram.fg[m]);
}

TEST(YsBilinearTest, WithOnesGivesCountCrossTerm) {
  // A null g reads g ≡ 1.
  const YsGram gram = ComputeAllYSGram(YsInput::Of(MakeHandView()), nullptr);
  // Mask ∅: (sum f)(sum 1) = 10 * 4.
  EXPECT_DOUBLE_EQ(40.0, gram.fg[0]);
  // Group by A: (3)(2) + (7)(2) = 20.
  EXPECT_DOUBLE_EQ(20.0, gram.fg[0b01]);
}

}  // namespace
}  // namespace gus
