// Unit and statistical tests for the physical samplers: inclusion
// frequencies match the advertised first- and second-order probabilities
// (the Figure 1 parameters), sizes and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "rel/operators.h"
#include "sampling/samplers.h"
#include "test_util.h"
#include "util/stats.h"

namespace gus {
namespace {

using ::gus::testing::MakeSingleTable;
using ::gus::testing::MakeTinyJoin;

TEST(SpecTest, ValidateRanges) {
  EXPECT_TRUE(SamplingSpec::Bernoulli(0.5).Validate().ok());
  EXPECT_FALSE(SamplingSpec::Bernoulli(1.5).Validate().ok());
  EXPECT_FALSE(SamplingSpec::Bernoulli(-0.1).Validate().ok());
  EXPECT_TRUE(SamplingSpec::WithoutReplacement(10, 100).Validate().ok());
  EXPECT_FALSE(SamplingSpec::WithoutReplacement(101, 100).Validate().ok());
  EXPECT_FALSE(SamplingSpec::WithoutReplacement(1, 0).Validate().ok());
  EXPECT_TRUE(SamplingSpec::BlockBernoulli(0.2, 8).Validate().ok());
  EXPECT_FALSE(SamplingSpec::BlockBernoulli(0.2, 0).Validate().ok());
  EXPECT_FALSE(
      SamplingSpec::LineageBernoulli("", 0.2, 1).Validate().ok());
}

TEST(SpecTest, ToStringMentionsMethodAndParams) {
  EXPECT_EQ("Bernoulli(p=0.1)", SamplingSpec::Bernoulli(0.1).ToString());
  EXPECT_EQ("WOR(n=1000, N=150000)",
            SamplingSpec::WithoutReplacement(1000, 150000).ToString());
}

TEST(BernoulliSampleTest, FrequencyMatchesP) {
  Relation r = MakeSingleTable(200);
  Rng rng(17);
  MeanVar frac;
  for (int t = 0; t < 500; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, BernoulliSample(r, 0.3, &rng));
    frac.Add(static_cast<double>(s.num_rows()) / 200.0);
  }
  EXPECT_NEAR(0.3, frac.mean(), 0.01);
}

TEST(BernoulliSampleTest, EdgeProbabilities) {
  Relation r = MakeSingleTable(50);
  Rng rng(18);
  ASSERT_OK_AND_ASSIGN(Relation none, BernoulliSample(r, 0.0, &rng));
  EXPECT_EQ(0, none.num_rows());
  ASSERT_OK_AND_ASSIGN(Relation all, BernoulliSample(r, 1.0, &rng));
  EXPECT_EQ(50, all.num_rows());
}

TEST(BernoulliSampleTest, InvalidP) {
  Relation r = MakeSingleTable(5);
  Rng rng(1);
  EXPECT_STATUS_CODE(kInvalidArgument,
                     BernoulliSample(r, 1.0001, &rng).status());
}

TEST(WorSampleTest, ExactSize) {
  Relation r = MakeSingleTable(100);
  Rng rng(19);
  for (int n : {0, 1, 37, 100}) {
    ASSERT_OK_AND_ASSIGN(Relation s, WorSample(r, n, &rng));
    EXPECT_EQ(n, s.num_rows());
  }
}

TEST(WorSampleTest, NoDuplicates) {
  Relation r = MakeSingleTable(30);
  Rng rng(20);
  for (int t = 0; t < 50; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, WorSample(r, 10, &rng));
    std::set<uint64_t> ids;
    for (int64_t i = 0; i < s.num_rows(); ++i) ids.insert(s.lineage(i)[0]);
    EXPECT_EQ(10u, ids.size());
  }
}

TEST(WorSampleTest, UniformInclusion) {
  Relation r = MakeSingleTable(20);
  Rng rng(21);
  std::vector<int> count(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, WorSample(r, 5, &rng));
    for (int64_t i = 0; i < s.num_rows(); ++i) ++count[s.lineage(i)[0]];
  }
  for (int c : count) {
    EXPECT_NEAR(0.25, static_cast<double>(c) / trials, 0.015);
  }
}

TEST(WorSampleTest, PairwiseInclusionMatchesTheory) {
  // b_pair = n(n-1)/(N(N-1)) for WOR(n=5, N=12): 20/132.
  Relation r = MakeSingleTable(12);
  Rng rng(22);
  const int trials = 40000;
  int both = 0;
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, WorSample(r, 5, &rng));
    bool has0 = false, has1 = false;
    for (int64_t i = 0; i < s.num_rows(); ++i) {
      if (s.lineage(i)[0] == 0) has0 = true;
      if (s.lineage(i)[0] == 1) has1 = true;
    }
    if (has0 && has1) ++both;
  }
  EXPECT_NEAR(20.0 / 132.0, static_cast<double>(both) / trials, 0.01);
}

TEST(WorSampleTest, OversizeFails) {
  Relation r = MakeSingleTable(5);
  Rng rng(1);
  EXPECT_STATUS_CODE(kInvalidArgument, WorSample(r, 6, &rng).status());
}

TEST(ReservoirSampleTest, MatchesWorStatistics) {
  Relation r = MakeSingleTable(20);
  Rng rng(23);
  std::vector<int> count(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, ReservoirSample(r, 4, &rng));
    EXPECT_EQ(4, s.num_rows());
    for (int64_t i = 0; i < s.num_rows(); ++i) ++count[s.lineage(i)[0]];
  }
  for (int c : count) {
    EXPECT_NEAR(0.2, static_cast<double>(c) / trials, 0.015);
  }
}

TEST(WrDistinctSampleTest, InclusionMatchesTheory) {
  // P[t in sample] = 1 - (1 - 1/N)^n for N=10, n=5.
  Relation r = MakeSingleTable(10);
  Rng rng(24);
  const int trials = 30000;
  std::vector<int> count(10, 0);
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, WrDistinctSample(r, 5, &rng));
    for (int64_t i = 0; i < s.num_rows(); ++i) ++count[s.lineage(i)[0]];
  }
  const double expect = 1.0 - std::pow(0.9, 5);
  for (int c : count) {
    EXPECT_NEAR(expect, static_cast<double>(c) / trials, 0.015);
  }
}

TEST(WrDistinctSampleTest, SizeNeverExceedsDraws) {
  Relation r = MakeSingleTable(100);
  Rng rng(25);
  for (int t = 0; t < 100; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, WrDistinctSample(r, 7, &rng));
    EXPECT_LE(s.num_rows(), 7);
    EXPECT_GE(s.num_rows(), 1);
  }
}

TEST(BlockLineageTest, AssignsBlockIds) {
  Relation r = MakeSingleTable(10);
  ASSERT_OK_AND_ASSIGN(Relation blocked, AssignBlockLineage(r, 4));
  EXPECT_EQ(0u, blocked.lineage(0)[0]);
  EXPECT_EQ(0u, blocked.lineage(3)[0]);
  EXPECT_EQ(1u, blocked.lineage(4)[0]);
  EXPECT_EQ(2u, blocked.lineage(9)[0]);
}

TEST(BlockSampleTest, WholeBlocksLiveOrDieTogether) {
  Relation r = MakeSingleTable(40);
  ASSERT_OK_AND_ASSIGN(Relation blocked, AssignBlockLineage(r, 8));
  Rng rng(26);
  for (int t = 0; t < 200; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, BlockBernoulliSample(blocked, 0.4, &rng));
    // Count rows per block id: must be 0 or the full block size.
    std::map<uint64_t, int> per_block;
    for (int64_t i = 0; i < s.num_rows(); ++i) ++per_block[s.lineage(i)[0]];
    for (const auto& [block, n] : per_block) EXPECT_EQ(8, n);
  }
}

TEST(BlockSampleTest, BlockFrequencyMatchesP) {
  Relation r = MakeSingleTable(100);
  ASSERT_OK_AND_ASSIGN(Relation blocked, AssignBlockLineage(r, 10));
  Rng rng(27);
  MeanVar frac;
  for (int t = 0; t < 2000; ++t) {
    ASSERT_OK_AND_ASSIGN(Relation s, BlockBernoulliSample(blocked, 0.25, &rng));
    frac.Add(static_cast<double>(s.num_rows()) / 100.0);
  }
  EXPECT_NEAR(0.25, frac.mean(), 0.01);
}

TEST(LineageBernoulliTest, DecisionsAreConsistentAcrossAppearances) {
  // Build a relation where each base id appears several times (as after a
  // join): the filter must keep either all or none of an id's rows.
  Relation base = MakeSingleTable(30);
  Relation multi(base.schema(), base.lineage_schema());
  for (int rep = 0; rep < 3; ++rep) {
    for (int64_t i = 0; i < base.num_rows(); ++i) {
      multi.AppendRow(base.row(i), base.lineage(i));
    }
  }
  ASSERT_OK_AND_ASSIGN(Relation s,
                       LineageBernoulliSample(multi, "R", 0.5, 777));
  std::map<uint64_t, int> per_id;
  for (int64_t i = 0; i < s.num_rows(); ++i) ++per_id[s.lineage(i)[0]];
  for (const auto& [id, n] : per_id) EXPECT_EQ(3, n);
}

TEST(LineageBernoulliTest, IsDeterministicGivenSeed) {
  Relation r = MakeSingleTable(50);
  ASSERT_OK_AND_ASSIGN(Relation s1, LineageBernoulliSample(r, "R", 0.4, 9));
  ASSERT_OK_AND_ASSIGN(Relation s2, LineageBernoulliSample(r, "R", 0.4, 9));
  EXPECT_EQ(s1.num_rows(), s2.num_rows());
}

TEST(LineageBernoulliTest, UnknownRelationFails) {
  Relation r = MakeSingleTable(5);
  EXPECT_STATUS_CODE(kKeyError,
                     LineageBernoulliSample(r, "X", 0.4, 9).status());
}

TEST(LineageBernoulliTest, FrequencyMatchesP) {
  Relation r = MakeSingleTable(4000);
  ASSERT_OK_AND_ASSIGN(Relation s, LineageBernoulliSample(r, "R", 0.35, 5));
  EXPECT_NEAR(0.35, static_cast<double>(s.num_rows()) / 4000.0, 0.03);
}

TEST(DecoupledCoreTest, WorSizeAndUniformInclusion) {
  // The seed-decoupled WOR core (priority top-n) draws exact-size uniform
  // samples: per-row inclusion frequency must match n/N.
  const int64_t N = 20, n = 5;
  std::vector<int> count(N, 0);
  const int trials = 20000;
  Rng rng(51);
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> keep,
                         DecoupledWorKeepIndices(N, n, rng.Next()));
    ASSERT_EQ(static_cast<size_t>(n), keep.size());
    for (int64_t r : keep) ++count[r];
  }
  for (int c : count) {
    EXPECT_NEAR(0.25, static_cast<double>(c) / trials, 0.015);
  }
}

TEST(DecoupledCoreTest, WorPairwiseInclusionMatchesTheory) {
  // b_pair = n(n-1)/(N(N-1)) for WOR(n=5, N=12): 20/132 — the Figure 1
  // second-order parameter the GUS analysis relies on.
  const int trials = 40000;
  int both = 0;
  Rng rng(52);
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> keep,
                         DecoupledWorKeepIndices(12, 5, rng.Next()));
    bool has0 = false, has1 = false;
    for (int64_t r : keep) {
      if (r == 0) has0 = true;
      if (r == 1) has1 = true;
    }
    if (has0 && has1) ++both;
  }
  EXPECT_NEAR(20.0 / 132.0, static_cast<double>(both) / trials, 0.01);
}

TEST(DecoupledCoreTest, WrDistinctInclusionMatchesTheory) {
  // P[t in sample] = 1 - (1 - 1/N)^n for N=10, n=5.
  const int trials = 30000;
  std::vector<int> count(10, 0);
  Rng rng(53);
  for (int t = 0; t < trials; ++t) {
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> keep,
                         DecoupledWrDistinctKeepIndices(10, 5, rng.Next()));
    EXPECT_LE(keep.size(), 5u);
    EXPECT_GE(keep.size(), 1u);
    for (int64_t r : keep) ++count[r];
  }
  const double expect = 1.0 - std::pow(0.9, 5);
  for (int c : count) {
    EXPECT_NEAR(expect, static_cast<double>(c) / trials, 0.015);
  }
}

TEST(DecoupledCoreTest, WorKeepSetIsThreadCountInvariant) {
  // Above the per-worker floor the threshold filter splits the rows
  // across shared-pool workers; the keep-set must not depend on how many.
  Rng rng(54);
  for (int trial = 0; trial < 3; ++trial) {
    const uint64_t seed = rng.Next();
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> one,
                         DecoupledWorKeepIndices(300000, 3000, seed, 1));
    ASSERT_EQ(3000u, one.size());
    for (const int threads : {2, 3, 4, 8}) {
      SCOPED_TRACE(threads);
      ASSERT_OK_AND_ASSIGN(
          std::vector<int64_t> many,
          DecoupledWorKeepIndices(300000, 3000, seed, threads));
      EXPECT_EQ(one, many);
    }
  }
}

TEST(DecoupledCoreTest, WorKeepSetsAreNestedInSampleSize) {
  // A WOR keep-set is the n smallest priorities of one fixed random order,
  // so growing n only adds rows: every keep-set is a prefix of the same
  // shuffle (the property online aggregation over WOR prefixes rests on).
  // 150000 rows put the 4-thread filter above its per-worker split floor.
  Rng rng(58);
  for (const int64_t N : {int64_t{97}, int64_t{150000}}) {
    const std::vector<int64_t> sizes = {1, 7, N / 4, N / 2, N - 1, N};
    for (int trial = 0; trial < 3; ++trial) {
      const uint64_t seed = rng.Next();
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("N=" + std::to_string(N) +
                     " threads=" + std::to_string(threads));
        std::vector<int64_t> smaller;
        for (const int64_t n : sizes) {
          ASSERT_OK_AND_ASSIGN(std::vector<int64_t> keep,
                               DecoupledWorKeepIndices(N, n, seed, threads));
          ASSERT_EQ(static_cast<size_t>(n), keep.size());
          EXPECT_TRUE(std::includes(keep.begin(), keep.end(),
                                    smaller.begin(), smaller.end()))
              << "keep-set of " << smaller.size() << " rows not inside "
              << n;
          smaller = std::move(keep);
        }
      }
    }
  }
}

TEST(DecoupledCoreTest, FullWorJoinIsExact) {
  // WOR(N, N) on both sides of a join keeps everything: the estimate is
  // the exact join sum and the variance vanishes.
  auto data = MakeTinyJoin(/*num_dim=*/12, /*fanout=*/3);
  ASSERT_OK_AND_ASSIGN(Relation joined,
                       HashJoin(data.fact, data.dim, "fk", "pk"));
  const ExprPtr f = Mul(Col("v"), Col("w"));
  ASSERT_OK_AND_ASSIGN(const double truth, AggregateSum(joined, f));
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(
          SamplingSpec::WithoutReplacement(data.fact.num_rows(),
                                           data.fact.num_rows()),
          PlanNode::Scan("F")),
      PlanNode::Sample(
          SamplingSpec::WithoutReplacement(data.dim.num_rows(),
                                           data.dim.num_rows()),
          PlanNode::Scan("D")),
      "fk", "pk");
  ASSERT_OK_AND_ASSIGN(SoaResult soa, SoaTransform(plan));
  Catalog catalog = data.MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  Rng rng(7);
  ASSERT_OK_AND_ASSIGN(
      SboxReport report,
      EstimatePlanParallel(plan, &columnar, &rng, f, soa.top, SboxOptions{},
                           ExecMode::kSampled, exec));
  EXPECT_NEAR(truth, report.estimate, 1e-12 * std::fabs(truth));
  EXPECT_NEAR(0.0, report.variance, 1e-9 * report.estimate * report.estimate);
}

TEST(DecoupledCoreTest, PureFunctionsOfSeed) {
  // Same seed, same keep-set — across calls and regardless of who
  // evaluates them (the property that lets morsels and shards recompute
  // the draws independently).
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> a,
                       DecoupledWorKeepIndices(100, 10, 77));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> b,
                       DecoupledWorKeepIndices(100, 10, 77));
  EXPECT_EQ(a, b);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> c,
                       DecoupledWrDistinctKeepIndices(100, 10, 77));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> d,
                       DecoupledWrDistinctKeepIndices(100, 10, 77));
  EXPECT_EQ(c, d);
  auto block_of = [](int64_t i) { return static_cast<uint64_t>(i / 8); };
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> e,
                       DecoupledBlockKeepIndices(64, 0.5, block_of, 77));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f,
                       DecoupledBlockKeepIndices(64, 0.5, block_of, 77));
  EXPECT_EQ(e, f);
  // Block decisions apply to whole blocks.
  for (size_t k = 0; k + 1 < e.size(); ++k) {
    if (e[k + 1] == e[k] + 1) continue;
    EXPECT_EQ(0, e[k + 1] % 8) << "a kept run must start a block";
  }
}

TEST(DecoupledCoreTest, BlockFrequencyMatchesP) {
  auto block_of = [](int64_t i) { return static_cast<uint64_t>(i / 10); };
  Rng rng(54);
  MeanVar frac;
  for (int t = 0; t < 2000; ++t) {
    ASSERT_OK_AND_ASSIGN(
        std::vector<int64_t> keep,
        DecoupledBlockKeepIndices(100, 0.25, block_of, rng.Next()));
    frac.Add(static_cast<double>(keep.size()) / 100.0);
  }
  EXPECT_NEAR(0.25, frac.mean(), 0.01);
}

TEST(ApplySamplingTest, DispatchesAllMethods) {
  Relation r = MakeSingleTable(60);
  Rng rng(30);
  ASSERT_OK_AND_ASSIGN(Relation b,
                       ApplySampling(r, SamplingSpec::Bernoulli(0.5), &rng));
  EXPECT_LE(b.num_rows(), 60);
  ASSERT_OK_AND_ASSIGN(
      Relation w, ApplySampling(r, SamplingSpec::WithoutReplacement(10, 60), &rng));
  EXPECT_EQ(10, w.num_rows());
  ASSERT_OK_AND_ASSIGN(
      Relation wr,
      ApplySampling(r, SamplingSpec::WithReplacementDistinct(10, 60), &rng));
  EXPECT_LE(wr.num_rows(), 10);
  ASSERT_OK_AND_ASSIGN(
      Relation blk, ApplySampling(r, SamplingSpec::BlockBernoulli(0.5, 6), &rng));
  EXPECT_EQ(0, blk.num_rows() % 6);
  ASSERT_OK_AND_ASSIGN(
      Relation lb,
      ApplySampling(r, SamplingSpec::LineageBernoulli("R", 0.5, 4), &rng));
  EXPECT_LE(lb.num_rows(), 60);
}

TEST(ApplySamplingTest, WorPopulationMismatchFails) {
  Relation r = MakeSingleTable(60);
  Rng rng(31);
  EXPECT_STATUS_CODE(
      kInvalidArgument,
      ApplySampling(r, SamplingSpec::WithoutReplacement(10, 61), &rng)
          .status());
}

}  // namespace
}  // namespace gus
