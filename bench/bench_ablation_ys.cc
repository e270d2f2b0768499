// A2 — Ablation: Y_S grouping kernel. Exact grouping by projected lineage
// ids (first-occurrence group order, one scratch for every mask); this
// bench measures its throughput across sample sizes and group counts, the
// whole 2^n table at Query 1's sample shape, and GROUP BY's per-group
// tables.

#include <benchmark/benchmark.h>

#include <memory>

#include "algebra/translate.h"
#include "bench/bench_util.h"
#include "est/group_by.h"
#include "est/ys.h"
#include "rel/column_batch.h"
#include "util/random.h"

namespace gus {

namespace {

SampleView MakeView(int64_t rows, uint64_t groups_a, uint64_t groups_b,
                    uint64_t seed) {
  SampleView view;
  view.schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  view.lineage.assign(2, {});
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    view.lineage[0].push_back(rng.UniformInt(groups_a));
    view.lineage[1].push_back(rng.UniformInt(groups_b));
    view.f.push_back(rng.Uniform(0.0, 1.0));
  }
  return view;
}

/// The view's A dimension alone.
SampleView FirstDimension(SampleView view) {
  view.schema = LineageSchema::Make({"A"}).ValueOrDie();
  view.lineage.resize(1);
  return view;
}

}  // namespace

void PrintAblationYs() {
  bench::PrintHeader("A2", "Y_S grouping: exact ids, first-occurrence fold");
  std::printf(
      "Timings follow. BM_YsOneMask args are {rows, distinct groups} for\n"
      "an arity-1 view (masks {} and {A}); BM_AllYs computes all four\n"
      "masks of an arity-2 view, {rows, distinct A ids, distinct B ids};\n"
      "{4000, 2000, 1000} is Query 1's sample shape. BM_GroupedSum is\n"
      "GroupedSumBuilder::Finish over that shape, {rows, GROUP BY groups}.\n");
}

namespace {

void BM_YsOneMask(benchmark::State& state) {
  const auto groups = static_cast<uint64_t>(state.range(1));
  const SampleView view =
      FirstDimension(MakeView(state.range(0), groups, groups * 4, 7));
  const YsInput input = YsInput::Of(view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAllYS(input));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_YsOneMask)
    ->Args({10000, 64})
    ->Args({10000, 4096})
    ->Args({100000, 64})
    ->Args({100000, 4096})
    ->Args({100000, 65536});

void BM_AllYs(benchmark::State& state) {
  SampleView view =
      MakeView(state.range(0), static_cast<uint64_t>(state.range(1)),
               static_cast<uint64_t>(state.range(2)), 8);
  const YsInput input = YsInput::Of(view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAllYS(input));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AllYs)
    ->Args({4000, 2000, 1000})
    ->Args({10000, 1024, 4096})
    ->Args({100000, 1024, 4096});

void BM_GroupedSum(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const auto groups = static_cast<uint64_t>(state.range(1));
  auto layout = std::make_shared<BatchLayout>();
  layout->schema =
      Schema({{"k", ValueType::kInt64}, {"f", ValueType::kFloat64}});
  layout->lineage_schema = {"A", "B"};
  ColumnBatch batch(layout);
  Rng rng(9);
  for (int64_t i = 0; i < rows; ++i) {
    const auto key = static_cast<int64_t>(rng.UniformInt(groups));
    bench::CheckOk(batch.mutable_column(0)->AppendValue(Value(key)));
    bench::CheckOk(
        batch.mutable_column(1)->AppendValue(Value(rng.Uniform(0.0, 1.0))));
    batch.mutable_lineage()->push_back(rng.UniformInt(uint64_t{2000}));
    batch.mutable_lineage()->push_back(rng.UniformInt(uint64_t{1000}));
  }
  batch.SetNumRows(rows);
  const LineageSchema schema = LineageSchema::Make({"A", "B"}).ValueOrDie();
  GroupedSumBuilder builder = bench::ValueOrAbort(
      GroupedSumBuilder::Make(*layout, Col("f"), "k", schema));
  bench::CheckOk(builder.Consume(batch));
  const GusParams gus = bench::ValueOrAbort(
      MultiDimBernoulliGus(schema, {{"A", 0.5}, {"B", 0.5}}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.Finish(gus));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_GroupedSum)->Args({4000, 10})->Args({4000, 1000});

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintAblationYs)
