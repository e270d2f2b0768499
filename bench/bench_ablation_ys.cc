// A2 — Ablation: Y_S grouping kernel. Exact grouping by projected lineage
// ids (first-occurrence group order, one scratch for every mask); this
// bench measures its throughput across sample sizes and group counts, and
// the whole 2^n table at Query 1's sample shape.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "est/ys.h"
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

}  // namespace

void PrintAblationYs() {
  bench::PrintHeader("A2", "Y_S grouping: exact ids, first-occurrence fold");
  std::printf(
      "Timings follow. BM_YsOneMask args are {rows, distinct groups} for\n"
      "one single-dimension mask; BM_AllYs computes all four masks of an\n"
      "arity-2 view, {rows, distinct A ids, distinct B ids}; {4000, 2000,\n"
      "1000} is Query 1's sample shape.\n");
}

namespace {

void BM_YsOneMask(benchmark::State& state) {
  const auto groups = static_cast<uint64_t>(state.range(1));
  SampleView view = MakeView(state.range(0), groups, groups * 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeYS(view, 0b01));
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeAllYS(view));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AllYs)
    ->Args({4000, 2000, 1000})
    ->Args({10000, 1024, 4096})
    ->Args({100000, 1024, 4096});

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintAblationYs)
