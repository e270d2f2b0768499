// A3 — Ablation: physical sampler throughput (tuples/second) for every
// sampling operator in the library, plus the page checksum a segment
// fault pays before its sampled tuples can be read.

#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "sampling/samplers.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/random.h"

namespace gus {

using bench::ValueOrAbort;

namespace {

Relation MakeTable(int64_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  Rng rng(3);
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value(rng.Uniform(0.0, 100.0))});
  }
  return Relation::MakeBase("R", Schema({{"v", ValueType::kFloat64}}),
                            std::move(rows));
}

}  // namespace

void PrintSamplers() {
  bench::PrintHeader("A3", "Physical sampler throughput (tuples/s)");
  std::printf("Timings follow; arg is the input cardinality.\n");
}

namespace {

constexpr int64_t kRows = 200000;

void BM_Bernoulli(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BernoulliSample(table, 0.1, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_Bernoulli);

void BM_WorFisherYates(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WorSample(table, kRows / 10, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_WorFisherYates);

/// The seed-decoupled WOR keep-set behind plan execution: 1M rows, n = 10k
/// (a 1% sample), at 1 and 4 threads on the shared pool. Index selection
/// only — no tuple copies — so this is the layer's own number.
void BM_DecoupledWor(benchmark::State& state) {
  constexpr int64_t kWorRows = 1000000;
  constexpr int64_t kWorKeep = 10000;
  const int threads = static_cast<int>(state.range(0));
  uint64_t seed = 14;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecoupledWorKeepIndices(kWorRows, kWorKeep, seed++, threads));
  }
  state.SetItemsProcessed(state.iterations() * kWorRows);
}
BENCHMARK(BM_DecoupledWor)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// The byte checksum a segment fault verifies before decoding (about
/// 2 MiB of pages per segment on the seg_scan workload): arg 0 is
/// Checksum64, arg 1 the bytewise FNV-1a HashBytes it replaced. The
/// buffer starts at an odd offset, as an mmap'd page may.
void BM_PageChecksum(benchmark::State& state) {
  constexpr size_t kBytes = size_t{2} << 20;
  std::vector<unsigned char> buf(kBytes + 1);
  Rng rng(15);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.Next());
  const unsigned char* page = buf.data() + 1;
  const bool fnv = state.range(0) == 1;
  state.SetLabel(fnv ? "HashBytes" : "Checksum64");
  for (auto _ : state) {
    benchmark::DoNotOptimize(fnv ? HashBytes(kFnv1aOffset, page, kBytes)
                                 : Checksum64(page, kBytes));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(kBytes));
}
BENCHMARK(BM_PageChecksum)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_Reservoir(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ReservoirSample(table, kRows / 10, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_Reservoir);

void BM_WrDistinct(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WrDistinctSample(table, kRows / 10, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_WrDistinct);

void BM_BlockBernoulli(benchmark::State& state) {
  Relation table = ValueOrAbort(AssignBlockLineage(MakeTable(kRows), 128));
  Rng rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BlockBernoulliSample(table, 0.1, &rng));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_BlockBernoulli);

void BM_LineageBernoulli(benchmark::State& state) {
  Relation table = MakeTable(kRows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LineageBernoulliSample(table, "R", 0.1, 77));
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_LineageBernoulli);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintSamplers)
