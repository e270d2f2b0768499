// E3 — Section 6.1 claim: "with careful implementation, this process need
// not take more than a few milliseconds even for plans involving 10
// relations." Times the SOA transform and the downstream coefficient math
// as the number of relations grows 2..10, and the SBox estimation cost as
// the sample grows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <unordered_map>

#include "algebra/translate.h"
#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "kernels/sampling_kernels.h"
#include "kernels/simd/simd_dispatch.h"
#include "util/hash.h"
#include "bench/bench_util.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "est/sbox.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "rel/expression.h"
#include "store/segment_catalog.h"
#include "store/segment_store.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/table.h"

namespace gus {

using bench::ValueOrAbort;

namespace {

/// Chain of n sampled relations joined left-deep: B(0.5)(r0) ⋈ ... ⋈
/// B(0.5)(r_{n-1}).
PlanPtr MakeChainPlan(int n) {
  PlanPtr plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                                  PlanNode::Scan("r0"));
  for (int i = 1; i < n; ++i) {
    PlanPtr next = PlanNode::Sample(SamplingSpec::Bernoulli(0.5),
                                    PlanNode::Scan("r" + std::to_string(i)));
    plan = PlanNode::Join(plan, next, "k" + std::to_string(i - 1),
                          "j" + std::to_string(i));
  }
  return plan;
}

/// Synthetic sample view with n lineage dimensions and m rows.
SampleView MakeSyntheticView(int n, int64_t m, uint64_t seed) {
  std::vector<std::string> rels;
  for (int i = 0; i < n; ++i) rels.push_back("r" + std::to_string(i));
  SampleView view;
  view.schema = LineageSchema::Make(rels).ValueOrDie();
  view.lineage.assign(n, {});
  Rng rng(seed);
  for (int64_t r = 0; r < m; ++r) {
    for (int d = 0; d < n; ++d) {
      view.lineage[d].push_back(rng.UniformInt(uint64_t{1} << (4 + d % 4)));
    }
    view.f.push_back(rng.Uniform(0.0, 2.0));
  }
  return view;
}

/// Query 1 at benchmark scale, with catalogs and analysis prebuilt —
/// shared by E3b/E3c/E3d so every section measures the same workload.
struct Query1Bench {
  TpchData data;
  Catalog catalog;
  ColumnarCatalog columnar;
  Workload q1;
  SoaResult soa;
  SboxOptions options;

  explicit Query1Bench(int64_t orders, int gen_threads = 1)
      : data(GenerateTpch(MakeConfig(orders, gen_threads))),
        catalog(data.MakeCatalog()),
        columnar(&catalog),
        q1(MakeQuery1(MakeParams(orders))),
        soa(ValueOrAbort(SoaTransform(q1.plan))) {
    options.subsample = SubsampleConfig{};  // Section 7 path, target 10000
  }

  double lineitems() const {
    return static_cast<double>(data.lineitem.num_rows());
  }

 private:
  static TpchConfig MakeConfig(int64_t orders, int gen_threads) {
    TpchConfig config;
    config.num_orders = orders;
    config.num_customers = orders / 10;
    config.num_parts = 60;
    config.max_lineitems_per_order = 7;
    // gen_threads >= 2 switches to the parallel per-entity-stream layout
    // (a different, equally valid instance) — the big scales use it to
    // keep data generation out of the measured region.
    config.gen_threads = gen_threads;
    return config;
  }
  static Query1Params MakeParams(int64_t orders) {
    Query1Params params;
    params.lineitem_p = 0.5;
    params.orders_n = orders / 2;
    params.orders_population = orders;
    return params;
  }
};

}  // namespace

void PrintSboxRuntime() {
  bench::PrintHeader(
      "E3", "SOA transform + analysis runtime vs number of relations");
  TablePrinter table({"relations", "2^n masks", "transform (us)",
                      "c_S fast (us)", "paper claim"});
  for (int n = 2; n <= 10; ++n) {
    PlanPtr plan = MakeChainPlan(n);
    // Median-of-5 timing.
    double best_transform = 1e18, best_c = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      SoaResult soa = ValueOrAbort(SoaTransform(plan));
      auto t1 = std::chrono::steady_clock::now();
      auto c = soa.top.AllCFast();
      benchmark::DoNotOptimize(c);
      auto t2 = std::chrono::steady_clock::now();
      best_transform = std::min(
          best_transform,
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      best_c = std::min(
          best_c, std::chrono::duration<double, std::micro>(t2 - t1).count());
    }
    table.AddRow({std::to_string(n), std::to_string(1 << n),
                  TablePrinter::Num(best_transform, 4),
                  TablePrinter::Num(best_c, 4),
                  n == 10 ? "'a few milliseconds'" : ""});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: cost grows with 2^n but stays well under a few\n"
      "milliseconds at 10 relations, matching the Section 6.1 claim.\n");
}

/// E3b — row vs columnar engine, end to end (execute + SBox estimate) on
/// Query 1. Both engines draw identical samples (shared index-selection
/// core), so this measures pure execution-representation cost. The
/// speedup is measured here, not asserted: the expected shape is >= 2x for
/// the columnar path at the largest scale.
void PrintEngineComparison() {
  bench::PrintHeader(
      "E3b", "row vs columnar engine: Query 1 execute + estimate");
  TablePrinter table({"orders", "lineitems", "mode", "row (ms)",
                      "columnar (ms)", "speedup", "|est diff|"});
  for (const int64_t orders : {2000L, 8000L, 32000L}) {
    // Columnar ingest happens once, like the row catalog build — both
    // engines then run from their native resident format.
    Query1Bench bench(orders);
    for (const ExecMode mode : {ExecMode::kSampled, ExecMode::kExact}) {
      double best_row = 1e18, best_col = 1e18;
      double est_row = 0.0, est_col = 0.0;
      for (int rep = 0; rep < 5; ++rep) {
        {
          Rng rng(1000 + rep);
          const auto t0 = std::chrono::steady_clock::now();
          Relation sample = ValueOrAbort(
              ExecutePlan(bench.q1.plan, bench.catalog, &rng, mode));
          SampleView view = ValueOrAbort(SampleView::FromRelation(
              sample, bench.q1.aggregate, bench.soa.top.schema()));
          SboxReport report =
              ValueOrAbort(SboxEstimate(bench.soa.top, view, bench.options));
          const auto t1 = std::chrono::steady_clock::now();
          est_row = report.estimate;
          best_row = std::min(
              best_row,
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        {
          Rng rng(1000 + rep);
          const auto t0 = std::chrono::steady_clock::now();
          SboxReport report = ValueOrAbort(EstimatePlanStreaming(
              bench.q1.plan, &bench.columnar, &rng, bench.q1.aggregate,
              bench.soa.top, bench.options, mode));
          const auto t1 = std::chrono::steady_clock::now();
          est_col = report.estimate;
          best_col = std::min(
              best_col,
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
      }
      table.AddRow({std::to_string(orders),
                    std::to_string(bench.data.lineitem.num_rows()),
                    mode == ExecMode::kSampled ? "sampled" : "exact",
                    TablePrinter::Num(best_row, 3),
                    TablePrinter::Num(best_col, 3),
                    TablePrinter::Num(best_row / best_col, 2),
                    TablePrinter::Num(std::abs(est_row - est_col), 6)});
      bench::JsonReporter::Global().Add(
          "E3b",
          (mode == ExecMode::kSampled ? "sampled_" : "exact_") +
              std::to_string(orders),
          {{"orders", static_cast<double>(orders)},
           {"lineitems", bench.lineitems()},
           {"row_ms", best_row},
           {"columnar_ms", best_col},
           {"speedup", best_row / best_col},
           {"rows_per_sec", bench.lineitems() / (best_col / 1000.0)},
           {"est_diff", std::abs(est_row - est_col)}});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: identical estimates (|est diff| = 0 — both engines\n"
      "draw the same sample), with the columnar engine >= 2x faster once\n"
      "the row engine's per-row allocations dominate (largest scale).\n");
}

/// E3c — morsel-parallel thread scaling, end to end (execute + streaming
/// SBox) on Query 1. The headline scale (orders = 1M, ~3.5M lineitems)
/// puts the pivot slices, join sides, and emitted batches far past any
/// L3; the previous 256000-order scale runs as "mid_" and the original
/// 32000-order scale as "small_" (legacy serial data layout) so
/// BENCH_*.json trajectories stay comparable. Timing follows RunTimed
/// (one warmup, then min/median of >= 3 reps); each thread count also
/// runs once with ExecStats attached so the JSON records where the time
/// went (prepare / parallel / fold) alongside the totals. The baseline is
/// the serial columnar streaming path; the morsel engine's estimate is
/// bit-identical across worker counts by construction (|est diff vs 1
/// thread| = 0), so the table doubles as a determinism check.
void PrintThreadScalingAt(int64_t orders, const std::string& name_prefix,
                          int gen_threads, int64_t morsel_rows) {
  bench::PrintHeader(
      "E3c", "morsel-parallel thread scaling: Query 1 execute + estimate "
             "(orders = " + std::to_string(orders) + ")");
  Query1Bench bench(orders, gen_threads);

  const bench::TimedResult serial = bench::RunTimed([&] {
    Rng rng(2000);
    SboxReport report = ValueOrAbort(EstimatePlanStreaming(
        bench.q1.plan, &bench.columnar, &rng, bench.q1.aggregate,
        bench.soa.top, bench.options));
    benchmark::DoNotOptimize(report);
  });
  const double best_serial = serial.min_ms;

  TablePrinter table({"threads", "min (ms)", "median (ms)", "Mrows/s",
                      "speedup vs serial", "|est diff vs 1 thread|"});
  double est_one_thread = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    ExecOptions exec;
    exec.engine = ExecEngine::kMorselParallel;
    exec.num_threads = threads;
    // Explicit morsel_rows keeps the split (and therefore the estimate)
    // identical across the thread counts measured here; the values are
    // sized for ample parallel slack at each scale.
    exec.morsel_rows = morsel_rows;
    double est = 0.0;
    const bench::TimedResult timed = bench::RunTimed([&] {
      Rng rng(2000);
      SboxReport report = ValueOrAbort(EstimatePlanParallel(
          bench.q1.plan, &bench.columnar, &rng, bench.q1.aggregate,
          bench.soa.top, bench.options, ExecMode::kSampled, exec));
      est = report.estimate;
    });
    const double best = timed.min_ms;
    if (threads == 1) est_one_thread = est;
    const double est_diff = std::abs(est - est_one_thread);
    if (est_diff != 0.0) {
      // Thread-count invariance is the engine's core determinism claim;
      // a nonzero diff is a bug, not a measurement.
      std::fprintf(stderr,
                   "[bench] FATAL: estimate differs between 1 and %d "
                   "threads (|diff| = %.17g)\n",
                   threads, est_diff);
      std::abort();
    }
    // One profiled run per thread count: where the time goes, plus pool
    // and arena behavior (a separate run so the timed reps above stay
    // wrapper-free).
    ExecStats stats;
    exec.stats = &stats;
    {
      Rng rng(2000);
      SboxReport report = ValueOrAbort(EstimatePlanParallel(
          bench.q1.plan, &bench.columnar, &rng, bench.q1.aggregate,
          bench.soa.top, bench.options, ExecMode::kSampled, exec));
      benchmark::DoNotOptimize(report);
    }
    table.AddRow({std::to_string(threads), TablePrinter::Num(best, 3),
                  TablePrinter::Num(timed.median_ms, 3),
                  TablePrinter::Num(bench.lineitems() / best / 1000.0, 2),
                  TablePrinter::Num(best_serial / best, 2),
                  TablePrinter::Num(est_diff, 6)});
    bench::JsonReporter::Global().Add(
        "E3c", name_prefix + "threads_" + std::to_string(threads),
        {{"threads", static_cast<double>(threads)},
         {"orders", static_cast<double>(orders)},
         {"ms", best},
         {"median_ms", timed.median_ms},
         {"rows_per_sec", bench.lineitems() / (best / 1000.0)},
         {"speedup_vs_serial", best_serial / best},
         {"est_diff_vs_one_thread", est_diff},
         {"prepare_ms", stats.prepare_ms},
         {"minor_faults", static_cast<double>(stats.minor_faults)},
         {"parallel_ms", stats.parallel_ms},
         {"sink_fold_ms", stats.sink_fold_ms},
         {"morsels", static_cast<double>(stats.morsels)},
         {"sinks_recycled", static_cast<double>(stats.sinks_recycled)},
         {"pool_threads_spawned",
          static_cast<double>(stats.pool_threads_spawned)}});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nSerial columnar baseline: %.3f ms (median %.3f). |est diff| = 0 is\n"
      "asserted (the bench aborts otherwise): the morsel split and merge\n"
      "order are thread-count independent. Speedup tracks the physical\n"
      "core count of the host (hardware threads here: %d).\n",
      best_serial, serial.median_ms, ThreadPool::HardwareThreads());
}

void PrintThreadScaling() {
  const int gen_threads = std::max(2, ThreadPool::HardwareThreads());
  // Headline: ~3.5M lineitems, working set far past L3; ~107 morsels at
  // 32768 rows. Generated with the parallel layout so gen stays cheap.
  PrintThreadScalingAt(1000000, "", gen_threads, 32768);
  // The previous headline scale, for trajectory comparability.
  PrintThreadScalingAt(256000, "mid_", gen_threads, 4096);
  // The original scale, legacy serial data layout (bit-identical to the
  // instances every earlier BENCH_*.json measured).
  PrintThreadScalingAt(32000, "small_", 1, 4096);
}

/// E3d — batch_rows sweep on the serial columnar streaming
/// path (Query 1, largest scale): the batch size trades per-batch dispatch
/// against cache residency.
void PrintBatchSizeSweep() {
  bench::PrintHeader("E3d", "columnar batch-size sweep: Query 1 streaming");
  Query1Bench bench(32000);

  TablePrinter table({"batch_rows", "time (ms)", "Mrows/s"});
  for (const int64_t batch_rows : {256L, 1024L, 2048L, 8192L, 32768L}) {
    double best = 1e18;
    for (int rep = 0; rep < 5; ++rep) {
      Rng rng(3000 + rep);
      const auto t0 = std::chrono::steady_clock::now();
      SboxReport report = ValueOrAbort(EstimatePlanStreaming(
          bench.q1.plan, &bench.columnar, &rng, bench.q1.aggregate,
          bench.soa.top, bench.options, ExecMode::kSampled, batch_rows));
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(report);
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    table.AddRow({std::to_string(batch_rows), TablePrinter::Num(best, 3),
                  TablePrinter::Num(bench.lineitems() / best / 1000.0, 2)});
    bench::JsonReporter::Global().Add(
        "E3d", "batch_rows_" + std::to_string(batch_rows),
        {{"batch_rows", static_cast<double>(batch_rows)},
         {"ms", best},
         {"rows_per_sec", bench.lineitems() / (best / 1000.0)}});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: throughput flat-to-peaked around the 2048 default;\n"
      "very small batches pay per-batch dispatch overhead.\n");
}

/// E5 — shared-nothing sharded estimation (src/dist/): scatter Query 1
/// over N in-process shard workers, serialize every worker's estimator
/// state through the binary wire format, gather, and merge. The workers
/// run sequentially here, so the table measures the *distribution tax* —
/// redundant serial subtrees per shard, serialization, transport, gather —
/// not a speedup; wall-clock scale-out needs real processes
/// (examples/sharded_estimate.cc). Bit-equality across shard counts is
/// asserted, as in E3c.
void PrintShardedScaling() {
  bench::PrintHeader(
      "E5", "sharded scatter/gather: Query 1 shared-nothing estimation");
  Query1Bench bench(32000);
  ExecOptions exec;
  exec.morsel_rows = 4096;  // same split as E3c

  // Baseline: the single-process morsel engine at the same split.
  double best_morsel = 1e18;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(4000 + rep);
    const auto t0 = std::chrono::steady_clock::now();
    SboxReport report = ValueOrAbort(EstimatePlanParallel(
        bench.q1.plan, &bench.columnar, &rng, bench.q1.aggregate,
        bench.soa.top, bench.options, ExecMode::kSampled, exec));
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(report);
    best_morsel = std::min(
        best_morsel,
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }

  TablePrinter table({"shards", "scatter+gather (ms)", "wire bytes",
                      "bytes/shard", "tax vs morsel", "|est diff|"});
  double est_one = 0.0;
  for (const int shards : {1, 2, 4, 8}) {
    double best = 1e18;
    double est = 0.0;
    uint64_t wire_bytes = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      // Scatter through the real worker + transport + gather path so the
      // measurement covers serialization and validation, not just
      // execution.
      LocalTransport transport;
      wire_bytes = 0;
      for (int k = 0; k < shards; ++k) {
        std::string bundle = ValueOrAbort(RunShardSbox(
            bench.q1.plan, &bench.columnar, /*seed=*/4321,
            ExecMode::kSampled, exec, k, shards, bench.q1.aggregate,
            bench.soa.top, bench.options));
        wire_bytes += bundle.size();
        bench::CheckOk(transport.Send(k, std::move(bundle)));
      }
      SboxReport report =
          ValueOrAbort(GatherSboxEstimate(&transport, shards)).report;
      const auto t1 = std::chrono::steady_clock::now();
      est = report.estimate;
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (shards == 1) est_one = est;
    const double est_diff = std::abs(est - est_one);
    if (est_diff != 0.0) {
      // Shard-count invariance is the dist layer's core claim.
      std::fprintf(stderr,
                   "[bench] FATAL: estimate differs between 1 and %d "
                   "shards (|diff| = %.17g)\n",
                   shards, est_diff);
      std::abort();
    }
    table.AddRow({std::to_string(shards), TablePrinter::Num(best, 3),
                  std::to_string(wire_bytes),
                  std::to_string(wire_bytes / shards),
                  TablePrinter::Num(best / best_morsel, 2),
                  TablePrinter::Num(est_diff, 6)});
    bench::JsonReporter::Global().Add(
        "E5", "shards_" + std::to_string(shards),
        {{"shards", static_cast<double>(shards)},
         {"ms", best},
         {"wire_bytes", static_cast<double>(wire_bytes)},
         {"bytes_per_shard", static_cast<double>(wire_bytes / shards)},
         {"tax_vs_morsel", best / best_morsel},
         {"est_diff_vs_one_shard", est_diff}});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nMorsel baseline: %.3f ms. |est diff| = 0 is asserted. Expected\n"
      "shape: the tax grows with the shard count (each shard re-executes\n"
      "the serial join builds — the price of shared-nothing workers), and\n"
      "bytes/shard stays bounded by the Section-7 retained set, not the\n"
      "data size.\n",
      best_morsel);
}

/// E4 — hot-path kernels, old vs new: the flat open-addressing
/// JoinHashTable against the previous unordered_map-of-vectors build, and
/// the geometric-skip Bernoulli kernel against the per-row coin loop (with
/// Rng draw counts). Both "old" baselines are verbatim re-implementations
/// of the pre-kernel code, kept here so BENCH_*.json tracks the
/// trajectory.
void PrintHotPathKernelsAt(int64_t build_rows, int64_t probe_rows,
                           int64_t scan_rows, const std::string& name_suffix) {
  bench::PrintHeader("E4",
                     "hot-path kernels: join table + skip sampling (build " +
                         std::to_string(build_rows) + ", probe " +
                         std::to_string(probe_rows) + ")");

  // -- Join build + probe --------------------------------------------------
  const int64_t key_space = build_rows / 2;  // ~2 duplicates per key
  Rng key_rng(42);
  std::vector<uint64_t> build_hashes(build_rows), probe_hashes(probe_rows);
  for (auto& h : build_hashes) {
    h = HashInt64Key(
        static_cast<int64_t>(key_rng.UniformInt(
            static_cast<uint64_t>(key_space))));
  }
  for (auto& h : probe_hashes) {
    h = HashInt64Key(
        static_cast<int64_t>(key_rng.UniformInt(
            static_cast<uint64_t>(key_space * 2))));  // ~50% hit rate
  }

  double old_build = 1e18, old_probe = 1e18;
  double new_build = 1e18, new_probe = 1e18;
  uint64_t old_matches = 0, new_matches = 0;
  for (int rep = 0; rep < 5; ++rep) {
    {
      auto t0 = std::chrono::steady_clock::now();
      std::unordered_map<uint64_t, std::vector<int64_t>> table;
      table.reserve(static_cast<size_t>(build_rows));
      for (int64_t i = 0; i < build_rows; ++i) {
        table[build_hashes[i]].push_back(i);
      }
      auto t1 = std::chrono::steady_clock::now();
      std::vector<int64_t> probe_idx, build_idx;
      probe_idx.reserve(static_cast<size_t>(probe_rows) * 2);
      build_idx.reserve(static_cast<size_t>(probe_rows) * 2);
      for (int64_t j = 0; j < probe_rows; ++j) {
        auto it = table.find(probe_hashes[j]);
        if (it == table.end()) continue;
        for (const int64_t b : it->second) {
          probe_idx.push_back(j);
          build_idx.push_back(b);
        }
      }
      auto t2 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(build_idx);
      old_matches = build_idx.size();
      old_build = std::min(
          old_build,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      old_probe = std::min(
          old_probe,
          std::chrono::duration<double, std::milli>(t2 - t1).count());
    }
    {
      auto t0 = std::chrono::steady_clock::now();
      JoinHashTable table;
      bench::CheckOk(table.Build(build_hashes.data(), build_rows));
      auto t1 = std::chrono::steady_clock::now();
      std::vector<int64_t> probe_idx, build_idx;
      probe_idx.reserve(static_cast<size_t>(probe_rows) * 2);
      build_idx.reserve(static_cast<size_t>(probe_rows) * 2);
      table.ProbeBatch(probe_hashes.data(), probe_rows, &probe_idx,
                       &build_idx);
      auto t2 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(build_idx);
      new_matches = build_idx.size();
      new_build = std::min(
          new_build,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      new_probe = std::min(
          new_probe,
          std::chrono::duration<double, std::milli>(t2 - t1).count());
    }
  }
  if (old_matches != new_matches) {
    std::fprintf(stderr, "[bench] FATAL: join match counts differ\n");
    std::abort();
  }
  const double old_probe_rps = probe_rows / (old_probe / 1000.0);
  const double new_probe_rps = probe_rows / (new_probe / 1000.0);
  TablePrinter join_table({"path", "build (ms)", "probe (ms)",
                           "probe Mrows/s", "speedup"});
  join_table.AddRow({"unordered_map", TablePrinter::Num(old_build, 3),
                     TablePrinter::Num(old_probe, 3),
                     TablePrinter::Num(old_probe_rps / 1e6, 2), "1.00"});
  join_table.AddRow({"JoinHashTable", TablePrinter::Num(new_build, 3),
                     TablePrinter::Num(new_probe, 3),
                     TablePrinter::Num(new_probe_rps / 1e6, 2),
                     TablePrinter::Num(old_probe / new_probe, 2)});
  std::printf("%s", join_table.ToString().c_str());
  bench::JsonReporter::Global().Add(
      "E4", "join_kernel" + name_suffix,
      {{"build_rows", static_cast<double>(build_rows)},
       {"probe_rows", static_cast<double>(probe_rows)},
       {"old_build_ms", old_build},
       {"old_probe_ms", old_probe},
       {"kernel_build_ms", new_build},
       {"kernel_probe_ms", new_probe},
       {"probe_rows_per_sec", new_probe_rps},
       {"probe_speedup", old_probe / new_probe},
       {"build_speedup", old_build / new_build}});

  // -- Bernoulli scan ------------------------------------------------------
  const double p = 0.01;
  double old_scan = 1e18, new_scan = 1e18;
  uint64_t old_draws = 0, new_draws = 0;
  size_t old_kept = 0, new_kept = 0;
  for (int rep = 0; rep < 5; ++rep) {
    {
      Rng rng(1000 + rep);
      rng.ResetDrawCount();
      auto t0 = std::chrono::steady_clock::now();
      std::vector<int64_t> keep;  // the pre-kernel per-row coin loop
      for (int64_t i = 0; i < scan_rows; ++i) {
        if (rng.Bernoulli(p)) keep.push_back(i);
      }
      auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(keep);
      old_kept = keep.size();
      old_draws = rng.num_draws();
      old_scan = std::min(
          old_scan,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    {
      Rng rng(1000 + rep);
      rng.ResetDrawCount();
      auto t0 = std::chrono::steady_clock::now();
      std::vector<int64_t> keep;
      SkipBernoulliKeepIndices(scan_rows, p, &rng, &keep);
      auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(keep);
      new_kept = keep.size();
      new_draws = rng.num_draws();
      new_scan = std::min(
          new_scan,
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  TablePrinter scan_table({"path", "time (ms)", "Mrows/s", "rng draws",
                           "kept", "speedup"});
  scan_table.AddRow(
      {"per-row coin", TablePrinter::Num(old_scan, 3),
       TablePrinter::Num(scan_rows / old_scan / 1000.0, 2),
       std::to_string(old_draws), std::to_string(old_kept), "1.00"});
  scan_table.AddRow(
      {"geometric skip", TablePrinter::Num(new_scan, 3),
       TablePrinter::Num(scan_rows / new_scan / 1000.0, 2),
       std::to_string(new_draws), std::to_string(new_kept),
       TablePrinter::Num(old_scan / new_scan, 2)});
  std::printf("%s", scan_table.ToString().c_str());
  std::printf(
      "\nExpected shape: probe speedup >= 2x (flat table, no pointer\n"
      "chasing) and >= 5x fewer rng draws at p = %.2f (draws ~ pN + 1,\n"
      "measured ratio ~%.0fx).\n",
      p, static_cast<double>(old_draws) / static_cast<double>(new_draws));
  bench::JsonReporter::Global().Add(
      "E4", "bernoulli_kernel" + name_suffix,
      {{"rows", static_cast<double>(scan_rows)},
       {"p", p},
       {"old_ms", old_scan},
       {"kernel_ms", new_scan},
       {"old_rng_draws", static_cast<double>(old_draws)},
       {"kernel_rng_draws", static_cast<double>(new_draws)},
       {"rng_draw_ratio",
        static_cast<double>(old_draws) / static_cast<double>(new_draws)},
       {"scan_speedup", old_scan / new_scan},
       {"rows_per_sec", scan_rows / (new_scan / 1000.0)}});
}

void PrintHotPathKernels() {
  // Headline scale past L3: the probe hash array alone is 128 MiB and the
  // emitted candidate-pair vectors push the working set well beyond even
  // a 260 MiB cache. The pre-bump scale stays as the "_small" variant so
  // BENCH_*.json trajectories remain comparable.
  PrintHotPathKernelsAt(1 << 22, 1 << 24, 1 << 24, "");
  PrintHotPathKernelsAt(1 << 20, 1 << 22, 1 << 22, "_small");
}

/// E7 — the dispatched SIMD kernels, tier vs tier: each of the five
/// vectorized hot loops (predicate eval, key hashing, join-pair recheck,
/// grouped-key gather+hash, Bernoulli keep-mask) timed under every tier
/// the host can run, at an out-of-L3 element count. The scalar tier is
/// the baseline; outputs are digest-checked byte-identical across tiers
/// (the bench aborts otherwise), so the speedups are measured on provably
/// bit-equal work.
void PrintSimdKernelTiers() {
  const int64_t n = int64_t{1} << 24;  // 128 MiB in + 128 MiB out per kernel
  bench::PrintHeader(
      "E7", "SIMD kernel tiers: scalar vs AVX2 vs AVX-512 at n = " +
                std::to_string(n));
  bench::JsonReporter::Global().Add(
      "E7", "dispatch",
      {{"detected_tier",
        static_cast<double>(static_cast<int>(simd::DetectedSimdTier()))},
       {"active_tier",
        static_cast<double>(static_cast<int>(simd::ActiveSimdTier()))},
       {"n", static_cast<double>(n)}});
  std::printf("detected tier: %s (active: %s)\n",
              simd::SimdTierName(simd::DetectedSimdTier()),
              simd::SimdTierName(simd::ActiveSimdTier()));

  TablePrinter table({"kernel", "tier", "time (ms)", "Melems/s",
                      "speedup vs scalar", "digest ok"});
  // Runs one kernel under every available tier; `run_once` times one pass
  // itself (so input re-copies stay out of the measurement) and returns a
  // digest of the kernel's full output.
  auto time_tiers = [&](const std::string& kernel,
                        const std::function<uint64_t(double*)>& run_once) {
    double scalar_ms = 0.0;
    uint64_t reference_digest = 0;
    for (const simd::SimdTier tier :
         {simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
          simd::SimdTier::kAvx512}) {
      if (simd::SetSimdTierForTesting(tier) != tier) {
        simd::ResetSimdTierForTesting();
        continue;  // host (or build) can't run this tier
      }
      double best = 1e18;
      uint64_t digest = 0;
      for (int rep = 0; rep < 5; ++rep) {
        double ms = 0.0;
        digest = run_once(&ms);
        best = std::min(best, ms);
      }
      simd::ResetSimdTierForTesting();
      if (tier == simd::SimdTier::kScalar) {
        scalar_ms = best;
        reference_digest = digest;
      } else if (digest != reference_digest) {
        std::fprintf(stderr,
                     "[bench] FATAL: %s output differs between scalar and "
                     "%s tiers\n",
                     kernel.c_str(), simd::SimdTierName(tier));
        std::abort();
      }
      table.AddRow({kernel, simd::SimdTierName(tier),
                    TablePrinter::Num(best, 3),
                    TablePrinter::Num(n / best / 1000.0, 2),
                    TablePrinter::Num(scalar_ms / best, 2), "yes"});
      bench::JsonReporter::Global().Add(
          "E7", kernel + "_" + simd::SimdTierName(tier),
          {{"n", static_cast<double>(n)},
           {"ms", best},
           {"elems_per_sec", n / (best / 1000.0)},
           {"speedup_vs_scalar", scalar_ms / best}});
    }
  };
  auto digest_of = [](const void* data, int64_t bytes) {
    return HashBytes(kFnv1aOffset, data, static_cast<unsigned long>(bytes));
  };

  Rng rng(99);
  // Shared inputs. Values are small-range so the predicate and recheck
  // kernels keep a realistic fraction of their input.
  std::vector<double> f64_col(n);
  std::vector<int64_t> i64_col(n);
  std::vector<uint64_t> lineage(n);
  std::vector<int64_t> rows(n);
  const int64_t val_rows = 1 << 20;
  std::vector<int64_t> probe_vals(val_rows), build_vals(val_rows);
  for (int64_t i = 0; i < n; ++i) {
    f64_col[i] = static_cast<double>(rng.UniformInt(1000));
    i64_col[i] = static_cast<int64_t>(rng.UniformInt(uint64_t{1} << 40));
    lineage[i] = rng.Next();
    rows[i] = static_cast<int64_t>(rng.UniformInt(
        static_cast<uint64_t>(val_rows)));
  }
  for (int64_t i = 0; i < val_rows; ++i) {
    probe_vals[i] = static_cast<int64_t>(rng.UniformInt(64));
    build_vals[i] = static_cast<int64_t>(rng.UniformInt(64));
  }
  std::vector<int64_t> sel(n);
  std::vector<uint64_t> hashes(n);
  std::vector<int64_t> pair_probe(n), pair_build(n);

  time_tiers("predicate_eval", [&](double* ms) {
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t w =
        simd::SelCmpF64Lit(simd::CmpOp::kGt, f64_col.data(), n, 500.0,
                           sel.data());
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sel.data());
    *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return digest_of(sel.data(), w * 8);
  });
  time_tiers("key_hash", [&](double* ms) {
    const auto t0 = std::chrono::steady_clock::now();
    simd::HashI64Keys(i64_col.data(), n, hashes.data());
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(hashes.data());
    *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return digest_of(hashes.data(), n * 8);
  });
  time_tiers("key_recheck", [&](double* ms) {
    // In-place compaction: restore the candidate pair lists before timing.
    std::copy(rows.begin(), rows.end(), pair_probe.begin());
    std::copy(rows.rbegin(), rows.rend(), pair_build.begin());
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t w = simd::CompactEqualPairsI64(
        probe_vals.data(), build_vals.data(), pair_probe.data(),
        pair_build.data(), /*begin=*/0, n);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(pair_probe.data());
    *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    uint64_t d = digest_of(pair_probe.data(), w * 8);
    return HashBytes(d, pair_build.data(), static_cast<unsigned long>(w * 8));
  });
  time_tiers("grouped_key_hash", [&](double* ms) {
    // The group-by feed: gather each selected row's key and hash it.
    const auto t0 = std::chrono::steady_clock::now();
    simd::HashI64KeysGather(probe_vals.data(), rows.data(), n, hashes.data());
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(hashes.data());
    *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return digest_of(hashes.data(), n * 8);
  });
  const uint64_t threshold = simd::LineageKeepThreshold(0.1);
  time_tiers("keep_mask", [&](double* ms) {
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t w = simd::LineageKeepDense(
        /*seed=*/1234, threshold, lineage.data(), /*stride=*/1, /*begin=*/0,
        n, sel.data());
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(sel.data());
    *ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    return digest_of(sel.data(), w * 8);
  });
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: compare+compact (predicate_eval) wins on every\n"
      "wide tier (>= 2x AVX2, more on AVX-512). The Mix64 family\n"
      "(key_hash, grouped_key_hash, keep_mask) needs a 64-bit lane\n"
      "multiply: AVX2 emulates it with three 32x32 partial products and\n"
      "lands near 1x, while AVX-512's native vpmullq pulls ahead\n"
      "(keep_mask >= 2x). Gather-fed kernels (key_recheck,\n"
      "grouped_key_hash) are bound by memory parallelism at this\n"
      "out-of-L3 scale, not ALU width — their win came from batching the\n"
      "call sites (E3/E4), not lanes. \"digest ok\" certifies\n"
      "byte-identical outputs across tiers: no speedup is ever bought\n"
      "with a different answer.\n");
}

/// E6 — full pivot coverage: (a) a fixed-size (WOR) pivot estimated
/// serial vs morsel-parallel — the seed-decoupled mergeable reservoir
/// makes the parallel draw IDENTICAL to the serial one, so the speedup is
/// measured on bit-equal work (thread-invariance asserted; serial-vs-
/// parallel estimates agree up to summation association); and (b) the
/// partition-parallel JoinHashTable build, byte-identical to the serial
/// build (StateDigest asserted) with measurable scaling.
void PrintFixedSizeParallelScaling() {
  bench::PrintHeader(
      "E6", "parallel fixed-size sampling + partition-parallel join build");

  // (a) WOR-pivot plan over TPC-H lineitem joined with orders.
  Query1Bench bench(32000);
  const int64_t lineitems = bench.data.lineitem.num_rows();
  PlanPtr plan = PlanNode::Join(
      PlanNode::Sample(
          SamplingSpec::WithoutReplacement(lineitems / 2, lineitems),
          PlanNode::Scan("l")),
      PlanNode::Scan("o"), "l_orderkey", "o_orderkey");
  SoaResult soa = ValueOrAbort(SoaTransform(plan));
  ExprPtr f = Col("l_extendedprice");

  double serial_ms = 1e18;
  double serial_est = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(6000);
    const auto t0 = std::chrono::steady_clock::now();
    SboxReport report = ValueOrAbort(
        EstimatePlanStreaming(plan, &bench.columnar, &rng, f, soa.top,
                              bench.options));
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(report);
    serial_est = report.estimate;
    serial_ms = std::min(
        serial_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }

  ExecOptions exec;
  exec.morsel_rows = 4096;
  TablePrinter wor_table({"threads", "serial (ms)", "parallel (ms)",
                          "speedup", "rel |est diff| vs serial"});
  double est_one = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    exec.num_threads = threads;
    double best = 1e18;
    double est = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      Rng rng(6000);
      const auto t0 = std::chrono::steady_clock::now();
      SboxReport report = ValueOrAbort(
          EstimatePlanParallel(plan, &bench.columnar, &rng, f, soa.top,
                               bench.options, ExecMode::kSampled, exec));
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(report);
      est = report.estimate;
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (threads == 1) {
      est_one = est;
    } else if (est != est_one) {
      // The mergeable-reservoir draw is thread-count invariant by design.
      std::fprintf(stderr,
                   "[bench] FATAL: WOR-pivot estimate differs between 1 "
                   "and %d threads\n",
                   threads);
      std::abort();
    }
    const double rel_diff =
        std::abs(est - serial_est) / std::max(1.0, std::abs(serial_est));
    wor_table.AddRow({std::to_string(threads), TablePrinter::Num(serial_ms, 3),
                      TablePrinter::Num(best, 3),
                      TablePrinter::Num(serial_ms / best, 2),
                      TablePrinter::Num(rel_diff, 9)});
    bench::JsonReporter::Global().Add(
        "E6", "wor_pivot_threads_" + std::to_string(threads),
        {{"threads", static_cast<double>(threads)},
         {"serial_ms", serial_ms},
         {"parallel_ms", best},
         {"speedup", serial_ms / best},
         {"rel_est_diff_vs_serial", rel_diff},
         {"rows", static_cast<double>(lineitems)}});
  }
  std::printf("%s", wor_table.ToString().c_str());

  // (b) Partition-parallel join build on a 4M-row key column.
  const int64_t build_rows = 4'000'000;
  std::vector<uint64_t> hashes(build_rows);
  Rng key_rng(77);
  for (auto& h : hashes) {
    h = HashInt64Key(
        static_cast<int64_t>(key_rng.UniformInt(uint64_t{1} << 20)));
  }
  JoinHashTable reference;
  bench::CheckOk(reference.Build(hashes.data(), build_rows, nullptr, 1));
  const uint64_t reference_digest = reference.StateDigest();

  TablePrinter build_table({"threads", "build (ms)", "speedup", "digest ok"});
  double build_one = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    double best = 1e18;
    uint64_t digest = 0;
    for (int rep = 0; rep < 5; ++rep) {
      JoinHashTable table;
      const auto t0 = std::chrono::steady_clock::now();
      bench::CheckOk(table.Build(hashes.data(), build_rows, nullptr, threads));
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(table);
      digest = table.StateDigest();
      best = std::min(
          best, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    if (digest != reference_digest) {
      std::fprintf(stderr,
                   "[bench] FATAL: parallel join build digest differs from "
                   "serial at %d threads\n",
                   threads);
      std::abort();
    }
    if (threads == 1) build_one = best;
    build_table.AddRow({std::to_string(threads), TablePrinter::Num(best, 3),
                        TablePrinter::Num(build_one / best, 2), "yes"});
    bench::JsonReporter::Global().Add(
        "E6", "join_build_threads_" + std::to_string(threads),
        {{"threads", static_cast<double>(threads)},
         {"build_ms", best},
         {"speedup_vs_one_thread", build_one / best},
         {"rows", static_cast<double>(build_rows)}});
  }
  std::printf("%s", build_table.ToString().c_str());
  std::printf(
      "\nThe WOR-pivot draw is identical serial vs parallel (the reservoir\n"
      "is seed-decoupled); the residual estimate diff is floating-point\n"
      "summation association only. The join build digest pins the parallel\n"
      "directory to the serial bytes. Hardware threads here: %d — speedups\n"
      "flatten at 1 (correctness asserts still run; scaling shows on\n"
      "multi-core runners).\n",
      ThreadPool::HardwareThreads());
}

// ---------------------------------------------------------------------------
// E8 — out-of-core segment scans: zone-map + keep-set skipping vs a full
// fault-in, at three predicate selectivities, cold vs warm cache. The
// estimate must not move by one bit in any configuration (the bench
// aborts otherwise): skipping is whole-morsel and provably empty units
// fold untouched sinks.

void PrintSegmentSkipping() {
  bench::PrintHeader(
      "E8", "segment scans: zone-map/keep-set skipping vs full fault-in");

  constexpr int64_t kOrders = 30000;
  constexpr int64_t kSegmentRows = 4096;
  TpchConfig config;
  config.num_orders = kOrders;
  config.num_customers = kOrders / 10;
  config.num_parts = 60;
  config.gen_threads = ThreadPool::HardwareThreads() >= 2 ? 4 : 1;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  const int64_t lineitem_rows = data.lineitem.num_rows();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "gus_bench_e8").string();
  std::filesystem::remove_all(dir);
  {
    const Status st = WriteCatalogSegments(catalog, dir, kSegmentRows);
    if (!st.ok()) {
      std::fprintf(stderr, "[bench] cannot write E8 segments: %s\n",
                   st.ToString().c_str());
      std::abort();
    }
  }

  TablePrinter table({"selectivity", "config", "min (ms)", "segments",
                      "skipped", "faulted", "MiB read", "|est diff|"});

  // Selectivity via the sorted l_orderkey prefix: ~1%, ~10%, ~50%.
  for (const double selectivity : {0.01, 0.10, 0.50}) {
    const int64_t key_cut =
        static_cast<int64_t>(static_cast<double>(kOrders) * selectivity);
    PlanPtr plan = PlanNode::SelectNode(
        Lt(Col("l_orderkey"), Lit(key_cut)),
        PlanNode::Sample(SamplingSpec::WithoutReplacement(100, lineitem_rows),
                         PlanNode::Scan("l")));
    SoaResult soa = ValueOrAbort(SoaTransform(plan));
    const ExprPtr f = Col("l_quantity");
    SboxOptions sbox;

    ExecOptions exec;
    exec.engine = ExecEngine::kMorselParallel;
    exec.num_threads = 1;
    // Segment-aligned morsels: skipping operates per segment, and the
    // unit geometry matches the in-memory baseline exactly.
    exec.morsel_rows = kSegmentRows;

    // In-memory baseline: the bit-parity reference.
    ColumnarCatalog mem_catalog(&catalog);
    double baseline_est = 0.0;
    {
      Rng rng(42);
      SboxReport report = ValueOrAbort(
          EstimatePlanParallel(plan, &mem_catalog, &rng, f, soa.top, sbox,
                               ExecMode::kSampled, exec));
      baseline_est = report.estimate;
    }

    struct E8Config {
      const char* label;
      bool prune;
      bool warm;
    };
    for (const E8Config& cfg :
         {E8Config{"noskip_cold", false, false},
          E8Config{"skip_cold", true, false},
          E8Config{"skip_warm", true, true}}) {
      auto stored_catalog = ValueOrAbort(SegmentCatalog::Open(dir));
      ExecOptions stored_exec = exec;
      stored_exec.prune_segments = cfg.prune;
      double est = 0.0;
      ExecStats stats;
      auto run_once = [&] {
        // A "cold" rep must re-fault every surviving segment; RunTimed
        // repeats the body, so drop residency each time.
        if (!cfg.warm) stored_catalog->segment_cache()->Clear();
        stored_exec.stats = &stats;
        Rng rng(42);
        SboxReport report = ValueOrAbort(EstimatePlanParallel(
            plan, stored_catalog.get(), &rng, f, soa.top, sbox,
            ExecMode::kSampled, stored_exec));
        est = report.estimate;
      };
      if (cfg.warm) run_once();  // pre-fault the cache, then measure
      const bench::TimedResult timed = bench::RunTimed(run_once);

      const double est_diff = std::abs(est - baseline_est);
      if (est_diff != 0.0) {
        std::fprintf(stderr,
                     "[bench] FATAL: E8 estimate differs from the in-memory "
                     "baseline (selectivity %.2f, %s, |diff| = %.17g)\n",
                     selectivity, cfg.label, est_diff);
        std::abort();
      }
      // Segment accounting on a cold cache (one thread, one segment per
      // unit): pruning on, every segment is skipped or faulted exactly
      // once; pruning off, nothing is skipped and only the segments a leaf
      // reads fault (the keep slice reads those holding a kept row).
      if (!cfg.warm) {
        const bool identity_holds =
            cfg.prune ? stats.segments_skipped + stats.segments_faulted ==
                            stats.segments_total
                      : stats.segments_skipped == 0 &&
                            stats.segments_faulted <= stats.segments_total;
        if (!identity_holds) {
          std::fprintf(stderr,
                       "[bench] FATAL: E8 segment accounting broken "
                       "(selectivity %.2f, %s: total %lld, skipped %lld, "
                       "faulted %lld)\n",
                       selectivity, cfg.label,
                       static_cast<long long>(stats.segments_total),
                       static_cast<long long>(stats.segments_skipped),
                       static_cast<long long>(stats.segments_faulted));
          std::abort();
        }
      }
      const double skip_fraction =
          stats.segments_total > 0
              ? static_cast<double>(stats.segments_skipped) /
                    static_cast<double>(stats.segments_total)
              : 0.0;
      if (cfg.prune && selectivity <= 0.01 && skip_fraction < 0.5) {
        std::fprintf(stderr,
                     "[bench] FATAL: E8 selective scan skipped only %.0f%% "
                     "of segments (want >= 50%%)\n",
                     100.0 * skip_fraction);
        std::abort();
      }
      table.AddRow({TablePrinter::Num(selectivity, 2), cfg.label,
                    TablePrinter::Num(timed.min_ms, 3),
                    std::to_string(stats.segments_total),
                    std::to_string(stats.segments_skipped),
                    std::to_string(stats.segments_faulted),
                    TablePrinter::Num(
                        static_cast<double>(stats.store_bytes_read) /
                            (1024.0 * 1024.0),
                        2),
                    TablePrinter::Num(est_diff, 6)});
      bench::JsonReporter::Global().Add(
          "E8",
          std::string(cfg.label) + "_sel_" + TablePrinter::Num(selectivity, 2),
          {{"selectivity", selectivity},
           {"prune", cfg.prune ? 1.0 : 0.0},
           {"warm_cache", cfg.warm ? 1.0 : 0.0},
           {"ms", timed.min_ms},
           {"median_ms", timed.median_ms},
           {"segments_total", static_cast<double>(stats.segments_total)},
           {"segments_skipped", static_cast<double>(stats.segments_skipped)},
           {"segments_faulted", static_cast<double>(stats.segments_faulted)},
           {"store_bytes_read", static_cast<double>(stats.store_bytes_read)},
           {"skip_fraction", skip_fraction},
           {"est_diff", est_diff}});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nWOR keep-set + zone-map pruning over %lld-row segments. |est diff|\n"
      "= 0 is asserted against the in-memory run: skipped units fold\n"
      "untouched sinks, so skipping can never move an estimate. Cold runs\n"
      "pay fault-in for exactly the surviving segments; warm runs serve\n"
      "them from the pinned-segment cache.\n",
      static_cast<long long>(kSegmentRows));
  std::filesystem::remove_all(dir);
}

void PrintSboxRuntimeAll() {
  PrintSboxRuntime();
  PrintEngineComparison();
  PrintThreadScaling();
  PrintBatchSizeSweep();
  PrintShardedScaling();
  PrintFixedSizeParallelScaling();
  PrintHotPathKernels();
  PrintSimdKernelTiers();
  PrintSegmentSkipping();
}

namespace {

void BM_ExecuteQuery1Row(benchmark::State& state) {
  TpchConfig config;
  config.num_orders = state.range(0);
  config.num_customers = state.range(0) / 10;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.lineitem_p = 0.5;
  params.orders_n = state.range(0) / 2;
  params.orders_population = state.range(0);
  Workload q1 = MakeQuery1(params);
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto result = ExecutePlan(q1.plan, catalog, &rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * data.lineitem.num_rows());
}
BENCHMARK(BM_ExecuteQuery1Row)->RangeMultiplier(4)->Range(2000, 32000);

void BM_ExecuteQuery1Columnar(benchmark::State& state) {
  TpchConfig config;
  config.num_orders = state.range(0);
  config.num_customers = state.range(0) / 10;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  Query1Params params;
  params.lineitem_p = 0.5;
  params.orders_n = state.range(0) / 2;
  params.orders_population = state.range(0);
  Workload q1 = MakeQuery1(params);
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    auto result = ExecutePlanColumnar(q1.plan, &columnar, &rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * data.lineitem.num_rows());
}
BENCHMARK(BM_ExecuteQuery1Columnar)->RangeMultiplier(4)->Range(2000, 32000);

void BM_SoaTransformChain(benchmark::State& state) {
  PlanPtr plan = MakeChainPlan(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto soa = SoaTransform(plan);
    benchmark::DoNotOptimize(soa);
  }
}
BENCHMARK(BM_SoaTransformChain)->DenseRange(2, 10, 2);

void BM_SboxEstimateBySampleSize(benchmark::State& state) {
  const auto m = static_cast<int64_t>(state.range(0));
  SampleView view = MakeSyntheticView(3, m, 11);
  std::vector<DimBernoulli> dims;
  for (const auto& rel : view.schema.relations()) dims.push_back({rel, 0.5});
  GusParams gus =
      ValueOrAbort(MultiDimBernoulliGus(view.schema, dims));
  for (auto _ : state) {
    auto report = SboxEstimate(gus, view);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_SboxEstimateBySampleSize)->RangeMultiplier(4)->Range(1000, 256000);

void BM_SboxEstimateByArity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SampleView view = MakeSyntheticView(n, 20000, 12);
  std::vector<DimBernoulli> dims;
  for (const auto& rel : view.schema.relations()) dims.push_back({rel, 0.5});
  GusParams gus =
      ValueOrAbort(MultiDimBernoulliGus(view.schema, dims));
  for (auto _ : state) {
    auto report = SboxEstimate(gus, view);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SboxEstimateByArity)->DenseRange(2, 8, 2);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintSboxRuntimeAll)
