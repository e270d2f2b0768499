// seg_scan: a 1% WOR sample of lineitem under a 10%-of-keys l_orderkey
// range, estimated by EstimatePlanParallel over a SegmentCatalog whose
// segment cache holds about a quarter of the data. Each query prunes most
// segments by zone map and faults (and evicts) the rest, so the store's
// prune/fault/decode/evict loop does the work; sqlish, serve and dist are
// bypassed. Selectivity is fixed, so the latency has one mode.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "data/tpch_gen.h"
#include "est/streaming.h"
#include "plan/exec_stats.h"
#include "plan/plan_node.h"
#include "plan/soa_transform.h"
#include "rel/expression.h"
#include "sampling/spec.h"
#include "store/segment_cache.h"
#include "store/segment_catalog.h"
#include "trace.h"
#include "workloads.h"

namespace gusbench {
namespace {

struct Sizes {
  int64_t orders;
  int64_t segment_rows;
  int64_t cache_bytes;
};

constexpr Sizes kFull{250000, 32768, 16ll << 20};
constexpr Sizes kSmoke{4000, 1024, 256ll << 10};
constexpr int kRepeatEvery = 4;
/// latency_tail_ms percentile: 200+ main operations a run keep 20+
/// samples beyond it.
constexpr double kTailQuantile = 0.90;
constexpr double kSampleFraction = 0.01;  // WOR n = 1% of |l|
constexpr double kKeyFraction = 0.10;     // l_orderkey range width

/// The query for key range [lo, lo + width).
gus::PlanPtr RangePlan(int64_t lo, int64_t width, int64_t lineitems) {
  const auto n = static_cast<int64_t>(kSampleFraction *
                                      static_cast<double>(lineitems));
  return gus::PlanNode::SelectNode(
      gus::And(gus::Ge(gus::Col("l_orderkey"), gus::Lit(gus::Value(lo))),
               gus::Lt(gus::Col("l_orderkey"),
                       gus::Lit(gus::Value(lo + width)))),
      gus::PlanNode::Sample(gus::SamplingSpec::WithoutReplacement(n, lineitems),
                            gus::PlanNode::Scan("l")));
}

struct Answer {
  uint64_t seed = 0;
  int64_t lo = 0;
  gus::SboxReport report;
};

struct Phase {
  Latencies fresh;
  Latencies repeat;
  std::vector<Answer> answers;
  int64_t ops = 0;
  double wall_s = 0.0;
};

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

int64_t ColumnBytes(const gus::ColumnarRelation& rel) {
  const gus::ColumnBatch& data = rel.data();
  int64_t bytes = static_cast<int64_t>(data.lineage().size()) * 8;
  for (int c = 0; c < data.num_columns(); ++c) {
    const gus::ColumnData& col = data.column(c);
    bytes += static_cast<int64_t>(col.i64.size() * 8 + col.f64.size() * 8 +
                                  col.codes.size() * 4);
  }
  return bytes;
}

}  // namespace

int RunSegScan(const Options& opt, RunReport* report) {
  const Sizes sizes = opt.smoke ? kSmoke : kFull;
  const uint64_t data_seed = MixSeed(opt.seed, 0xDA7A);
  const int64_t width =
      static_cast<int64_t>(kKeyFraction * static_cast<double>(sizes.orders));
  const std::string dir =
      opt.work_dir + "/segs-" + std::to_string(::getpid());
  gus::SegmentCacheOptions cache_options;
  cache_options.max_bytes = sizes.cache_bytes;

  // Set-up: serial TPC-H generation, ingest into .gseg segments, open.
  std::vector<double> setup_ms, generate_ms, ingest_ms, open_ms;
  std::unique_ptr<gus::SegmentCatalog> segments;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    segments.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ReleaseFreeMemory();
    const Clock::time_point t0 = Clock::now();
    gus::Status written;
    {
      gus::TpchData data =
          gus::GenerateTpch(TpchConfigFor(sizes.orders, data_seed));
      const gus::Catalog catalog = data.MakeCatalog();
      generate_ms.push_back(MsSince(t0));
      const Clock::time_point w0 = Clock::now();
      written = gus::WriteCatalogSegments(catalog, dir, sizes.segment_rows);
      ingest_ms.push_back(MsSince(w0));
    }
    const Clock::time_point o0 = Clock::now();
    auto opened = written.ok() ? gus::SegmentCatalog::Open(dir, cache_options)
                               : gus::Result<std::unique_ptr<
                                     gus::SegmentCatalog>>(written);
    open_ms.push_back(MsSince(o0));
    setup_ms.push_back(MsSince(t0));
    if (!opened.ok()) {
      std::fprintf(stderr, "seg_scan: set-up failed: %s\n",
                   opened.status().ToString().c_str());
      std::filesystem::remove_all(dir, ec);
      return 1;
    }
    segments = std::move(opened).ValueOrDie();
  }
  auto cleanup = [&] {
    segments.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  };
  auto lineitems = segments->RowCountOf("l");
  auto stored_l = segments->Stored("l");
  if (!lineitems.ok() || !stored_l.ok() || *stored_l == nullptr) {
    std::fprintf(stderr, "seg_scan: lineitem segments missing\n");
    cleanup();
    return 1;
  }

  gus::ExecOptions exec;
  exec.engine = gus::ExecEngine::kMorselParallel;
  exec.num_threads = opt.threads;
  exec.morsel_rows = sizes.segment_rows;  // segment-aligned morsels
  const gus::SboxOptions sbox;
  const gus::ExprPtr f = gus::Col("l_quantity");

  // One query: plan for the range, SOA transform, segment-backed estimate.
  auto run_query = [&](uint64_t seed, int64_t lo, gus::ExecStats* stats,
                       Tracer* tracer, int64_t request, int parent,
                       LayerSamples* layers) -> gus::Result<gus::SboxReport> {
    gus::PlanPtr plan = RangePlan(lo, width, *lineitems);
    int span = tracer ? tracer->Begin("plan.SoaTransform", request, parent)
                      : -1;
    auto soa = gus::SoaTransform(plan);
    if (tracer) layers->Add("plan.soa_ms", tracer->End(span));
    if (!soa.ok()) return soa.status();
    gus::ExecOptions run_exec = exec;
    run_exec.stats = stats;
    gus::Rng rng(seed);
    span = tracer ? tracer->Begin("est.EstimatePlanParallel", request, parent)
                  : -1;
    auto result = gus::EstimatePlanParallel(plan, segments.get(), &rng, f,
                                            soa->top, sbox,
                                            gus::ExecMode::kSampled, run_exec);
    if (tracer) tracer->End(span);
    return result;
  };
  auto range_lo = [&](int64_t q) {
    return static_cast<int64_t>(
        MixSeed(opt.seed ^ 0x5E65CA4ull, static_cast<uint64_t>(q)) %
        static_cast<uint64_t>(sizes.orders - width + 1));
  };

  // Warm-up outside timing: first query, pool spawn.
  for (int64_t k = 0; k < 2; ++k) {
    auto warm = run_query(MixSeed(opt.seed, 1'000'000 + k),
                          range_lo(1'000'000 + k), nullptr, nullptr, 0, -1,
                          nullptr);
    if (!warm.ok()) {
      std::fprintf(stderr, "seg_scan: warm-up failed: %s\n",
                   warm.status().ToString().c_str());
      cleanup();
      return 1;
    }
  }
  ReleaseFreeMemory();
  ResetPeakRss();

  int64_t next_query = 0;
  std::string first_error;
  Tracer tracer;
  LayerSamples layers;
  Latencies traced_e2e;
  gus::SegmentCache* cache = segments->segment_cache();
  int64_t sum_hits = 0, sum_faults = 0;

  auto run_phase = [&](double seconds, bool traced) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + Seconds(seconds);
    while (Clock::now() < deadline) {
      const int64_t q = next_query++;
      const uint64_t seed = MixSeed(opt.seed, static_cast<uint64_t>(q));
      const int64_t lo = range_lo(q);
      ++report->attempted;
      gus::ExecStats stats;
      const gus::SegmentCacheCounters before = cache->counters();
      const int root = traced ? tracer.Begin("request", q) : -1;
      const int e2e = traced ? tracer.Begin("seg_scan.query", q, root) : -1;
      const Clock::time_point t0 = Clock::now();
      auto result = run_query(seed, lo, traced ? &stats : nullptr,
                              traced ? &tracer : nullptr, q, e2e, &layers);
      const double ms = MsSince(t0);
      ++phase.ops;
      if (traced) tracer.End(e2e);
      if (!result.ok()) {
        ++report->failed;
        if (first_error.empty()) first_error = result.status().ToString();
        if (traced) tracer.End(root);
        continue;
      }
      phase.fresh.Add(ms);
      if (traced) {
        const gus::SegmentCacheCounters after = cache->counters();
        const int64_t hits = after.hits - before.hits;
        const int64_t faults = after.faults - before.faults;
        sum_hits += hits;
        sum_faults += faults;
        traced_e2e.Add(ms);
        tracer.Count(e2e, "segments_total",
                     static_cast<double>(stats.segments_total));
        tracer.Count(e2e, "segments_skipped",
                     static_cast<double>(stats.segments_skipped));
        tracer.Count(e2e, "segments_faulted",
                     static_cast<double>(stats.segments_faulted));
        tracer.Count(e2e, "cache_hits", static_cast<double>(hits));
        layers.AddExecStats(stats);
        layers.Add("est.sample_rows",
                   static_cast<double>(result->sample_rows));
        layers.Add("store.segments_skipped",
                   static_cast<double>(stats.segments_skipped));
        layers.Add("store.segments_faulted",
                   static_cast<double>(stats.segments_faulted));
        layers.Add("store.skip_fraction",
                   stats.segments_total > 0
                       ? static_cast<double>(stats.segments_skipped) /
                             static_cast<double>(stats.segments_total)
                       : 0.0);
        layers.Add("store.bytes_read_mb",
                   static_cast<double>(stats.store_bytes_read) / (1 << 20));
        layers.Add("store.evictions",
                   static_cast<double>(after.evictions - before.evictions));
        layers.Add("store.segments_unaccounted",
                   static_cast<double>(stats.segments_total -
                                       stats.segments_skipped -
                                       stats.segments_faulted - hits));

        // One segment decode on a private, cleared cache: the fault cost
        // without disturbing the workload's own cache.
        gus::SegmentCache probe(cache_options);
        const int64_t segment = q % (*stored_l)->num_segments();
        const int span = tracer.Begin("store.SegmentCache.Fault", q, root);
        auto faulted = probe.Fault(**stored_l, segment);
        layers.Add("store.fault_ms", tracer.End(span));
        if (!faulted.ok()) ++report->failed;
        tracer.End(root);
      }
      phase.answers.push_back(Answer{seed, lo, *result});

      if (q % kRepeatEvery == kRepeatEvery - 1) {
        ++report->attempted;
        const Clock::time_point r0 = Clock::now();
        auto again = run_query(seed, lo, nullptr, nullptr, q, -1, nullptr);
        const double repeat_ms = MsSince(r0);
        ++phase.ops;
        if (!again.ok()) {
          ++report->failed;
          if (first_error.empty()) first_error = again.status().ToString();
        } else {
          phase.repeat.Add(repeat_ms);
          if (!SameReport(*again, *result)) ++report->wrong;
        }
      }
    }
    phase.wall_s =
        std::chrono::duration<double>(Clock::now() - start).count();
    return phase;
  };

  Phase main_phase = run_phase(opt.trace ? opt.seconds / 2 : opt.seconds,
                               /*traced=*/false);
  const double peak_rss = PeakRssMb();
  Phase traced_phase;
  if (opt.trace) traced_phase = run_phase(opt.seconds / 2, /*traced=*/true);

  // Answer check, outside timing: every estimate is bit-identical to the
  // same query on the in-memory columnar catalog of the same rows.
  const int64_t disk_bytes = DirBytes(dir);
  gus::TpchData data =
      gus::GenerateTpch(TpchConfigFor(sizes.orders, data_seed));
  const gus::Catalog catalog = data.MakeCatalog();
  gus::ColumnarCatalog memory(&catalog);
  int64_t column_bytes = 0;
  for (const auto& [name, rel] : catalog) {
    auto columnar = memory.Get(name);
    if (columnar.ok()) column_bytes += ColumnBytes(**columnar);
  }
  int64_t mismatches = 0;
  std::vector<double> ci;
  for (const Phase* p : {&main_phase, &traced_phase}) {
    for (const Answer& a : p->answers) {
      gus::PlanPtr plan = RangePlan(a.lo, width, *lineitems);
      auto soa = gus::SoaTransform(plan);
      gus::Rng rng(a.seed);
      auto ref = soa.ok() ? gus::EstimatePlanParallel(
                                plan, &memory, &rng, f, soa->top, sbox,
                                gus::ExecMode::kSampled, exec)
                          : gus::Result<gus::SboxReport>(soa.status());
      if (!ref.ok() || !SameReport(*ref, a.report)) ++mismatches;
      ci.push_back(0.5 * (a.report.interval.hi - a.report.interval.lo) /
                   std::abs(a.report.estimate));
    }
  }
  report->wrong += mismatches;
  report->Detail("check.answers",
                 static_cast<double>(main_phase.answers.size() +
                                     traced_phase.answers.size()));
  report->Detail("check.mismatches", static_cast<double>(mismatches));
  report->Detail("segments.lineitem",
                 static_cast<double>((*stored_l)->num_segments()));
  report->Detail("segments.disk_mb",
                 static_cast<double>(disk_bytes) / (1 << 20));
  if (!first_error.empty()) report->Detail("first_error", first_error);
  cleanup();

  if (!opt.trace) {
    ReportEndToEnd(main_phase.fresh, kTailQuantile, main_phase.repeat,
                   main_phase.ops, main_phase.wall_s, ci,
                   Median(setup_ms) / 1000.0, peak_rss, report);
    return 0;
  }

  std::map<std::string, double> values;
  layers.Summarize({"plan.soa_ms", "plan.prepare_ms", "plan.morsel_loop_ms",
                    "plan.sink_fold_ms", "store.fault_ms"},
                   {"plan.rows_emitted", "plan.morsels", "util.pool_wakeups",
                    "util.pool_threads_spawned", "est.sample_rows",
                    "store.segments_skipped", "store.segments_faulted",
                    "store.skip_fraction", "store.bytes_read_mb",
                    "store.evictions", "store.segments_unaccounted"},
                   &values);
  values["data.generate_ms"] = Median(generate_ms);
  values["store.ingest_ms"] = Median(ingest_ms);
  values["store.open_ms"] = Median(open_ms);
  values["store.bytes_per_user_byte"] =
      column_bytes > 0 ? static_cast<double>(disk_bytes) /
                             static_cast<double>(column_bytes)
                       : 0.0;
  values["store.cache_hit_ratio"] =
      sum_hits + sum_faults > 0
          ? static_cast<double>(sum_hits) /
                static_cast<double>(sum_hits + sum_faults)
          : 0.0;
  const double layer_sum = values["plan.soa_ms"] + values["plan.prepare_ms"] +
                           values["plan.morsel_loop_ms"];
  values["trace.unattributed_ms"] = traced_e2e.Median() - layer_sum;
  values["trace.overhead_ms"] =
      traced_e2e.Median() - main_phase.fresh.Median();
  ReportPerLayer(values, report);
  report->Detail("trace.queries", static_cast<double>(traced_e2e.count()));
  report->Detail("trace.file", TracePath(opt));
  if (!tracer.Write(TracePath(opt))) {
    std::fprintf(stderr, "seg_scan: cannot write %s\n",
                 TracePath(opt).c_str());
    return 1;
  }
  return 0;
}

}  // namespace gusbench
