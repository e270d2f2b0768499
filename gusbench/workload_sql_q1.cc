// sql_q1: the paper's Query 1 sent as SQL text to sqlish::RunApproxQuery
// on the morsel-parallel engine, one closed-loop client, a fresh seed per
// query. The path touches sqlish, plan and est only — no socket, no
// segment.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "data/tpch_gen.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/soa_transform.h"
#include "sqlish/parser.h"
#include "sqlish/planner.h"
#include "trace.h"
#include "workloads.h"

namespace gusbench {
namespace {

using gus::sqlish::ApproxResult;

struct Sizes {
  int64_t orders;
  int64_t orders_sampled;  // o TABLESAMPLE (n ROWS)
  int64_t morsel_rows;
};

constexpr Sizes kFull{100000, 10000, 16384};
constexpr Sizes kSmoke{2000, 200, 1024};
constexpr int kRepeatEvery = 4;
/// latency_tail_ms percentile. This path is a 50 ms, mostly serial,
/// memory-bound conversion: on a virtualized host whose CPU steal moved
/// between 1% and 7% from run to run, its p90 moved 56 -> 87 ms while p75
/// stayed within +-5%.
constexpr double kTailQuantile = 0.75;

std::string Query1Sql(int64_t orders_sampled) {
  return "SELECT SUM(l_discount*(1.0-l_tax)) "
         "FROM l TABLESAMPLE (10 PERCENT), o TABLESAMPLE (" +
         std::to_string(orders_sampled) +
         " ROWS) "
         "WHERE l_orderkey = o_orderkey AND l_extendedprice > 100.0";
}

bool SameResult(const ApproxResult& a, const ApproxResult& b) {
  if (a.sample_rows != b.sample_rows || a.values.size() != b.values.size()) {
    return false;
  }
  for (size_t i = 0; i < a.values.size(); ++i) {
    const auto& x = a.values[i];
    const auto& y = b.values[i];
    if (x.label != y.label || x.group != y.group ||
        !SameBits(x.value, y.value) || !SameBits(x.stddev, y.stddev) ||
        !SameBits(x.lo, y.lo) || !SameBits(x.hi, y.hi)) {
      return false;
    }
  }
  return true;
}

struct Answer {
  uint64_t seed = 0;
  ApproxResult result;
};

/// One closed-loop phase: fresh queries (plus every kRepeatEvery-th one
/// repeated) until `seconds` elapse. With a tracer, each fresh query also
/// times the layers underneath from outside.
struct Phase {
  Latencies fresh;
  Latencies repeat;
  std::vector<Answer> answers;
  int64_t ops = 0;
  double wall_s = 0.0;
};

}  // namespace

int RunSqlQ1(const Options& opt, RunReport* report) {
  const Sizes sizes = opt.smoke ? kSmoke : kFull;
  const std::string sql = Query1Sql(sizes.orders_sampled);
  const uint64_t data_seed = MixSeed(opt.seed, 0xDA7A);

  // Set-up: serial TPC-H generation + catalog. Each repetition starts from
  // released memory so it pays the page faults a fresh process pays.
  std::vector<double> setup_ms;
  gus::Catalog catalog;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    catalog = gus::Catalog();
    ReleaseFreeMemory();
    const Clock::time_point t0 = Clock::now();
    gus::TpchData data =
        gus::GenerateTpch(TpchConfigFor(sizes.orders, data_seed));
    catalog = data.MakeCatalog();
    setup_ms.push_back(MsSince(t0));
  }

  gus::ExecOptions exec;
  exec.engine = gus::ExecEngine::kMorselParallel;
  exec.num_threads = opt.threads;
  exec.morsel_rows = sizes.morsel_rows;
  const gus::SboxOptions sbox;

  // Warm-up outside timing: first query, pool spawn.
  for (uint64_t k = 0; k < 2; ++k) {
    auto warm = gus::sqlish::RunApproxQuery(
        sql, catalog, MixSeed(opt.seed, 1'000'000 + k), sbox, exec);
    if (!warm.ok()) {
      std::fprintf(stderr, "sql_q1: warm-up query failed: %s\n",
                   warm.status().ToString().c_str());
      return 1;
    }
  }
  ResetPeakRss();

  int64_t next_query = 0;
  std::string first_error;
  Tracer tracer;
  LayerSamples layers;
  Latencies traced_e2e;

  auto run_phase = [&](double seconds, bool traced) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = start + Seconds(seconds);
    while (Clock::now() < deadline) {
      const int64_t q = next_query++;
      const uint64_t seed = MixSeed(opt.seed, static_cast<uint64_t>(q));
      ++report->attempted;
      gus::ExecStats stats;
      gus::ExecOptions run_exec = exec;
      int root = -1;
      int e2e = -1;
      if (traced) {
        run_exec.stats = &stats;
        root = tracer.Begin("request", q);
        e2e = tracer.Begin("sqlish.RunApproxQuery", q, root);
      }
      const Clock::time_point t0 = Clock::now();
      auto result =
          gus::sqlish::RunApproxQuery(sql, catalog, seed, sbox, run_exec);
      const double ms = MsSince(t0);
      if (traced) tracer.End(e2e);
      ++phase.ops;
      if (!result.ok()) {
        ++report->failed;
        if (first_error.empty()) first_error = result.status().ToString();
        if (traced) tracer.End(root);
        continue;
      }
      phase.fresh.Add(ms);
      if (traced) {
        traced_e2e.Add(ms);
        tracer.Count(e2e, "prepare_ms", stats.prepare_ms);
        tracer.Count(e2e, "parallel_ms", stats.parallel_ms);
        tracer.Count(e2e, "sink_fold_ms", stats.sink_fold_ms);
        tracer.Count(e2e, "rows_emitted",
                     static_cast<double>(stats.rows_emitted));
        tracer.Count(e2e, "morsels", static_cast<double>(stats.morsels));
        layers.AddExecStats(stats);
        layers.Add("est.sample_rows",
                   static_cast<double>(result->sample_rows));

        // The layers underneath, each timed from outside on this query.
        bool probed = false;
        int span = tracer.Begin("sqlish.ParseQuery", q, root);
        auto parsed = gus::sqlish::ParseQuery(sql);
        layers.Add("sqlish.parse_ms", tracer.End(span));
        if (parsed.ok()) {
          span = tracer.Begin("sqlish.PlanQuery", q, root);
          auto planned = gus::sqlish::PlanQuery(*parsed, catalog);
          layers.Add("sqlish.plan_ms", tracer.End(span));
          if (planned.ok()) {
            span = tracer.Begin("plan.SoaTransform", q, root);
            auto soa = gus::SoaTransform(planned->plan);
            layers.Add("plan.soa_ms", tracer.End(span));
            span = tracer.Begin("plan.ColumnarCatalog.Get", q, root);
            gus::ColumnarCatalog fresh(&catalog);
            probed = soa.ok() && fresh.Get("l").ok() && fresh.Get("o").ok();
            layers.Add("plan.columnar_ingest_ms", tracer.End(span));
          }
        }
        tracer.End(root);
        if (!probed) {
          ++report->failed;
          if (first_error.empty()) first_error = "layer probe failed";
        }
      }
      phase.answers.push_back(Answer{seed, std::move(result).ValueOrDie()});

      if (q % kRepeatEvery == kRepeatEvery - 1) {
        ++report->attempted;
        const Clock::time_point r0 = Clock::now();
        auto again =
            gus::sqlish::RunApproxQuery(sql, catalog, seed, sbox, exec);
        const double repeat_ms = MsSince(r0);
        ++phase.ops;
        if (!again.ok()) {
          ++report->failed;
          if (first_error.empty()) first_error = again.status().ToString();
        } else {
          phase.repeat.Add(repeat_ms);
          if (!SameResult(*again, phase.answers.back().result)) {
            ++report->wrong;
          }
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

  // Answer check, outside timing: every answer must be bit-identical to the
  // same seed at num_threads = 1 with the same explicit morsel_rows.
  std::vector<const Answer*> to_check;
  for (const Phase* p : {&main_phase, &traced_phase}) {
    for (const Answer& a : p->answers) to_check.push_back(&a);
  }
  gus::ExecOptions serial = exec;
  serial.num_threads = 1;
  std::atomic<size_t> cursor{0};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> checkers;
  for (int t = 0; t < opt.threads; ++t) {
    checkers.emplace_back([&] {
      for (size_t i = cursor++; i < to_check.size(); i = cursor++) {
        auto ref = gus::sqlish::RunApproxQuery(sql, catalog,
                                               to_check[i]->seed, sbox, serial);
        if (!ref.ok() || !SameResult(*ref, to_check[i]->result)) ++mismatches;
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  report->wrong += mismatches.load();
  report->Detail("check.answers", static_cast<double>(to_check.size()));
  report->Detail("check.mismatches", static_cast<double>(mismatches.load()));
  if (!first_error.empty()) report->Detail("first_error", first_error);

  std::vector<double> ci;
  for (const Answer* a : to_check) {
    const auto& v = a->result.values.front();
    ci.push_back(0.5 * (v.hi - v.lo) / std::abs(v.value));
  }
  report->Detail("sample_rows.first",
                 to_check.empty() ? 0.0
                                  : static_cast<double>(
                                        to_check.front()->result.sample_rows));

  if (!opt.trace) {
    ReportEndToEnd(main_phase.fresh, kTailQuantile, main_phase.repeat,
                   main_phase.ops, main_phase.wall_s, ci,
                   Median(setup_ms) / 1000.0, peak_rss, report);
    return 0;
  }

  std::map<std::string, double> values;
  layers.Summarize({"sqlish.parse_ms", "sqlish.plan_ms", "plan.soa_ms",
                    "plan.columnar_ingest_ms", "plan.prepare_ms",
                    "plan.morsel_loop_ms", "plan.sink_fold_ms"},
                   {"plan.rows_emitted", "plan.morsels", "util.pool_wakeups",
                    "util.pool_threads_spawned", "est.sample_rows"},
                   &values);
  values["data.generate_ms"] = Median(setup_ms);
  // Blocking steps of one query. Columnar ingest happens inside prepare
  // (RunApproxQuery converts its catalog lazily), so it is not added again.
  const double layer_sum = values["sqlish.parse_ms"] +
                           values["sqlish.plan_ms"] + values["plan.soa_ms"] +
                           values["plan.prepare_ms"] +
                           values["plan.morsel_loop_ms"];
  values["trace.unattributed_ms"] = traced_e2e.Median() - layer_sum;
  values["trace.overhead_ms"] =
      traced_e2e.Median() - main_phase.fresh.Median();
  ReportPerLayer(values, report);
  report->Detail("trace.queries", static_cast<double>(traced_e2e.count()));
  report->Detail("trace.untraced_queries",
                 static_cast<double>(main_phase.fresh.count()));
  report->Detail("trace.file", TracePath(opt));
  if (!tracer.Write(TracePath(opt))) {
    std::fprintf(stderr, "sql_q1: cannot write %s\n", TracePath(opt).c_str());
    return 1;
  }
  return 0;
}

}  // namespace gusbench
