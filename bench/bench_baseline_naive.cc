// E6 — Baseline comparison: the naive IID-CLT estimator (what a
// practitioner gets by pretending the result tuples are an IID sample)
// against the GUS algebra. On single-relation Bernoulli designs both are
// fine; on joins the naive interval under-covers badly — the paper's
// Section 2 motivation, quantified.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "mc/monte_carlo.h"
#include "plan/columnar_executor.h"
#include "util/table.h"

namespace gus {

using bench::ValueOrAbort;

namespace {

struct CoveragePair {
  double gus = 0.0;
  double naive = 0.0;
  double gus_width = 0.0;
  double naive_width = 0.0;
};

/// Runs the plan on the serial columnar pipeline, reusing `columnar` across
/// trials. Sampled-mode draws are engine-invariant (shared index-selection
/// core), so the statistics are identical to the row engine's.
Relation RunPlan(const Workload& w, ColumnarCatalog* columnar, Rng* rng,
                 ExecMode mode) {
  return Relation(
      ValueOrAbort(ExecutePlanColumnar(w.plan, columnar, rng, mode)));
}

CoveragePair MeasureBoth(const Workload& w, ColumnarCatalog* columnar,
                         int trials, uint64_t seed) {
  SoaResult soa = ValueOrAbort(SoaTransform(w.plan));
  Rng exact_rng(seed);
  Relation exact = RunPlan(w, columnar, &exact_rng, ExecMode::kExact);
  SampleView exact_view = ValueOrAbort(
      SampleView::FromRelation(exact, w.aggregate, soa.top.schema()));
  const double truth = exact_view.SumF();

  Rng master(seed + 1);
  CoverageCounter gus_cov, naive_cov;
  MeanVar gus_width, naive_width;
  for (int t = 0; t < trials; ++t) {
    Rng rng = master.Fork(t);
    Relation sampled =
        RunPlan(w, columnar, &rng, ExecMode::kSampled);
    SampleView view = ValueOrAbort(
        SampleView::FromRelation(sampled, w.aggregate, soa.top.schema()));
    SboxReport g = ValueOrAbort(SboxEstimate(soa.top, view));
    SboxReport n = ValueOrAbort(NaiveIidEstimate(soa.top.a(), view));
    gus_cov.Add(g.interval.Contains(truth));
    naive_cov.Add(n.interval.Contains(truth));
    gus_width.Add(g.interval.width());
    naive_width.Add(n.interval.width());
  }
  return {gus_cov.fraction(), naive_cov.fraction(), gus_width.mean(),
          naive_width.mean()};
}

}  // namespace

void PrintBaseline() {
  bench::PrintHeader(
      "E6", "GUS algebra vs naive IID-CLT baseline (95% nominal, 1000 trials)");
  TpchConfig config;
  config.num_orders = 1200;
  config.num_customers = 100;
  config.num_parts = 60;
  config.max_lineitems_per_order = 7;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  const int trials = 1000;

  TablePrinter table({"workload", "GUS coverage", "naive coverage",
                      "GUS mean width", "naive mean width"});

  // (a) Single relation, Bernoulli: the naive method's home turf.
  {
    Workload w;
    w.plan = PlanNode::Sample(SamplingSpec::Bernoulli(0.2),
                              PlanNode::Scan("o"));
    w.aggregate = Col("o_totalprice");
    CoveragePair c = MeasureBoth(w, &columnar, trials, 500);
    table.AddRow({"B(0.2)(orders), SUM(o_totalprice)",
                  TablePrinter::Num(c.gus, 3), TablePrinter::Num(c.naive, 3),
                  TablePrinter::Num(c.gus_width, 4),
                  TablePrinter::Num(c.naive_width, 4)});
  }
  // (b) Single relation, WOR: naive misses the finite-population correction.
  {
    Workload w;
    w.plan = PlanNode::Sample(SamplingSpec::WithoutReplacement(600, 1200),
                              PlanNode::Scan("o"));
    w.aggregate = Col("o_totalprice");
    CoveragePair c = MeasureBoth(w, &columnar, trials, 501);
    table.AddRow({"WOR(600/1200)(orders)", TablePrinter::Num(c.gus, 3),
                  TablePrinter::Num(c.naive, 3),
                  TablePrinter::Num(c.gus_width, 4),
                  TablePrinter::Num(c.naive_width, 4)});
  }
  // (c) The paper's Query 1: join-induced correlation.
  {
    Query1Params params;
    params.lineitem_p = 0.3;
    params.orders_n = 360;
    params.orders_population = 1200;
    Workload q1 = MakeQuery1(params);
    CoveragePair c = MeasureBoth(q1, &columnar, trials, 502);
    table.AddRow({"Query 1 (B0.3 l jn WOR 360 o)", TablePrinter::Num(c.gus, 3),
                  TablePrinter::Num(c.naive, 3),
                  TablePrinter::Num(c.gus_width, 4),
                  TablePrinter::Num(c.naive_width, 4)});
  }
  // (d) High-fanout star: sampling only the dimension side maximizes the
  // correlation the naive method ignores.
  {
    Workload w;
    w.plan = PlanNode::Join(
        PlanNode::Scan("l"),
        PlanNode::Sample(SamplingSpec::WithoutReplacement(300, 1200),
                         PlanNode::Scan("o")),
        "l_orderkey", "o_orderkey");
    w.aggregate = Mul(Col("l_discount"), Col("o_totalprice"));
    CoveragePair c = MeasureBoth(w, &columnar, trials, 503);
    table.AddRow({"l jn WOR(300/1200)(o), fanout 7",
                  TablePrinter::Num(c.gus, 3), TablePrinter::Num(c.naive, 3),
                  TablePrinter::Num(c.gus_width, 4),
                  TablePrinter::Num(c.naive_width, 4)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: GUS covers ~0.95 everywhere. The naive interval\n"
      "under-covers on (a) — it treats the Bernoulli sample size as fixed,\n"
      "missing the variance contributed by the random count (the f-mean\n"
      "term of (1-p)/p * sum f^2) — over-covers on (b), where it misses the\n"
      "finite-population correction, and under-covers worst on the join\n"
      "workloads (c)-(d), where fanout correlation inflates the true\n"
      "variance it cannot see.\n");
}

namespace {

void BM_NaiveEstimate(benchmark::State& state) {
  SampleView view;
  view.schema = LineageSchema::Make({"R"}).ValueOrDie();
  view.lineage.assign(1, {});
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    view.lineage[0].push_back(i);
    view.f.push_back(rng.Uniform());
  }
  for (auto _ : state) {
    auto report = NaiveIidEstimate(0.1, view);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_NaiveEstimate);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintBaseline)
