// A4 — Ablation: budget-constrained sampling-design optimization vs uniform
// allocation, across data skews. Uses exact y statistics of a synthetic
// Query-1 instance, so the comparison isolates the allocation decision.

#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/bench_util.h"
#include "data/tpch_gen.h"
#include "data/workload.h"
#include "est/ys.h"
#include "mc/monte_carlo.h"
#include "opt/design_optimizer.h"
#include "util/table.h"

namespace gus {

using bench::ValueOrAbort;

namespace {

struct Instance {
  LineageSchema schema;
  std::vector<DesignDimension> dims;
  std::vector<double> y;
};

Instance MakeInstance(double fanout_skew) {
  TpchConfig config;
  config.num_orders = 2000;
  config.num_customers = 150;
  config.num_parts = 100;
  config.max_lineitems_per_order = 7;
  config.fanout_zipf_theta = fanout_skew;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  Query1Params params;
  params.orders_n = 500;
  params.orders_population = config.num_orders;
  Workload q1 = MakeQuery1(params);
  SoaResult soa = ValueOrAbort(SoaTransform(q1.plan));
  Rng rng(1);
  Relation exact = ValueOrAbort(
      ExecutePlan(q1.plan, catalog, &rng, ExecMode::kExact));
  SampleView view = ValueOrAbort(
      SampleView::FromRelation(exact, q1.aggregate, soa.top.schema()));
  Instance inst{soa.top.schema(),
                {{"l", static_cast<double>(data.lineitem.num_rows()), 0.01,
                  1.0},
                 {"o", static_cast<double>(config.num_orders), 0.01, 1.0}},
                ComputeAllYS(YsInput::Of(view))};
  return inst;
}

}  // namespace

void PrintAblationOpt() {
  bench::PrintHeader(
      "A4", "Design optimizer vs uniform budget allocation (Query 1)");
  TablePrinter table({"fanout skew", "budget frac", "uniform sigma",
                      "optimized sigma", "improvement", "p_l : p_o"});
  for (double skew : {0.0, 1.5}) {
    Instance inst = MakeInstance(skew);
    const double total =
        inst.dims[0].cardinality + inst.dims[1].cardinality;
    for (double frac : {0.05, 0.15, 0.40}) {
      OptimizerConfig config;
      config.budget = frac * total;
      DesignResult best = ValueOrAbort(
          OptimizeBernoulliDesign(inst.schema, inst.dims, inst.y, config));
      const double uniform_p = config.budget / total;
      const double uniform_var = ValueOrAbort(PredictBernoulliVariance(
          inst.schema, inst.dims, {uniform_p, uniform_p}, inst.y));
      char ratio[48];
      std::snprintf(ratio, sizeof(ratio), "%.3f : %.3f", best.rates[0],
                    best.rates[1]);
      table.AddRow(
          {TablePrinter::Num(skew), TablePrinter::Num(frac),
           TablePrinter::Num(std::sqrt(std::max(0.0, uniform_var)), 4),
           TablePrinter::Num(std::sqrt(std::max(0.0, best.predicted_variance)),
                             4),
           TablePrinter::Num(
               std::sqrt(uniform_var /
                         std::max(1e-300, best.predicted_variance)),
               3) + "x",
           ratio});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nExpected shape: non-uniform allocation wins whenever the two\n"
      "relations contribute unequal variance; with a generous budget the\n"
      "optimizer saturates the cheap high-leverage relation (p -> 1) and\n"
      "the gap over uniform allocation widens.\n");
}

namespace {

void BM_OptimizeDesign(benchmark::State& state) {
  Instance inst = MakeInstance(0.0);
  OptimizerConfig config;
  config.budget =
      0.15 * (inst.dims[0].cardinality + inst.dims[1].cardinality);
  for (auto _ : state) {
    auto best =
        OptimizeBernoulliDesign(inst.schema, inst.dims, inst.y, config);
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_OptimizeDesign);

void BM_PredictVariance(benchmark::State& state) {
  Instance inst = MakeInstance(0.0);
  for (auto _ : state) {
    auto var = PredictBernoulliVariance(inst.schema, inst.dims, {0.2, 0.4},
                                        inst.y);
    benchmark::DoNotOptimize(var);
  }
}
BENCHMARK(BM_PredictVariance);

}  // namespace
}  // namespace gus

GUS_BENCH_MAIN(gus::PrintAblationOpt)
