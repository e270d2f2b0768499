// Load shedding on a data stream (paper Section 8): a bursty stream exceeds
// the system's per-window capacity. A shedder is just a Bernoulli sampler,
// so each window runs as the plan Sample(Bernoulli(1.0), Scan s) behind an
// AdmissionController: the controller's scale shrinks the Bernoulli rate
// to keep the retained volume near capacity, the SOA transform analyzes
// the shrunken design, and the SBox attaches an honest confidence interval
// to every window's aggregate — including a windowed two-stream join, the
// multi-relation case prior work could not analyze.

#include <cmath>
#include <cstdio>

#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "rel/operators.h"
#include "stream/admission.h"
#include "util/random.h"
#include "util/table.h"

namespace {

template <typename T>
T Unwrap(gus::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(r).ValueOrDie();
}

/// One window of a synthetic sensor stream: (sensor_id, reading).
gus::Relation MakeWindow(int64_t arrivals, gus::Rng* rng,
                         const std::string& name) {
  using namespace gus;
  std::vector<Row> rows;
  rows.reserve(arrivals);
  for (int64_t i = 0; i < arrivals; ++i) {
    rows.push_back(Row{Value(static_cast<int64_t>(rng->UniformInt(uint64_t{64}))),
                       Value(rng->Uniform(0.0, 10.0))});
  }
  return Relation::MakeBase(
      name,
      Schema({{name + "_sensor", ValueType::kInt64},
              {name + "_reading", ValueType::kFloat64}}),
      std::move(rows));
}

/// "y" when the interval covers `truth`. The tolerance absorbs last-ulp
/// summation-order differences once a full window collapses the interval
/// to a point.
const char* Hit(const gus::SboxReport& est, double truth) {
  return est.interval.Contains(truth) ||
                 std::fabs(est.estimate - truth) < 1e-9 * std::fabs(truth)
             ? "y"
             : "n";
}

/// SUM(f) over `plan` on `catalog` with a confidence interval.
gus::SboxReport Estimate(const gus::PlanPtr& plan,
                         const gus::Catalog& catalog, const gus::ExprPtr& f,
                         gus::Rng* rng) {
  using namespace gus;
  SoaResult soa = Unwrap(SoaTransform(plan));
  ColumnarCatalog columnar(&catalog);
  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  return Unwrap(EstimatePlanParallel(plan, &columnar, rng, f, soa.top,
                                     SboxOptions{}, ExecMode::kSampled,
                                     exec));
}

}  // namespace

int main() {
  using namespace gus;

  Rng rng(31337);
  AdmissionConfig config;
  config.capacity_rows = 2000;
  config.min_scale = 0.001;
  AdmissionController controller =
      Unwrap(AdmissionController::Make(config));
  const PlanPtr window_plan =
      PlanNode::Sample(SamplingSpec::Bernoulli(1.0), PlanNode::Scan("s"));

  std::printf("Single stream: SUM(reading) per window, capacity %lld\n\n",
              static_cast<long long>(config.capacity_rows));
  TablePrinter table({"window", "arrivals", "keep p", "kept", "true sum",
                      "estimate", "95% interval", "hit"});
  // A bursty arrival pattern: quiet, burst, decay.
  const int64_t kArrivalPattern[] = {1500, 1800, 9000, 16000, 12000,
                                     6000, 2500, 1200, 20000, 4000};
  int window_id = 0;
  for (int64_t arrivals : kArrivalPattern) {
    Catalog catalog;
    catalog.emplace("s", MakeWindow(arrivals, &rng, "s"));
    const double p = controller.scale();
    PlanPtr plan = Unwrap(ScalePlanSamplingRates(window_plan, p));
    SboxReport est = Estimate(plan, catalog, Col("s_reading"), &rng);
    const double truth =
        Unwrap(AggregateSum(catalog.at("s"), Col("s_reading")));
    char interval[64];
    std::snprintf(interval, sizeof(interval), "[%.0f, %.0f]",
                  est.interval.lo, est.interval.hi);
    table.AddRow({std::to_string(window_id++), std::to_string(arrivals),
                  TablePrinter::Num(p, 3), std::to_string(est.sample_rows),
                  TablePrinter::Num(truth, 6),
                  TablePrinter::Num(est.estimate, 6), interval,
                  Hit(est, truth)});
    // At scale 1.0 the window plan keeps every arrival: that is the load
    // this window offered.
    controller.ObserveQuery(arrivals);
  }
  std::printf("%s\n", table.ToString().c_str());

  // Two shedded streams joined within the window (sensor correlation).
  std::printf(
      "Joined windows: SUM(a_reading * b_reading) over matching sensors,\n"
      "both streams shedded independently (GUS join analysis).\n\n");
  TablePrinter join_table(
      {"window", "p_a", "p_b", "kept pairs", "true sum", "estimate", "hit"});
  const PlanPtr join_plan = PlanNode::Join(
      PlanNode::Sample(SamplingSpec::Bernoulli(0.3), PlanNode::Scan("a")),
      PlanNode::Sample(SamplingSpec::Bernoulli(0.4), PlanNode::Scan("b")),
      "a_sensor", "b_sensor");
  const ExprPtr f = Mul(Col("a_reading"), Col("b_reading"));
  for (int w = 0; w < 6; ++w) {
    Catalog catalog;
    catalog.emplace("a", MakeWindow(4000, &rng, "a"));
    catalog.emplace("b", MakeWindow(3000, &rng, "b"));
    SboxReport est = Estimate(join_plan, catalog, f, &rng);
    // Exact join sum for reference.
    Relation joined = Unwrap(
        HashJoin(catalog.at("a"), catalog.at("b"), "a_sensor", "b_sensor"));
    const double truth = Unwrap(AggregateSum(joined, f));
    join_table.AddRow({std::to_string(w), "0.3", "0.4",
                       std::to_string(est.sample_rows),
                       TablePrinter::Num(truth, 6),
                       TablePrinter::Num(est.estimate, 6),
                       Hit(est, truth)});
  }
  std::printf("%s", join_table.ToString().c_str());
  return 0;
}
