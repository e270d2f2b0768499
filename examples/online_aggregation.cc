// Online aggregation: watch the estimate of a join aggregate converge with
// a live confidence interval as tuples stream in — the ripple-join user
// experience of the paper's related work, with no estimator of its own.
//
// The GUS view makes the analysis a two-line argument (paper Section 8):
//
//   * a prefix of a random permutation of R is exactly a WOR(k, N) sample;
//   * prefixes of two independently shuffled relations joined together are
//     WOR(k1, N1) ⋈ WOR(k2, N2), whose single top GUS is the GusJoin of the
//     two WOR translations (Prop. 6).
//
// So each progress step below is just the plan
//   Join(Sample(WOR(k_l, N_l), Scan l), Sample(WOR(k_o, N_o), Scan o))
// run through the SOA transform and the SBox. The same seed draws the same
// sampler streams at every step, and a WOR keep-set is the k smallest
// priorities of one fixed random order, so the keep-sets of growing k are
// nested: each row of the table extends the previous row's prefix, and at
// k = N the answer is exact.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/tpch_gen.h"
#include "est/streaming.h"
#include "plan/columnar_executor.h"
#include "plan/soa_transform.h"
#include "rel/operators.h"
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

/// Tuples consumed from a shuffled relation of `rows` rows after a
/// `frac` share of the stream (at least 2, so pairwise probabilities are
/// positive).
int64_t PrefixRows(double frac, int64_t rows) {
  return std::clamp<int64_t>(std::llround(frac * static_cast<double>(rows)),
                             2, rows);
}

}  // namespace

int main() {
  using namespace gus;

  TpchConfig config;
  config.num_orders = 5000;
  config.num_customers = 400;
  config.num_parts = 200;
  TpchData data = GenerateTpch(config);
  Catalog catalog = data.MakeCatalog();
  ColumnarCatalog columnar(&catalog);
  const int64_t lineitems = data.lineitem.num_rows();
  const int64_t orders = data.orders.num_rows();

  // Exact answer for reference (the user would not have this).
  Relation joined =
      Unwrap(HashJoin(data.lineitem, data.orders, "l_orderkey", "o_orderkey"));
  ExprPtr f = Mul(Col("l_discount"), Sub(Lit(1.0), Col("l_tax")));
  const double truth = Unwrap(AggregateSum(joined, f));
  std::printf("join: %lld lineitem x %lld orders, exact SUM = %.4f\n\n",
              static_cast<long long>(lineitems),
              static_cast<long long>(orders), truth);

  ExecOptions exec;
  exec.engine = ExecEngine::kMorselParallel;
  TablePrinter table({"tuples seen", "result rows", "estimate",
                      "95% interval", "rel.width", "covers truth"});
  for (double frac : {0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0}) {
    const int64_t k_l = PrefixRows(frac, lineitems);
    const int64_t k_o = PrefixRows(frac, orders);
    PlanPtr plan = PlanNode::Join(
        PlanNode::Sample(SamplingSpec::WithoutReplacement(k_l, lineitems),
                         PlanNode::Scan("l")),
        PlanNode::Sample(SamplingSpec::WithoutReplacement(k_o, orders),
                         PlanNode::Scan("o")),
        "l_orderkey", "o_orderkey");
    SoaResult soa = Unwrap(SoaTransform(plan));
    Rng rng(/*seed=*/7);  // same streams every step: nested prefixes
    SboxReport report = Unwrap(EstimatePlanParallel(
        plan, &columnar, &rng, f, soa.top, SboxOptions{}, ExecMode::kSampled,
        exec));
    char interval[64];
    std::snprintf(interval, sizeof(interval), "[%.1f, %.1f]",
                  report.interval.lo, report.interval.hi);
    table.AddRow(
        {std::to_string(k_l + k_o), std::to_string(report.sample_rows),
         TablePrinter::Num(report.estimate, 6), interval,
         TablePrinter::Num(report.interval.width() /
                               std::max(1.0, report.estimate),
                           3),
         // Tolerance absorbs last-ulp accumulation-order differences once
         // the interval collapses to a point.
         (report.interval.Contains(truth) ||
          std::fabs(report.estimate - truth) < 1e-9 * std::fabs(truth))
             ? "y"
             : "n"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "The interval tightens continuously and collapses to the exact\n"
      "answer when both inputs are exhausted — online aggregation with\n"
      "the analysis supplied entirely by the GUS algebra.\n");
  return 0;
}
