#include "mc/monte_carlo.h"

#include <unordered_map>

#include "est/variance.h"
#include "est/ys.h"
#include "rel/column_batch.h"
#include "util/hash.h"
#include "util/random.h"

namespace gus {

Result<SboxTrialStats> RunSboxTrials(const Workload& workload,
                                     const Catalog& catalog, int trials,
                                     uint64_t seed,
                                     const SboxOptions& options) {
  GUS_ASSIGN_OR_RETURN(SoaResult soa, SoaTransform(workload.plan));

  // Ground truth and oracle variance from the exact result.
  Rng exact_rng(seed);
  GUS_ASSIGN_OR_RETURN(
      Relation exact,
      ExecutePlan(workload.plan, catalog, &exact_rng, ExecMode::kExact));
  GUS_ASSIGN_OR_RETURN(
      SampleView exact_view,
      SampleView::FromRelation(exact, workload.aggregate, soa.top.schema()));

  SboxTrialStats stats;
  stats.truth = exact_view.SumF();
  stats.y_true = ComputeAllYS(YsInput::Of(exact_view));
  GUS_ASSIGN_OR_RETURN(stats.oracle_variance,
                       VarianceFromY(soa.top, stats.y_true));
  stats.y_hat.resize(soa.top.schema().num_subsets());

  Rng master(seed + 1);
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng = master.Fork(static_cast<uint64_t>(t));
    GUS_ASSIGN_OR_RETURN(
        Relation sampled,
        ExecutePlan(workload.plan, catalog, &trial_rng, ExecMode::kSampled));
    GUS_ASSIGN_OR_RETURN(SampleView view,
                         SampleView::FromRelation(sampled, workload.aggregate,
                                                  soa.top.schema()));
    SboxOptions trial_options = options;
    if (trial_options.subsample.has_value()) {
      // Fresh sub-sampling randomness per trial.
      trial_options.subsample->seed =
          HashCombine(options.subsample->seed, static_cast<uint64_t>(t));
    }
    GUS_ASSIGN_OR_RETURN(SboxReport report,
                         SboxEstimate(soa.top, view, trial_options));
    stats.estimates.Add(report.estimate);
    stats.predicted_variance.Add(report.variance);
    stats.coverage.Add(report.interval.Contains(stats.truth));
    for (size_t m = 0; m < report.y_hat.size(); ++m) {
      stats.y_hat[m].Add(report.y_hat[m]);
    }
  }
  return stats;
}

Result<InclusionStats> MeasureInclusion(const PlanPtr& plan,
                                        const Catalog& catalog, int trials,
                                        uint64_t seed) {
  GUS_ASSIGN_OR_RETURN(LineageSchema schema, plan->ComputeLineageSchema());
  Rng exact_rng(seed);
  GUS_ASSIGN_OR_RETURN(
      Relation exact, ExecutePlan(plan, catalog, &exact_rng, ExecMode::kExact));
  const auto m = static_cast<size_t>(exact.num_rows());

  // Index the exact result tuples by their full lineage.
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(m);
  auto lineage_key = [](const LineageRow& lin) {
    uint64_t h = 0x1234abcd5678ef90ULL;
    for (uint64_t id : lin) h = HashCombine(h, id);
    return h;
  };
  for (size_t i = 0; i < m; ++i) {
    index.emplace(lineage_key(exact.lineage(i)), i);
  }
  if (index.size() != m) {
    return Status::Internal("duplicate lineage in exact result");
  }

  // Precompute the agreement mask of every tuple pair.
  const int n = schema.arity();
  // Align the relation's lineage columns to the schema order.
  std::vector<int> source(n);
  for (int d = 0; d < n; ++d) {
    int found = -1;
    for (size_t c = 0; c < exact.lineage_schema().size(); ++c) {
      if (exact.lineage_schema()[c] == schema.relation(d)) {
        found = static_cast<int>(c);
      }
    }
    if (found < 0) return Status::Internal("lineage schema mismatch");
    source[d] = found;
  }
  const std::shared_ptr<const ColumnarRelation> exact_cols = exact.Columnar();
  const ColumnBatch& exact_data = exact_cols->data();
  auto agreement_mask = [&](size_t i, size_t j) {
    SubsetMask mask = 0;
    for (int d = 0; d < n; ++d) {
      if (exact_data.lineage_at(static_cast<int64_t>(i), source[d]) ==
          exact_data.lineage_at(static_cast<int64_t>(j), source[d])) {
        mask |= SubsetMask{1} << d;
      }
    }
    return mask;
  };

  std::vector<int64_t> single_count(m, 0);
  std::vector<int64_t> pair_count(m * m, 0);  // co-inclusion counts (i<j)
  std::vector<char> present(m);

  Rng master(seed + 1);
  for (int t = 0; t < trials; ++t) {
    Rng trial_rng = master.Fork(static_cast<uint64_t>(t));
    GUS_ASSIGN_OR_RETURN(
        Relation sampled,
        ExecutePlan(plan, catalog, &trial_rng, ExecMode::kSampled));
    std::fill(present.begin(), present.end(), 0);
    for (int64_t r = 0; r < sampled.num_rows(); ++r) {
      auto it = index.find(lineage_key(sampled.lineage(r)));
      if (it == index.end()) {
        return Status::Internal("sampled tuple missing from exact result");
      }
      present[it->second] = 1;
    }
    for (size_t i = 0; i < m; ++i) {
      if (!present[i]) continue;
      ++single_count[i];
      for (size_t j = i + 1; j < m; ++j) {
        if (present[j]) ++pair_count[i * m + j];
      }
    }
  }

  InclusionStats stats;
  stats.schema = schema;
  stats.result_size = static_cast<int64_t>(m);
  stats.trials = trials;
  stats.pair_by_mask.assign(schema.num_subsets(), -1.0);
  stats.pairs_per_mask.assign(schema.num_subsets(), 0);
  if (m > 0) {
    double sum = 0.0, mn = 1.0, mx = 0.0;
    for (size_t i = 0; i < m; ++i) {
      const double f = static_cast<double>(single_count[i]) / trials;
      sum += f;
      mn = std::min(mn, f);
      mx = std::max(mx, f);
    }
    stats.mean_single = sum / static_cast<double>(m);
    stats.min_single = mn;
    stats.max_single = mx;
  }
  std::vector<double> freq_sum(schema.num_subsets(), 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      const SubsetMask mask = agreement_mask(i, j);
      freq_sum[mask] += static_cast<double>(pair_count[i * m + j]) / trials;
      ++stats.pairs_per_mask[mask];
    }
  }
  for (size_t mask = 0; mask < freq_sum.size(); ++mask) {
    if (stats.pairs_per_mask[mask] > 0) {
      stats.pair_by_mask[mask] =
          freq_sum[mask] / static_cast<double>(stats.pairs_per_mask[mask]);
    }
  }
  return stats;
}

}  // namespace gus
