// Planner + one-call query interface for the SQL-ish dialect.
//
// The planner resolves columns against the catalog, splits the WHERE clause
// into equi-join conditions and filters, and builds a left-deep sampled
// plan in FROM order. RunApproxQuery then executes the plan, runs the SBox,
// and returns one estimated value (with interval) per select item — the
// complete "approximate query" experience of the paper's introduction.

#ifndef GUS_SQLISH_PLANNER_H_
#define GUS_SQLISH_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "est/sbox.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "sqlish/parser.h"

namespace gus {
namespace sqlish {

/// A planned query: the sampled plan plus the select items to evaluate.
struct PlannedQuery {
  PlanPtr plan;
  std::vector<SelectItem> items;
  /// GROUP BY column; empty when ungrouped.
  std::string group_by;
};

/// \brief Resolves and plans a parsed query against `catalog`.
///
/// TABLESAMPLE (p PERCENT) becomes Bernoulli(p/100); (n ROWS) becomes
/// WOR(n, |table|) with the population read from the catalog.
Result<PlannedQuery> PlanQuery(const ParsedQuery& parsed,
                               const Catalog& catalog);

/// One select item's output.
struct ApproxValue {
  /// "SUM(...)", "COUNT(*)", "AVG(...)", "QUANTILE(...,q)".
  std::string label;
  /// GROUP BY key rendered as text; empty for ungrouped queries.
  std::string group;
  double value = 0.0;
  /// Standard deviation of the estimator (0 for exact evaluation).
  double stddev = 0.0;
  /// Two-sided interval (for kQuantile: [value, value]).
  double lo = 0.0;
  double hi = 0.0;
};

/// The full result of an approximate query.
struct ApproxResult {
  std::vector<ApproxValue> values;
  int64_t sample_rows = 0;
  std::string ToString() const;
};

/// \brief Parses, plans, executes and estimates in one call.
///
/// `seed` drives the samplers; `options` control interval kind/level and
/// Section 7 sub-sampling. ExecEngine::kRowAtATime, the reference oracle,
/// materializes the sample and then estimates; the other engines (see the
/// full-options overload) stream (lineage, f) straight into the per-item
/// estimators and never materialize the result relation.
Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options = {},
                                    ExecEngine engine = ExecEngine::kRowAtATime);

/// \brief Full-options overload: ExecEngine::kMorselParallel runs the plan
/// partition-parallel with exec.num_threads workers;
/// ExecEngine::kSharded scatters it over exec.num_shards shared-nothing
/// workers whose per-item builder states round-trip through the binary
/// wire format (est/wire.h, docs/WIRE_FORMAT.md) before the gather merge.
/// The shards run under the SBox gathers' shard supervisor
/// (dist/coordinator.h): retried per exec.retry, counted in exec.stats. A
/// fatal or exhausted shard fails the query with its own error;
/// exec.allow_partial does not apply. With exec.retry.deadline_ms set,
/// call JoinAbandonedShardAttempts before destroying `catalog`.
///
/// Ungrouped queries fan the batch stream into per-item SampleViewBuilders
/// per partition; grouped queries into per-item GroupedSumBuilders; both
/// merge in morsel order, so the result is bit-deterministic in (sql,
/// catalog, seed, exec) and identical across num_threads values — and,
/// for kSharded, across num_shards values (shards are contiguous ranges
/// of the same global morsel sequence; see src/dist/shard.h).
///
/// ExecEngine::kServed is that kSharded gather fronted by the process-wide
/// approximate-view cache (serve/view_cache.h): a repeated (sql +
/// estimator options, catalog content, seed, morsel geometry) serves the
/// bit-identical result from cached merged builder state without
/// executing anything — ExecOptions::stats' cache counters record which
/// path answered.
Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options,
                                    const ExecOptions& exec);

}  // namespace sqlish
}  // namespace gus

#endif  // GUS_SQLISH_PLANNER_H_
