#include "sqlish/planner.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "dist/coordinator.h"
#include "dist/shard.h"
#include "dist/worker.h"
#include "est/confidence.h"
#include "est/group_by.h"
#include "est/ratio.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/exec_stats.h"
#include "plan/parallel_executor.h"
#include "plan/soa_transform.h"
#include "serve/view_cache.h"
#include "util/hash.h"

namespace gus {
namespace sqlish {

namespace {

/// Splits an expression on top-level ANDs.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->op() == ExprOp::kAnd) {
    CollectConjuncts(expr->left(), out);
    CollectConjuncts(expr->right(), out);
  } else {
    out->push_back(expr);
  }
}

/// Column name -> owning table, from the catalog schemas.
Result<std::unordered_map<std::string, std::string>> BuildColumnMap(
    const ParsedQuery& parsed, const Catalog& catalog) {
  std::unordered_map<std::string, std::string> owner;
  for (const TableRef& table : parsed.tables) {
    auto it = catalog.find(table.name);
    if (it == catalog.end()) {
      return Status::KeyError("table '" + table.name + "' not in catalog");
    }
    for (const Column& col : it->second.schema().columns()) {
      if (!owner.emplace(col.name, table.name).second) {
        return Status::InvalidArgument("ambiguous column '" + col.name +
                                       "' across FROM tables");
      }
    }
  }
  return owner;
}

/// Tables referenced by an expression (empty for constant expressions).
void CollectTables(const ExprPtr& expr,
                   const std::unordered_map<std::string, std::string>& owner,
                   std::set<std::string>* out) {
  if (expr->op() == ExprOp::kColumn) {
    auto it = owner.find(expr->column_name());
    if (it != owner.end()) out->insert(it->second);
    return;
  }
  if (expr->op() == ExprOp::kLiteral) return;
  CollectTables(expr->left(), owner, out);
  if (expr->right() != nullptr) CollectTables(expr->right(), owner, out);
}

struct JoinPredicate {
  std::string left_table, left_column;
  std::string right_table, right_column;
  bool used = false;
};

}  // namespace

Result<PlannedQuery> PlanQuery(const ParsedQuery& parsed,
                               const Catalog& catalog) {
  if (parsed.tables.empty()) {
    return Status::InvalidArgument("query needs at least one table");
  }
  GUS_ASSIGN_OR_RETURN(auto owner, BuildColumnMap(parsed, catalog));

  // Validate select-list columns resolve.
  for (const SelectItem& item : parsed.items) {
    std::set<std::string> used;
    CollectTables(item.expr, owner, &used);
    (void)used;
  }

  // Split WHERE into equi-join predicates and filters.
  std::vector<JoinPredicate> joins;
  std::vector<ExprPtr> filters;
  if (parsed.where != nullptr) {
    std::vector<ExprPtr> conjuncts;
    CollectConjuncts(parsed.where, &conjuncts);
    for (const ExprPtr& conjunct : conjuncts) {
      bool is_join = false;
      if (conjunct->op() == ExprOp::kEq &&
          conjunct->left()->op() == ExprOp::kColumn &&
          conjunct->right()->op() == ExprOp::kColumn) {
        const std::string& lc = conjunct->left()->column_name();
        const std::string& rc = conjunct->right()->column_name();
        auto li = owner.find(lc);
        auto ri = owner.find(rc);
        if (li == owner.end() || ri == owner.end()) {
          return Status::KeyError("unknown column in join predicate: " +
                                  conjunct->ToString());
        }
        if (li->second != ri->second) {
          joins.push_back({li->second, lc, ri->second, rc, false});
          is_join = true;
        }
      }
      if (!is_join) filters.push_back(conjunct);
    }
  }

  // Left-deep joins in FROM order.
  auto make_leaf = [&](const TableRef& table) -> Result<PlanPtr> {
    PlanPtr leaf = PlanNode::Scan(table.name);
    if (table.percent.has_value()) {
      leaf = PlanNode::Sample(SamplingSpec::Bernoulli(*table.percent / 100.0),
                              leaf);
    } else if (table.rows.has_value()) {
      const int64_t population = catalog.at(table.name).num_rows();
      if (*table.rows > population) {
        return Status::InvalidArgument(
            "TABLESAMPLE ROWS exceeds the cardinality of '" + table.name +
            "'");
      }
      leaf = PlanNode::Sample(
          SamplingSpec::WithoutReplacement(*table.rows, population), leaf);
    }
    return leaf;
  };

  GUS_ASSIGN_OR_RETURN(PlanPtr plan, make_leaf(parsed.tables[0]));
  std::set<std::string> joined = {parsed.tables[0].name};
  for (size_t i = 1; i < parsed.tables.size(); ++i) {
    const TableRef& table = parsed.tables[i];
    GUS_ASSIGN_OR_RETURN(PlanPtr leaf, make_leaf(table));
    // Find an unused equi-join predicate connecting `joined` and `table`.
    JoinPredicate* chosen = nullptr;
    for (JoinPredicate& jp : joins) {
      if (jp.used) continue;
      const bool forward = joined.count(jp.left_table) &&
                           jp.right_table == table.name;
      const bool backward = joined.count(jp.right_table) &&
                            jp.left_table == table.name;
      if (forward || backward) {
        chosen = &jp;
        if (backward) {
          std::swap(jp.left_table, jp.right_table);
          std::swap(jp.left_column, jp.right_column);
        }
        break;
      }
    }
    if (chosen != nullptr) {
      chosen->used = true;
      plan = PlanNode::Join(plan, leaf, chosen->left_column,
                            chosen->right_column);
    } else {
      plan = PlanNode::Product(plan, leaf);
    }
    joined.insert(table.name);
  }
  // Leftover join predicates (cycles) become filters.
  for (const JoinPredicate& jp : joins) {
    if (!jp.used) {
      filters.push_back(Eq(Col(jp.left_column), Col(jp.right_column)));
    }
  }
  for (const ExprPtr& filter : filters) {
    plan = PlanNode::SelectNode(filter, plan);
  }
  if (!parsed.group_by.empty() && !owner.count(parsed.group_by)) {
    return Status::KeyError("unknown GROUP BY column '" + parsed.group_by +
                            "'");
  }
  return PlannedQuery{std::move(plan), parsed.items, parsed.group_by};
}

std::string ApproxResult::ToString() const {
  std::ostringstream out;
  for (const ApproxValue& v : values) {
    if (!v.group.empty()) out << "[" << v.group << "] ";
    out << v.label << " = " << v.value;
    if (v.stddev > 0.0) {
      out << "  (stddev " << v.stddev << ", [" << v.lo << ", " << v.hi
          << "])";
    }
    out << "\n";
  }
  out << "(from " << sample_rows << " sampled tuples)";
  return out.str();
}

namespace {

/// One select item's estimate from its (lineage, f) view — shared by the
/// materializing and streaming paths.
Result<ApproxValue> EstimateItem(const SelectItem& item, const GusParams& top,
                                 const SampleView& view,
                                 const SboxOptions& options) {
  ApproxValue value;
  switch (item.kind) {
    case AggKind::kSum: {
      GUS_ASSIGN_OR_RETURN(SboxReport report,
                           SboxEstimate(top, view, options));
      value.label = "SUM(" + item.expr->ToString() + ")";
      value.value = report.estimate;
      value.stddev = report.stddev;
      value.lo = report.interval.lo;
      value.hi = report.interval.hi;
      break;
    }
    case AggKind::kCount: {
      GUS_ASSIGN_OR_RETURN(
          CountReport report,
          CountEstimate(top, view, options.confidence_level,
                        options.bound_kind));
      value.label = "COUNT(*)";
      value.value = report.estimate;
      value.stddev = report.stddev;
      value.lo = report.interval.lo;
      value.hi = report.interval.hi;
      break;
    }
    case AggKind::kAvg: {
      GUS_ASSIGN_OR_RETURN(
          RatioReport report,
          AvgEstimate(top, view, options.confidence_level,
                      options.bound_kind));
      value.label = "AVG(" + item.expr->ToString() + ")";
      value.value = report.estimate;
      value.stddev = report.stddev;
      value.lo = report.interval.lo;
      value.hi = report.interval.hi;
      break;
    }
    case AggKind::kQuantile: {
      GUS_ASSIGN_OR_RETURN(SboxReport report,
                           SboxEstimate(top, view, options));
      GUS_ASSIGN_OR_RETURN(
          double q, EstimateQuantile(report.estimate, report.variance,
                                     item.quantile, options.bound_kind));
      std::ostringstream label;
      label << "QUANTILE(SUM(" << item.expr->ToString() << "), "
            << item.quantile << ")";
      value.label = label.str();
      value.value = q;
      value.lo = q;
      value.hi = q;
      break;
    }
  }
  return value;
}

/// A grouped SUM item's per-group values (in the estimates' key order) —
/// shared by the materializing and streaming paths.
void AppendGroupValues(const SelectItem& item, const std::string& group_by,
                       const std::vector<GroupEstimate>& estimates,
                       ApproxResult* result) {
  for (const GroupEstimate& ge : estimates) {
    ApproxValue value;
    value.label = "SUM(" + item.expr->ToString() + ")";
    value.group = group_by + "=" + ge.key.ToString();
    value.value = ge.estimate;
    value.stddev = ge.stddev;
    value.lo = ge.interval.lo;
    value.hi = ge.interval.hi;
    result->values.push_back(std::move(value));
  }
}

/// \brief Per-item fan-out sink: one SampleViewBuilder per select item
/// (ungrouped) or one GroupedSumBuilder per item (grouped), plus the row
/// count; merges element-wise in partition order.
///
/// The one sink behind every streaming engine: kMorselParallel folds one
/// per morsel (a plan with no partition-safe pivot pumps the serial
/// pipeline into a single one), and the kSharded / kServed gathers ship
/// each shard's item states on the wire and Absorb them into an empty one.
class ItemFanoutSink final : public MergeableBatchSink {
 public:
  static Result<std::unique_ptr<ItemFanoutSink>> Make(
      const BatchLayout& layout, const std::vector<SelectItem>& items,
      const LineageSchema& schema, const std::string& group_by) {
    auto sink = std::make_unique<ItemFanoutSink>(!group_by.empty());
    for (const SelectItem& item : items) {
      if (group_by.empty()) {
        GUS_ASSIGN_OR_RETURN(SampleViewBuilder builder,
                             SampleViewBuilder::Make(layout, item.expr,
                                                     schema));
        sink->views_.push_back(std::move(builder));
      } else {
        GUS_ASSIGN_OR_RETURN(
            GroupedSumBuilder builder,
            GroupedSumBuilder::Make(layout, item.expr, group_by, schema));
        sink->groups_.push_back(std::move(builder));
      }
    }
    return sink;
  }

  /// Hands every morsel or shard its own sink; holds its inputs by value,
  /// so a shard attempt abandoned at its deadline may outlive the query.
  static MorselSinkFactory Factory(const PlannedQuery& planned,
                                   const SoaResult& soa) {
    return [items = planned.items, schema = soa.top.schema(),
            group_by = planned.group_by](const BatchLayout& layout)
               -> Result<std::unique_ptr<MergeableBatchSink>> {
      GUS_ASSIGN_OR_RETURN(std::unique_ptr<ItemFanoutSink> fanout,
                           Make(layout, items, schema, group_by));
      return std::unique_ptr<MergeableBatchSink>(std::move(fanout));
    };
  }

  /// An empty sink; without Make's bindings it only Absorbs item states.
  explicit ItemFanoutSink(bool grouped) : grouped_(grouped) {}

  Status Consume(const ColumnBatch& batch) override {
    sample_rows_ += batch.num_rows();
    for (SampleViewBuilder& builder : views_) {
      GUS_RETURN_NOT_OK(builder.Consume(batch));
    }
    for (GroupedSumBuilder& builder : groups_) {
      GUS_RETURN_NOT_OK(builder.Consume(batch));
    }
    return Status::OK();
  }

  // Grouped mode accumulates straight off the selection (no gather);
  // ungrouped mode keeps the default gather-then-Consume path.
  bool wants_views() const override { return !groups_.empty(); }
  Status ConsumeView(const SelView& view) override {
    if (groups_.empty()) return BatchSink::ConsumeView(view);
    sample_rows_ += view.num_rows();
    for (GroupedSumBuilder& builder : groups_) {
      GUS_RETURN_NOT_OK(builder.ConsumeView(view));
    }
    return Status::OK();
  }

  Status MergeFrom(BatchSink* other) override {
    auto* o = static_cast<ItemFanoutSink*>(other);
    sample_rows_ += o->sample_rows_;
    for (size_t i = 0; i < views_.size(); ++i) {
      GUS_RETURN_NOT_OK(views_[i].Merge(std::move(o->views_[i])));
    }
    for (size_t i = 0; i < groups_.size(); ++i) {
      GUS_RETURN_NOT_OK(groups_[i].Merge(std::move(o->groups_[i])));
    }
    return Status::OK();
  }

  /// The wire tag of the item states: VBLD ungrouped, GRUP grouped.
  WireTag item_tag() const {
    return grouped_ ? WireTag::kGroupedSum : WireTag::kViewBuilder;
  }
  size_t num_items() const {
    return grouped_ ? groups_.size() : views_.size();
  }

  /// Every item's serialized state, in item order.
  std::vector<std::pair<WireTag, std::string>> SerializeItems() const {
    std::vector<std::pair<WireTag, std::string>> sections;
    for (const SampleViewBuilder& builder : views_) {
      sections.emplace_back(WireTag::kViewBuilder, builder.SerializeState());
    }
    for (const GroupedSumBuilder& builder : groups_) {
      sections.emplace_back(WireTag::kGroupedSum, builder.SerializeState());
    }
    return sections;
  }

  /// Folds serialized state `payload` into item `item`: the first state
  /// an item receives becomes it, later ones merge in after it.
  Status Absorb(size_t item, std::string_view payload) {
    return grouped_ ? AbsorbInto(&groups_, item, payload)
                    : AbsorbInto(&views_, item, payload);
  }

  void add_sample_rows(int64_t rows) { sample_rows_ += rows; }
  int64_t sample_rows() const { return sample_rows_; }
  const std::vector<SampleViewBuilder>& views() const { return views_; }
  const std::vector<GroupedSumBuilder>& groups() const { return groups_; }

 private:
  template <typename Builder>
  static Status AbsorbInto(std::vector<Builder>* builders, size_t item,
                           std::string_view payload) {
    GUS_ASSIGN_OR_RETURN(Builder builder, Builder::DeserializeState(payload));
    if (item >= builders->size()) {
      builders->push_back(std::move(builder));
      return Status::OK();
    }
    return (*builders)[item].Merge(std::move(builder));
  }

  bool grouped_;
  int64_t sample_rows_ = 0;
  std::vector<SampleViewBuilder> views_;
  std::vector<GroupedSumBuilder> groups_;
};

/// The estimate tail of every streaming engine: per-item estimation over
/// the fan-out sink's builders (views when ungrouped, group tables
/// otherwise).
Result<ApproxResult> EstimateFromBuilders(const PlannedQuery& planned,
                                          const SoaResult& soa,
                                          const SboxOptions& options,
                                          const ItemFanoutSink& items) {
  ApproxResult result;
  result.sample_rows = items.sample_rows();
  for (size_t i = 0; i < planned.items.size(); ++i) {
    if (planned.group_by.empty()) {
      GUS_ASSIGN_OR_RETURN(ApproxValue value,
                           EstimateItem(planned.items[i], soa.top,
                                        items.views()[i].view(), options));
      result.values.push_back(std::move(value));
    } else {
      GUS_ASSIGN_OR_RETURN(
          auto estimates,
          items.groups()[i].Finish(soa.top, options.confidence_level,
                                   options.bound_kind));
      AppendGroupValues(planned.items[i], planned.group_by, estimates,
                        &result);
    }
  }
  return result;
}

/// Morsel-parallel path, grouped or not: one parallel pass fans every
/// partition's stream into per-item builders, merged in morsel order.
Result<ApproxResult> RunMorselParallel(const PlannedQuery& planned,
                                       const SoaResult& soa,
                                       const Catalog& catalog, Rng* rng,
                                       const SboxOptions& options,
                                       const ExecOptions& exec) {
  ColumnarCatalog columnar(&catalog);
  std::unique_ptr<MergeableBatchSink> sink;
  GUS_RETURN_NOT_OK(ParallelExecutePlanToSink(
      planned.plan, &columnar, rng, ExecMode::kSampled, exec,
      ItemFanoutSink::Factory(planned, soa), &sink));
  return EstimateFromBuilders(planned, soa, options,
                              *static_cast<ItemFanoutSink*>(sink.get()));
}

/// \brief The scatter/gather behind kSharded and kServed: every shard runs
/// under the one in-process shard supervisor (dist/coordinator.h) — with
/// the retries, deadlines and shard counters of the SBox gathers — and
/// serializes its per-item builder states into a wire bundle, which
/// FinishItemShardGather merges in shard order (the global unit order the
/// morsel engine merges in).
///
/// The per-shard states round-trip through the real wire format and a
/// ShardTransport even in this single-process form, so the cross-node
/// contract is exercised on every kSharded query, not only in tests.
Result<std::unique_ptr<ItemFanoutSink>> GatherShardedItems(
    const PlannedQuery& planned, const SoaResult& soa, const Catalog& catalog,
    uint64_t seed, const ExecOptions& exec) {
  // Shared with attempts abandoned at a deadline (see
  // JoinAbandonedShardAttempts).
  auto columnar = std::make_shared<ColumnarCatalog>(&catalog);
  const PlanPtr plan = planned.plan;
  const int num_shards = exec.num_shards;
  GUS_ASSIGN_OR_RETURN(
      std::vector<ShardOutcome> outcomes,
      SuperviseInProcessShards(
          plan, columnar.get(), exec, num_shards, /*transport=*/nullptr,
          [plan, columnar, seed, num_shards,
           make_sink = ItemFanoutSink::Factory(planned, soa)](
              int k, const ExecOptions& worker_exec,
              uint64_t expected_fingerprint) -> Result<std::string> {
            std::unique_ptr<MergeableBatchSink> sink;
            ShardMeta meta;
            std::vector<ResolvedPivotSampler> samplers;
            GUS_RETURN_NOT_OK(RunShardToSink(
                plan, columnar.get(), seed, ExecMode::kSampled, worker_exec,
                k, num_shards, make_sink, &sink, &meta, &samplers,
                expected_fingerprint));
            const auto& fanout = static_cast<const ItemFanoutSink&>(*sink);
            meta.rows = fanout.sample_rows();
            return BuildShardBundle(meta, samplers, fanout.SerializeItems());
          }));
  auto merged = std::make_unique<ItemFanoutSink>(!planned.group_by.empty());
  GUS_ASSIGN_OR_RETURN(
      const int64_t sample_rows,
      FinishItemShardGather(
          outcomes, merged->item_tag(), planned.items.size(),
          [&merged](size_t item, std::string_view payload) {
            return merged->Absorb(item, payload);
          },
          exec.stats));
  merged->add_sample_rows(sample_rows);
  return merged;
}

/// \brief Served path (ExecEngine::kServed): GatherShardedItems fronted by
/// the process-wide approximate-view cache.
///
/// The cache entry is a checksummed wire bundle holding the *merged*
/// per-item builder states plus the row count (a private META mini-payload
/// — just the i64 row count; only this reader consumes it). Builder
/// serialization round-trips bit-exactly, so a hit reproduces the miss's
/// ApproxResult to the last bit while executing nothing — ExecStats'
/// cache counters prove which path ran. Keyed on (sql + estimator
/// options, catalog content, seed, normalized morsel geometry);
/// num_shards is absent because kSharded results are shard-count
/// invariant.
Result<ApproxResult> RunServed(const PlannedQuery& planned,
                               const SoaResult& soa, const Catalog& catalog,
                               const std::string& sql, uint64_t seed,
                               const SboxOptions& options,
                               const ExecOptions& exec) {
  ViewCache* cache = ProcessViewCache();
  ViewCacheKey key;
  {
    WireWriter w;
    w.PutString(sql);
    w.PutDouble(options.confidence_level);
    w.PutU8(static_cast<uint8_t>(options.bound_kind));
    w.PutU8(options.subsample.has_value() ? 1 : 0);
    if (options.subsample.has_value()) {
      w.PutI64(options.subsample->target_rows);
      w.PutU64(options.subsample->seed);
    }
    key.query_fingerprint =
        HashBytes(kFnv1aOffset, w.buffer().data(), w.buffer().size());
  }
  {
    ColumnarCatalog columnar(&catalog);
    GUS_ASSIGN_OR_RETURN(key.catalog_fingerprint,
                         PlanCatalogFingerprint(planned.plan, &columnar));
  }
  key.seed = seed;
  key.morsel_rows = ShardedExecOptions(exec).morsel_rows;
  {
    const double scale = 1.0;  // sqlish has no admission front door (yet)
    uint64_t bits = 0;
    std::memcpy(&bits, &scale, sizeof(bits));
    key.scale_bits = bits;
  }

  std::optional<std::string> cached = cache->Lookup(key);
  if (cached.has_value()) {
    if (exec.stats != nullptr) ++exec.stats->cache_hits;
    // A poisoned entry fails loudly here (container checksum / section
    // shape), never silently re-executes or serves damaged numbers.
    GUS_ASSIGN_OR_RETURN(std::vector<WireSectionView> sections,
                         ParseWireBundle(*cached));
    GUS_ASSIGN_OR_RETURN(WireSectionView meta,
                         FindWireSection(sections, WireTag::kMeta));
    WireReader r(meta.payload);
    int64_t sample_rows = 0;
    GUS_RETURN_NOT_OK(r.ReadI64(&sample_rows));
    GUS_RETURN_NOT_OK(r.ExpectEnd());
    ItemFanoutSink items(!planned.group_by.empty());
    items.add_sample_rows(sample_rows);
    for (const WireSectionView& section : sections) {
      if (section.tag != items.item_tag()) continue;
      GUS_RETURN_NOT_OK(items.Absorb(items.num_items(), section.payload));
    }
    if (items.num_items() != planned.items.size()) {
      return Status::InvalidArgument(
          "view-cache entry carries " + std::to_string(items.num_items()) +
          " item states, expected " + std::to_string(planned.items.size()) +
          "; refusing to serve");
    }
    return EstimateFromBuilders(planned, soa, options, items);
  }

  GUS_ASSIGN_OR_RETURN(std::unique_ptr<ItemFanoutSink> items,
                       GatherShardedItems(planned, soa, catalog, seed, exec));
  if (exec.stats != nullptr) ++exec.stats->cache_misses;
  WireBundleWriter bundle;
  {
    WireWriter meta;
    meta.PutI64(items->sample_rows());
    bundle.AddSection(WireTag::kMeta, meta.Take());
  }
  for (auto& [tag, payload] : items->SerializeItems()) {
    bundle.AddSection(tag, std::move(payload));
  }
  cache->Insert(key, bundle.Finish());
  return EstimateFromBuilders(planned, soa, options, *items);
}

}  // namespace

Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options,
                                    ExecEngine engine) {
  ExecOptions exec;
  exec.engine = engine;
  return RunApproxQuery(sql, catalog, seed, options, exec);
}

Result<ApproxResult> RunApproxQuery(const std::string& sql,
                                    const Catalog& catalog, uint64_t seed,
                                    const SboxOptions& options,
                                    const ExecOptions& exec) {
  GUS_RETURN_NOT_OK(exec.Validate());
  GUS_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(sql));
  GUS_ASSIGN_OR_RETURN(PlannedQuery planned, PlanQuery(parsed, catalog));
  GUS_ASSIGN_OR_RETURN(SoaResult soa, SoaTransform(planned.plan));

  Rng rng(seed);
  if (exec.engine == ExecEngine::kServed) {
    return RunServed(planned, soa, catalog, sql, seed, options, exec);
  }
  if (exec.engine == ExecEngine::kSharded) {
    GUS_ASSIGN_OR_RETURN(
        std::unique_ptr<ItemFanoutSink> items,
        GatherShardedItems(planned, soa, catalog, seed, exec));
    return EstimateFromBuilders(planned, soa, options, *items);
  }
  if (exec.engine == ExecEngine::kMorselParallel) {
    return RunMorselParallel(planned, soa, catalog, &rng, options, exec);
  }
  // kRowAtATime, the reference oracle: materialize, then estimate.
  GUS_ASSIGN_OR_RETURN(
      Relation sample,
      ExecutePlan(planned.plan, catalog, &rng, ExecMode::kSampled, exec));

  ApproxResult result;
  result.sample_rows = sample.num_rows();
  if (!planned.group_by.empty()) {
    // Grouped path: per-group SUM estimation with per-group intervals.
    for (const SelectItem& item : planned.items) {
      GUS_ASSIGN_OR_RETURN(
          auto groups,
          GroupedSumEstimate(soa.top, sample, item.expr, planned.group_by,
                             options.confidence_level, options.bound_kind));
      AppendGroupValues(item, planned.group_by, groups, &result);
    }
    return result;
  }
  for (const SelectItem& item : planned.items) {
    GUS_ASSIGN_OR_RETURN(
        SampleView view,
        SampleView::FromRelation(sample, item.expr, soa.top.schema()));
    GUS_ASSIGN_OR_RETURN(ApproxValue value,
                         EstimateItem(item, soa.top, view, options));
    result.values.push_back(std::move(value));
  }
  return result;
}

}  // namespace sqlish
}  // namespace gus
