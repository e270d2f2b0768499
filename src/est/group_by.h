// Grouped aggregate estimation: SUM(f) ... GROUP BY key, with a confidence
// interval per group.
//
// Each group's aggregate is itself a SUM-like aggregate over the same GUS
// sample — restrict f with the group's indicator and Theorem 1 applies
// unchanged. This is how the paper's machinery extends to the grouped
// queries real dashboards issue; it needs no new theory, only plumbing
// (which is the point of the algebra).

#ifndef GUS_EST_GROUP_BY_H_
#define GUS_EST_GROUP_BY_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "algebra/gus_params.h"
#include "est/confidence.h"
#include "est/sample_view.h"
#include "rel/column_batch.h"
#include "rel/expression.h"
#include "rel/relation.h"
#include "util/status.h"

namespace gus {

/// One group's estimate.
struct GroupEstimate {
  Value key;
  double estimate = 0.0;
  double variance = 0.0;
  double stddev = 0.0;
  ConfidenceInterval interval;
  /// Sample tuples contributing to the group.
  int64_t sample_rows = 0;
};

/// \brief Estimates SUM(f) per distinct value of `key_column`.
///
/// `rel` is the sampled result relation; f and the key are evaluated per
/// row. Groups absent from the sample are (necessarily) absent from the
/// output — a fundamental limitation of sampling shared with the paper's
/// DISTINCT discussion. Numeric keys sort first, by value, then strings.
Result<std::vector<GroupEstimate>> GroupedSumEstimate(
    const GusParams& gus, const Relation& rel, const ExprPtr& f_expr,
    const std::string& key_column, double confidence_level = 0.95,
    BoundKind kind = BoundKind::kNormal);

/// \brief Batch-incremental grouped-SUM state fed from column batches,
/// mergeable across partitions.
///
/// The rows are held once, in arrival order, each with its dense group
/// index; Finish hands y_S each group's rows as one slice. Consuming a
/// batch stream and calling Finish is bit-identical to GroupedSumEstimate
/// over the materialized relation; merging split builders in partition
/// order is bit-identical to the unsplit builder (each group's rows stay in
/// partition order, and Finish sorts the output by key).
class GroupedSumBuilder final : public BatchSink {
 public:
  static Result<GroupedSumBuilder> Make(const BatchLayout& layout,
                                        const ExprPtr& f_expr,
                                        const std::string& key_column,
                                        const LineageSchema& schema);

  Status Consume(const ColumnBatch& batch) override;

  /// \brief Gather-free accumulation: reads keys and lineage through the
  /// selection directly (no materialized batch); only the aggregate
  /// expression's column footprint is gathered, and only when the view is
  /// not a whole batch.
  ///
  /// Key hashing runs through the dispatched SIMD kernels; group payload
  /// appends are boxing-free (a Value is constructed only when a new group
  /// is first seen). Bit-identical to gathering the view into a batch and
  /// calling Consume.
  Status ConsumeView(const SelView& view) override;
  bool wants_views() const override { return true; }

  /// Folds a later partition's builder into this one: its rows append,
  /// their group indices remapped onto this builder's groups.
  Status Merge(GroupedSumBuilder&& other);

  /// \brief Serializes the partial state as a WireTag::kGroupedSum payload.
  ///
  /// String group keys are dictionary-coded: the payload carries the
  /// distinct strings once and each group references its code, so two
  /// shards' dictionaries may assign the same code to different strings
  /// ("colliding dictionaries") — decode resolves codes back to strings,
  /// which is exactly the remap that makes cross-shard Merge safe. Groups
  /// are emitted in canonical key order, so equal logical state produces
  /// equal bytes (golden-buffer testable). Deserialized builders are
  /// merge/finish-only (Consume fails loudly: the bound expression does
  /// not travel); merging them in shard order is bit-identical to the
  /// in-process merge.
  std::string SerializeState() const;
  static Result<GroupedSumBuilder> DeserializeState(std::string_view payload);

  /// Per-group estimates (sorted by key), exactly as GroupedSumEstimate.
  Result<std::vector<GroupEstimate>> Finish(
      const GusParams& gus, double confidence_level = 0.95,
      BoundKind kind = BoundKind::kNormal) const;

  int64_t num_groups() const { return static_cast<int64_t>(keys_.size()); }

 private:
  GroupedSumBuilder() = default;

  /// Shared accumulation core: f_scratch_ holds the f value of each listed
  /// row; keys and lineage are read from `data` at rows[k] directly.
  Status AccumulateRows(const ColumnBatch& data, const int64_t* rows,
                        int64_t len);

  std::vector<int> source_;  // analysis dim -> layout lineage column
  ExprPtr bound_;
  int key_idx_ = 0;
  SampleView rows_;                 // every row, in arrival order
  std::vector<uint32_t> group_of_;  // rows_ row -> group index
  std::vector<Value> keys_;         // group index -> key
  std::unordered_map<uint64_t, uint32_t> index_;  // Value::Hash -> group
  std::vector<char> footprint_;  // columns the bound f expression reads
  std::vector<double> f_scratch_;
  std::vector<int64_t> rows_scratch_;
  std::vector<uint64_t> hash_scratch_;
  ColumnBatch eval_scratch_;
  DictPtr key_dict_;  // cached dictionary hashes for string keys
  std::vector<uint64_t> key_dict_hashes_;
};

}  // namespace gus

#endif  // GUS_EST_GROUP_BY_H_
