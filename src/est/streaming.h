// Batch-incremental consumers for the estimation layer.
//
// The columnar executor pushes (lineage, f-value) batches straight into
// these sinks, so the query result is never materialized as a relation:
//
//   * SampleViewBuilder — accumulates a SampleView (the Section 6 input)
//     batch by batch; equivalent to SampleView::FromRelation on the
//     materialized result, without the result.
//   * StreamingSboxEstimator — the full SBox in one pass. The point
//     estimate accumulates a running sum; the Section 7 sub-sampled y_S
//     path retains only the rows that can still survive the final
//     lineage-seeded Bernoulli filter. The per-dimension probability
//     p = (target/m)^(1/n) depends on the final stream length m, but it
//     only ever *decreases* as m grows, and the lineage filter is monotone
//     in p — a row kept at the final p is kept at every interim p. The
//     estimator therefore retains rows under the interim threshold (a
//     superset), prunes as the threshold tightens, and applies the exact
//     final filter in Finish(); the report is bit-identical to running
//     SboxEstimate over the fully materialized view.
//
// Without a subsample configuration the y_S statistics need every row, so
// the estimator degrades to retaining the full view — the paper's Section 7
// point is precisely that the sub-sample is what makes streaming-sized
// state possible.

#ifndef GUS_EST_STREAMING_H_
#define GUS_EST_STREAMING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/gus_params.h"
#include "est/sample_view.h"
#include "est/sbox.h"
#include "plan/columnar_executor.h"
#include "plan/parallel_executor.h"
#include "rel/column_batch.h"
#include "rel/expression.h"
#include "util/status.h"

namespace gus {

/// \brief Accumulates a SampleView from column batches.
class SampleViewBuilder final : public BatchSink {
 public:
  /// \brief Prepares a builder for batches of `layout`.
  ///
  /// Binds `f_expr` against the layout's schema and maps the analysis
  /// schema's dimensions onto the layout's lineage columns (same
  /// requirements and diagnostics as SampleView::FromRelation).
  static Result<SampleViewBuilder> Make(const BatchLayout& layout,
                                        const ExprPtr& f_expr,
                                        const LineageSchema& schema);

  Status Consume(const ColumnBatch& batch) override;

  /// \brief Folds a later partition's builder into this one (same layout
  /// and analysis schema required).
  ///
  /// Merging split builders in partition order is bit-identical to one
  /// builder consuming the concatenated stream.
  Status Merge(SampleViewBuilder&& other);

  /// \brief Serializes the partial state as a WireTag::kViewBuilder payload
  /// (see docs/WIRE_FORMAT.md).
  ///
  /// DeserializeState(SerializeState()) reproduces the state bit for bit;
  /// the deserialized builder is merge/read-only (its expression binding
  /// does not travel — Consume on it fails loudly). Merging deserialized
  /// shard states in shard order is bit-identical to the in-process merge
  /// of the original builders.
  std::string SerializeState() const;
  static Result<SampleViewBuilder> DeserializeState(std::string_view payload);

  const SampleView& view() const { return view_; }

 private:
  SampleViewBuilder() = default;

  std::vector<int> source_;  // analysis dim -> layout lineage column
  ExprPtr bound_;
  SampleView view_;
};

/// \brief One-pass SBox estimation over a batch stream.
class StreamingSboxEstimator final : public BatchSink {
 public:
  static Result<StreamingSboxEstimator> Make(const BatchLayout& layout,
                                             const ExprPtr& f_expr,
                                             const GusParams& gus,
                                             const SboxOptions& options = {});

  Status Consume(const ColumnBatch& batch) override;

  /// \brief Folds a later partition's estimator into this one.
  ///
  /// Running sums add; the Section 7 retained sets concatenate and
  /// re-prune under the merged (tighter) interim threshold — the filter is
  /// monotone in p, so the merged retained set is exactly what one
  /// estimator would have retained over the concatenated stream, and
  /// Finish() after a partition-ordered merge reproduces the unsplit run.
  /// Requires matching analysis schema and options.
  Status Merge(StreamingSboxEstimator&& other);

  /// \brief Serializes the partial state as a WireTag::kSboxState payload:
  /// GUS parameters, SBox options, dimension map, running sums, and the
  /// Section-7 retained set with its unit values.
  ///
  /// Round-trip fidelity is bit-exact: Merge / Finish over deserialized
  /// shard states reproduce the in-process results to the last bit (the
  /// distributed gather path relies on this; see src/dist/). Deserialized
  /// estimators are merge/finish-only — Consume fails loudly because the
  /// bound aggregate expression does not travel.
  std::string SerializeState() const;
  static Result<StreamingSboxEstimator> DeserializeState(
      std::string_view payload);

  /// Completes the estimation; bit-identical to SboxEstimate over the
  /// materialized view. The variance reads the retained rows in place.
  Result<SboxReport> Finish();

  /// \brief Finishes a degraded gather from per-shard partial states
  /// (est/partial_gather.h): `surviving` of `total` data-bearing shards
  /// delivered, the rest were lost.
  ///
  /// The point estimate composes the "shard survived" quasi-operator
  /// `survival` into the design (divide by a·m/N — the Horvitz-Thompson
  /// re-weighting; the mean over all single-shard losses telescopes back
  /// to the complete estimate exactly). The variance is NOT computed from
  /// the composed b̄ table: shard membership is a function of the pivot
  /// *unit*, not the pivot lineage value, so two rows differing on every
  /// lineage dimension may still share a shard — a lineage-indexed GUS
  /// table cannot express their higher co-survival probability, and
  /// pretending it can biases the variance (negative, in practice).
  /// Per-shard states make the exact law-of-total-variance split
  /// estimable instead:
  ///
  ///   Var(X_p) = Var_base(X) + E[ Var(X_p | sample) ]
  ///
  ///   * Var_base: pair statistics split into within-shard pairs
  ///     (co-survival m/N) and cross-shard pairs (m(m-1)/(N(N-1)));
  ///     each class is Horvitz-Thompson corrected at its true probability,
  ///     then the standard unbiasing recursion and Theorem 1 run under
  ///     the base design. Unbiased for the complete run's variance.
  ///   * survival part: X_p is the scaled total of a uniform
  ///     without-replacement m-of-N draw over the shard contributions,
  ///     so Var(X_p | sample) = N² (1/m − 1/N) S_T² with S_T² the
  ///     between-shard variance of the contributions; the survivors'
  ///     sample variance estimates S_T² unbiasedly.
  ///
  /// Both pieces are unbiased, and the second is nonnegative — the
  /// degraded CI is honestly wider on average than the complete one.
  ///
  /// The retained rows are concatenated once, in shard order. Over the
  /// final Section 7 survivors, each shard's slice gives its within-shard
  /// table (summed in shard order) and all of them the merged table.
  /// Requires 2 <= surviving < total (one survivor has no between-shard
  /// variance; the caller refuses that case) and shard states over one
  /// schema/design, in shard order.
  static Result<SboxReport> FinishDegraded(
      std::vector<StreamingSboxEstimator> shard_states,
      const GusParams& survival, int surviving, int total);

  /// \brief Returns the estimator to its just-Made empty state, keeping
  /// the (immutable) binding: schema map, bound expression, GUS parameters,
  /// and options.
  ///
  /// After Reset() the estimator consumes a fresh stream exactly as a
  /// newly Made instance would — this is what lets the parallel executor's
  /// sink arena recycle one estimator across many morsels instead of
  /// re-binding per morsel. Merge never reads the binding state, so a
  /// recycled estimator is indistinguishable from a fresh one by
  /// construction.
  void Reset();

  /// Rows currently retained for the y_S path (diagnostic; bounded at
  /// roughly 2x the subsample target once the stream exceeds it).
  int64_t retained_rows() const { return retained_.num_rows(); }
  int64_t rows_seen() const { return rows_seen_; }
  /// The sampling design.
  const GusParams& design() const { return gus_; }

 private:
  StreamingSboxEstimator() = default;

  /// Interim per-dimension threshold for the rows seen so far (1.0 while
  /// the stream still fits the target).
  double InterimP() const;
  /// Drops retained rows that can no longer survive the final filter.
  void Prune();

  /// Closes the open accumulation segment into closed_sums_ (no-op when
  /// nothing was consumed since the last seal).
  void SealSegment();
  /// closed_sums_ plus the open segment, in stream order.
  std::vector<double> SegmentSums() const;

  GusParams gus_;
  SboxOptions options_;
  std::vector<int> source_;
  ExprPtr bound_;

  int64_t rows_seen_ = 0;
  /// \brief The point-estimate numerator as per-segment partial sums.
  ///
  /// One segment per contiguously-consumed partition (morsel), closed on
  /// Merge; Finish folds the segments left-to-right. Keeping the
  /// per-segment sums instead of one eagerly-merged accumulator makes the
  /// total a pure function of the global segment sequence: however the
  /// units are grouped into workers or shards, the same segments arrive
  /// in the same order and the fold produces the same bits. (Eager
  /// merging would re-associate the floating-point sum differently for
  /// every shard count.)
  std::vector<double> closed_sums_;
  double open_sum_ = 0.0;
  int64_t open_rows_ = 0;
  std::vector<double> f_scratch_;  // reused per batch
  /// Retained candidate rows with their max-over-dimensions unit value
  /// (a row survives threshold p iff ustar < p).
  SampleView retained_;
  std::vector<double> ustar_;
};

/// \brief Adapts StreamingSboxEstimator to the morsel sink protocol — the
/// one SBox sink behind EstimatePlanParallel and the shard workers
/// (dist/worker.h). Recycle() resets the estimator, so the executor's
/// per-morsel arena reuses one binding across morsels.
class SboxEstimatorSink final : public MergeableBatchSink {
 public:
  explicit SboxEstimatorSink(StreamingSboxEstimator est)
      : est_(std::move(est)) {}

  /// Hands every morsel a fresh estimator for `f_expr` over `gus`.
  static MorselSinkFactory Factory(ExprPtr f_expr, GusParams gus,
                                   SboxOptions options);

  Status Consume(const ColumnBatch& batch) override {
    return est_.Consume(batch);
  }

  Status MergeFrom(BatchSink* other) override {
    return est_.Merge(std::move(static_cast<SboxEstimatorSink*>(other)->est_));
  }

  bool Recycle() override {
    est_.Reset();
    return true;
  }

  StreamingSboxEstimator* estimator() { return &est_; }

 private:
  StreamingSboxEstimator est_;
};

/// \brief Executes `plan` on the columnar engine and streams the result
/// straight into the SBox; the result relation is never materialized.
///
/// Equivalent to ExecutePlan + SampleView::FromRelation + SboxEstimate
/// (identical report), in one pass.
Result<SboxReport> EstimatePlanStreaming(const PlanPtr& plan,
                                         ColumnarCatalog* catalog, Rng* rng,
                                         const ExprPtr& f_expr,
                                         const GusParams& gus,
                                         const SboxOptions& options = {},
                                         ExecMode mode = ExecMode::kSampled,
                                         int64_t batch_rows = kDefaultBatchRows);

/// \brief Morsel-parallel EstimatePlanStreaming.
///
/// Each partition streams into its own StreamingSboxEstimator on whatever
/// worker runs it; the per-partition estimators merge in morsel order, so
/// the report is bit-deterministic in (plan, catalog, seed, exec options)
/// and identical across num_threads values (see plan/parallel_executor.h
/// for the sampling-design caveats vs the serial engines).
Result<SboxReport> EstimatePlanParallel(const PlanPtr& plan,
                                        ColumnarCatalog* catalog, Rng* rng,
                                        const ExprPtr& f_expr,
                                        const GusParams& gus,
                                        const SboxOptions& options,
                                        ExecMode mode,
                                        const ExecOptions& exec);

}  // namespace gus

#endif  // GUS_EST_STREAMING_H_
