// Batch-at-a-time columnar plan execution.
//
// The plan compiles into a pull-based pipeline of batch operators:
//
//   scan            zero-copy range views over the base relation's row
//                   runs (ScanInput: one run for a resident relation, one
//                   pinned segment per run for a segment-backed one)
//   select          vectorized predicate over the incoming view's rows ->
//                   composed selection vector (only the predicate's column
//                   footprint is ever gathered)
//   sample          exact mode: pass-through (block sampling re-keys
//                   lineage on the fly); sampled mode: Bernoulli and
//                   lineage-Bernoulli fuse as streaming selection
//                   composers over the geometric-skip / lineage-hash
//                   kernels (kernels/sampling_kernels.h); fixed-size and
//                   block samplers over a base scan draw on the scan input
//                   at their first pull and stream the kept rows (the keep
//                   slice and block sample leaves the morsel engine uses
//                   too); over anything else they stay pipeline breakers
//                   through the shared index-selection core
//                   (sampling/samplers.h)
//   join/product    one probe operator over a SharedSide: one input
//                   materialized once (a join's with its flat
//                   open-addressing JoinHashTable, kernels/join_hash_table.h)
//                   and the other streamed through it. The serial pipeline
//                   drains both inputs first and shares a join's smaller
//                   input (the row engine's build rule) or a product's
//                   right one; the morsel engine shares the non-pivot side
//   union           breaker; dedups by exact lineage ids, streaming out
//
// Fused chains of scan/select/streaming-sample exchange SelViews —
// selection vectors over borrowed batches — and gather exactly once, at
// the next breaker or at the sink (see BatchSource::NextView). The top of
// the pipeline either materializes into a ColumnarRelation
// (ExecutePlanColumnar) or pushes straight into a BatchSink
// (CompileBatchPipeline + PumpToSink) — the latter is how the estimators
// consume the (lineage, f) stream without ever materializing the final
// relation (est/streaming.h).
//
// Engine parity: sampling decisions come from the shared kernels, the
// pipeline drains sub-plans in the row engine's post-order (left fully
// before right, children before breaker samplers), and a Bernoulli
// sampler only fuses when no other streaming Rng consumer shares its
// fragment (FragmentHasStreamingRngSampler) — so the Rng consumption
// order, and therefore every row and lineage value, is identical across
// both engines for a (plan, catalog, seed, mode) pair.

#ifndef GUS_PLAN_COLUMNAR_EXECUTOR_H_
#define GUS_PLAN_COLUMNAR_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "plan/executor.h"
#include "plan/plan_node.h"
#include "rel/column_batch.h"
#include "util/random.h"
#include "util/status.h"

namespace gus {

class SegmentCache;    // store/segment_cache.h
class StoredRelation;  // store/segment_store.h

/// \brief Catalog of base relations in columnar form.
///
/// The base class is the in-memory form over a Catalog, immutable after
/// construction: the constructor snapshots a Relation copy of every entry.
/// The copies share the relations' column blocks, so nothing converts or
/// copies column data; Get() returns the snapshot's columns
/// (Relation::Columnar) and Fingerprint() the fingerprint the relation
/// memoizes with them (under its own mutex). Building a catalog per query
/// is therefore cheap — the const Catalog& entry points (ExecutePlan,
/// sqlish RunApproxQuery, ShardedSboxEstimate) do exactly that — and
/// concurrent readers need no set-up. A catalog keeps scanning its
/// snapshot even if a relation is appended to afterwards: the append
/// copies the columns the snapshot shares; relations added to the Catalog
/// after construction are not in the snapshot.
///
/// The virtual surface is what lets the execution engines run over other
/// storage unchanged: SegmentCatalog (store/segment_catalog.h) overrides it
/// to serve mmap-ed on-disk segments, exposing Stored()/segment_cache() so
/// scans can fault individual segments — and skip provably useless ones —
/// instead of materializing whole tables through Get(). Scan leaves never
/// call these directly: they read rows through ScanInput, and
/// ResolveScanInput makes the resident-vs-stored choice.
class ColumnarCatalog {
 public:
  explicit ColumnarCatalog(const Catalog* catalog) : snapshot_(*catalog) {}
  virtual ~ColumnarCatalog() = default;

  /// \brief The fully materialized columnar form of base relation `name`.
  ///
  /// This is the compatibility surface: pipeline breakers that need a whole
  /// side resident (join builds, row-engine interop) call it. Scans go
  /// through ResolveScanInput instead, which prefers Stored().
  virtual Result<const ColumnarRelation*> Get(const std::string& name);

  /// \brief Content fingerprint of base relation `name` (computed once,
  /// memoized with the relation's columns).
  ///
  /// Hashes the schema (names + types), lineage schema, row count, every
  /// column value (strings by content, floats by bit pattern), and the
  /// lineage matrix — catalogs agree on a relation iff it is content-
  /// equivalent (rel/column_batch.h ContentFingerprint). The shard protocol
  /// combines these per plan (PlanCatalogFingerprint, dist/shard.h) so
  /// workers detect divergent base data before their partial states merge.
  virtual Result<uint64_t> Fingerprint(const std::string& name);

  /// \brief The on-disk segment form of `name`, or null for purely
  /// in-memory catalogs (the default).
  ///
  /// Non-null means ResolveScanInput streams the relation's scans
  /// segment-at-a-time through segment_cache() instead of calling Get().
  virtual Result<const StoredRelation*> Stored(const std::string& name) {
    (void)name;
    return static_cast<const StoredRelation*>(nullptr);
  }

  /// Row count of `name` without forcing materialization (segment catalogs
  /// answer from the header; the default calls Get()).
  virtual Result<int64_t> RowCountOf(const std::string& name);

  /// Layout of `name` without forcing materialization.
  virtual Result<LayoutPtr> LayoutOf(const std::string& name);

  /// The pinned-segment cache backing Stored() relations (null for
  /// in-memory catalogs).
  virtual SegmentCache* segment_cache() { return nullptr; }

 protected:
  /// For derived catalogs that do not wrap a row-engine Catalog.
  ColumnarCatalog() = default;

 private:
  /// The relation named `name` in the snapshot, or KeyError.
  Result<const Relation*> Find(const std::string& name) const;

  const Catalog snapshot_;
};

/// \brief Rows [begin, end) of a base relation, held by one batch as its
/// rows [0, end - begin).
struct RowRun {
  /// A faulted segment stays alive while a leaf holds its run; a resident
  /// relation's run borrows the relation's batch (non-owning alias).
  std::shared_ptr<const ColumnBatch> batch;
  int64_t begin = 0;
  int64_t end = 0;  ///< begin == end: no run yet
};

/// \brief How scan leaves reach a base relation's rows, whatever holds them.
///
/// A resident relation is one run over its whole data(); a segment-backed
/// relation is one run per segment, faulted through the catalog's
/// SegmentCache on demand. The leaf operators (scan slice, keep slice,
/// block sample) are written once against Seek and never ask which backing
/// they read. Immutable once resolved, so morsel workers share one
/// instance concurrently (SegmentCache::Fault is thread-safe).
class ScanInput {
 public:
  int64_t num_rows() const { return num_rows_; }
  const LayoutPtr& layout() const { return layout_; }

  /// The segment store behind the relation, or null when it is resident
  /// (split geometry, the pruner and the ExecStats segment counters read
  /// it).
  const StoredRelation* store() const { return store_; }

  /// Points `run` at the run holding global row `row`
  /// (0 <= row < num_rows()); a no-op when `run` already covers it.
  Status Seek(int64_t row, RowRun* run) const;

  /// The rows of a resident relation as one run; `rel` must outlive the
  /// input.
  static ScanInput Resident(const ColumnarRelation* rel);

 private:
  friend Result<ScanInput> ResolveScanInput(ColumnarCatalog* catalog,
                                            const std::string& name);

  const ColumnarRelation* rel_ = nullptr;  // non-null: resident
  const StoredRelation* store_ = nullptr;  // non-null: segment-backed
  SegmentCache* cache_ = nullptr;          // faults store_'s segments
  LayoutPtr layout_;
  int64_t num_rows_ = 0;
};

/// \brief Resolves base relation `name` for scanning: its segment store
/// when catalog->Stored(name) has one, else its resident form from
/// catalog->Get(name). The one place the resident-vs-stored choice is made.
Result<ScanInput> ResolveScanInput(ColumnarCatalog* catalog,
                                   const std::string& name);

/// \brief Pull iterator over a stream of column batches.
///
/// Two pull surfaces, each with a default implemented via the other (a
/// concrete source overrides at least one):
///
///   * Next(out)     — the classic materializing pull: rows gathered into
///                     a caller-owned batch.
///   * NextView(out) — the fused pull: a SelView over producer-owned data.
///                     Selection-composing operators (scan, select,
///                     streaming samplers) override this one and never
///                     gather; consumers that need materialized rows
///                     (breakers, sinks) gather once, at their boundary.
///
/// A returned view borrows the producer's storage and stays valid until
/// the next pull on this source.
class BatchSource {
 public:
  virtual ~BatchSource() = default;

  const LayoutPtr& layout() const { return layout_; }

  /// \brief Pulls the next batch into `out` (cleared first).
  ///
  /// Returns false when the stream is exhausted; a true return may carry an
  /// empty batch (e.g. a fully-filtered chunk) and callers keep pulling.
  /// Default: NextView + one gather.
  virtual Result<bool> Next(ColumnBatch* out);

  /// \brief Pulls the next rows as a selection view (see class comment).
  ///
  /// Same exhaustion protocol as Next; a true return may carry an empty
  /// view. Default: Next into an internal scratch batch, viewed whole.
  virtual Result<bool> NextView(SelView* out);

  /// \brief Rows this source will still emit after its last pull, when it
  /// knows them exactly; -1 (the default) when not.
  ///
  /// DrainSource reads it once, after its first pull, to size its output's
  /// columns in one allocation.
  virtual int64_t remaining_rows() const { return -1; }

 protected:
  explicit BatchSource(LayoutPtr layout) : layout_(std::move(layout)) {}

  LayoutPtr layout_;

 private:
  ColumnBatch view_scratch_;  // backs the default NextView only
};

// ---- Shared pipeline building blocks ---------------------------------------
//
// Used by CompileBatchPipeline and by the morsel-parallel executor
// (plan/parallel_executor.cc), which composes per-partition pipelines from
// the same physical operators.

/// Streams rows [begin, begin + len) of `input` (len < 0 means "to the
/// end") as range views, at most `batch_rows` long and clipped at run ends.
std::unique_ptr<BatchSource> MakeScanSliceSource(ScanInput input,
                                                 int64_t batch_rows,
                                                 int64_t begin = 0,
                                                 int64_t len = -1);

/// \brief A fixed-size sampler's leaf: the rows of `input` named by
/// keep[offset, offset + len) (global row ids, ascending) as selection
/// views over the input's runs, at most `batch_rows` per pull.
///
/// The morsel engine gives each morsel its sub-range of a pivot keep-set;
/// the serial pipeline walks a whole keep-set drawn over the scan.
std::unique_ptr<BatchSource> MakeKeepSliceSource(
    ScanInput input, std::shared_ptr<const std::vector<int64_t>> keep,
    int64_t offset, int64_t len, int64_t batch_rows);

/// \brief Sampled-mode block sampling over rows [begin, end) of `input`:
/// blocks kept by DecoupledBlockKeep(seed, block, p), their rows gathered
/// with lineage re-keyed to the block id, `batch_rows` input rows per pull.
///
/// Any row range yields the rows DecideSampling keeps in it for that seed,
/// so morsel slices and the serial pipeline's whole scan agree.
std::unique_ptr<BatchSource> MakeBlockSampleSource(
    ScanInput input, int64_t begin, int64_t end, uint64_t seed, double p,
    int64_t block_size, int64_t batch_rows);

/// Vectorized select over `child`; binds `predicate` against the child
/// layout.
Result<std::unique_ptr<BatchSource>> MakeSelectSource(
    std::unique_ptr<BatchSource> child, const ExprPtr& predicate);

/// \brief Sampled-mode sampler over `child`.
///
/// Lineage-seeded Bernoulli always fuses (selection-composing, consumes no
/// Rng). Plain Bernoulli fuses when `stream_ok` — the caller asserts no
/// other *streaming* Rng-consuming sampler is live below in the same
/// pipeline fragment, so the geometric-skip draws interleave with nothing
/// and match the one-shot order (see FragmentHasStreamingRngSampler).
/// Everything else is a pipeline breaker routed through the shared
/// index-selection core. `rng` must outlive the source.
Result<std::unique_ptr<BatchSource>> MakeSampleSource(
    std::unique_ptr<BatchSource> child, const SamplingSpec& spec, Rng* rng,
    int64_t batch_rows, bool stream_ok);

/// \brief Streaming lineage re-key to block granularity (exact-mode block
/// sampling). `base_row` is the global scan row index of the child's first
/// row — 0 for a whole-relation pipeline, the morsel offset for a slice.
std::unique_ptr<BatchSource> MakeBlockRekeySource(
    std::unique_ptr<BatchSource> child, int64_t block_size,
    int64_t base_row = 0);

/// The static shape of a join or product step: its output layout
/// (left ++ right) and, for a join, each input's key column.
struct JoinStep {
  LayoutPtr out_layout;
  bool is_join = false;  // false: cross product
  int left_key = -1;     // join key column in the left input's layout
  int right_key = -1;    // join key column in the right input's layout
};

/// Resolves the step of `plan` (a join or product node) over inputs laid
/// out `left` and `right`; fails on column-name or lineage overlap and on a
/// missing key column.
Result<JoinStep> ResolveJoinStep(const PlanNode& plan, const BatchLayout& left,
                                 const BatchLayout& right);

/// \brief One input of a join or product step, materialized once and shared
/// read-only by every source streaming the other input through it (each
/// morsel worker's, or the serial pipeline's one).
struct SharedSide {
  JoinStep step;
  bool probe_is_left = true;  // the streamed input is the step's left one
  ColumnarRelation mat;       // the shared input
  JoinHashTable table;        // join only: built over mat's key column
};

/// \brief Builds the shared side of `step` from its materialized input
/// `mat` (the step's right input when `probe_is_left`, else its left).
///
/// A join's hash table builds partition-parallel over `num_threads`
/// workers, byte-identical at every count.
Result<std::shared_ptr<const SharedSide>> BuildSharedSide(
    JoinStep step, ColumnarRelation mat, bool probe_is_left, int num_threads);

/// \brief The join or product of the streamed `probe` input with `side`,
/// in the step's left ++ right column order.
///
/// A join hashes each pulled view's keys, batch-probes the shared table and
/// rechecks key equality vectorized over the candidate pairs; its rows come
/// out probe rows ascending, candidates in build input order. A product
/// comes out probe-major, shared rows in input order.
std::unique_ptr<BatchSource> MakeProbeSource(
    std::unique_ptr<BatchSource> probe, std::shared_ptr<const SharedSide> side,
    int64_t batch_rows);

/// \brief Union of two branch pipelines.
///
/// Sampled mode: bag union keeping each lineage once (compared by exact
/// ids; first occurrence, left branch first — the Prop. 7 GUS union);
/// validates the branches with CheckUnionLayouts (rel/operators.h). Exact
/// mode: the left branch's rows with the right branch drained for its
/// error effects. The morsel engine
/// instantiates this per pivot slice: lineage determines the slice, so
/// slice-local dedup equals global dedup.
Result<std::unique_ptr<BatchSource>> MakeUnionSource(
    std::unique_ptr<BatchSource> left, std::unique_ptr<BatchSource> right,
    int64_t batch_rows, ExecMode mode);

/// \brief True when `plan`'s subtree, within the current streaming
/// fragment (stopping at pipeline breakers), contains a sampler that will
/// execute as a *streaming* Rng consumer.
///
/// A plain-Bernoulli sampler may fuse only when this is false for its
/// child: two streaming Rng consumers in one fragment would interleave
/// their draws batch-by-batch, diverging from the row engine's post-order
/// consumption. Breakers (joins, products, unions, fixed-size and block
/// samplers — and a Bernoulli that itself broke) drain everything below
/// them before emitting a row, so they reset the fragment.
bool FragmentHasStreamingRngSampler(const PlanPtr& plan, ExecMode mode);

/// Fully drains a source into a materialized columnar relation (one gather
/// per pulled view).
Result<ColumnarRelation> DrainSource(BatchSource* src);

/// \brief Runs `pipeline` to exhaustion, pushing batches into `sink`.
///
/// Views that already cover a whole producer-owned batch pass through
/// without a copy; everything else gathers once into an internal scratch.
Status PumpToSink(BatchSource* pipeline, BatchSink* sink);

/// Resets `out` to `layout` (or just clears it when already laid out).
void PrepareBatch(const LayoutPtr& layout, ColumnBatch* out);

/// \brief Compiles `plan` into a batch pipeline (static checks — unknown
/// relations, schema overlap, batch_rows < 1 — surface here).
Result<std::unique_ptr<BatchSource>> CompileBatchPipeline(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    int64_t batch_rows = kDefaultBatchRows);

/// Runs the pipeline to completion, materializing the result.
Result<ColumnarRelation> ExecutePlanColumnar(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng,
    ExecMode mode = ExecMode::kSampled, int64_t batch_rows = kDefaultBatchRows);

}  // namespace gus

#endif  // GUS_PLAN_COLUMNAR_EXECUTOR_H_
