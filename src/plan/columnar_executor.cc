#include "plan/columnar_executor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "kernels/join_hash_table.h"
#include "kernels/key_hash.h"
#include "kernels/sampling_kernels.h"
#include "plan/vector_eval.h"
#include "rel/operators.h"
#include "sampling/samplers.h"
#include "store/segment_cache.h"
#include "store/segment_store.h"
#include "util/logging.h"

namespace gus {

Result<bool> BatchSource::Next(ColumnBatch* out) {
  SelView view;
  GUS_ASSIGN_OR_RETURN(bool more, NextView(&view));
  if (!more) return false;
  PrepareBatch(layout_, out);
  if (view.num_rows() == 0) return true;
  if (view.contiguous()) {
    out->AppendRangeFrom(*view.data, view.begin, view.len);
  } else {
    out->GatherFrom(*view.data, view.sel, view.sel_len);
  }
  return true;
}

Result<bool> BatchSource::NextView(SelView* out) {
  GUS_ASSIGN_OR_RETURN(bool more, Next(&view_scratch_));
  if (!more) return false;
  *out = SelView::Whole(&view_scratch_);
  return true;
}

Result<const Relation*> ColumnarCatalog::Find(const std::string& name) const {
  auto it = snapshot_.find(name);
  if (it == snapshot_.end()) {
    return Status::KeyError("relation '" + name + "' not in catalog");
  }
  return &it->second;
}

Result<const ColumnarRelation*> ColumnarCatalog::Get(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const Relation* rel, Find(name));
  // The snapshot's copy holds the columns, so the pointer outlives the
  // returned shared_ptr.
  return rel->Columnar().get();
}

Result<uint64_t> ColumnarCatalog::Fingerprint(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const Relation* rel, Find(name));
  return rel->Fingerprint(name);
}

Result<int64_t> ColumnarCatalog::RowCountOf(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel, Get(name));
  return rel->num_rows();
}

Result<LayoutPtr> ColumnarCatalog::LayoutOf(const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel, Get(name));
  return rel->layout_ptr();
}

Status ScanInput::Seek(int64_t row, RowRun* run) const {
  if (row >= run->begin && row < run->end) return Status::OK();
  if (store_ == nullptr) {
    // Aliasing constructor with no owner: whoever resolved the input (the
    // catalog, or a breaker's drained relation) owns the batch.
    run->batch = std::shared_ptr<const ColumnBatch>(
        std::shared_ptr<const ColumnBatch>(), &rel_->data());
    run->begin = 0;
    run->end = num_rows_;
    return Status::OK();
  }
  const int64_t s = store_->SegmentOfRow(row);
  GUS_ASSIGN_OR_RETURN(run->batch, cache_->Fault(*store_, s));
  const SegmentInfo& info = store_->segment(s);
  run->begin = info.row_begin;
  run->end = info.row_begin + info.row_count;
  return Status::OK();
}

ScanInput ScanInput::Resident(const ColumnarRelation* rel) {
  ScanInput input;
  input.rel_ = rel;
  input.layout_ = rel->layout_ptr();
  input.num_rows_ = rel->num_rows();
  return input;
}

Result<ScanInput> ResolveScanInput(ColumnarCatalog* catalog,
                                   const std::string& name) {
  GUS_ASSIGN_OR_RETURN(const StoredRelation* store, catalog->Stored(name));
  if (store == nullptr) {
    GUS_ASSIGN_OR_RETURN(const ColumnarRelation* rel, catalog->Get(name));
    return ScanInput::Resident(rel);
  }
  ScanInput input;
  input.store_ = store;
  input.cache_ = catalog->segment_cache();
  input.layout_ = store->layout_ptr();
  input.num_rows_ = store->num_rows();
  return input;
}

void PrepareBatch(const LayoutPtr& layout, ColumnBatch* out) {
  if (out->layout_ptr() != layout) {
    out->ResetLayout(layout);
  } else {
    out->Clear();
  }
}

Result<ColumnarRelation> DrainSource(BatchSource* src) {
  ColumnarRelation out(src->layout());
  SelView view;
  bool sized = false;
  while (true) {
    GUS_ASSIGN_OR_RETURN(bool more, src->NextView(&view));
    if (!more) break;
    if (!sized) {
      // A source that knows its row count after one pull (a scan, a keep
      // slice) gets its columns sized once instead of grown by doubling.
      sized = true;
      const int64_t rest = src->remaining_rows();
      if (rest >= 0) out.mutable_data()->Reserve(view.num_rows() + rest);
    }
    if (view.num_rows() == 0) continue;
    if (view.contiguous()) {
      out.mutable_data()->AppendRangeFrom(*view.data, view.begin, view.len);
    } else {
      out.mutable_data()->GatherFrom(*view.data, view.sel, view.sel_len);
    }
  }
  return out;
}

Status PumpToSink(BatchSource* pipeline, BatchSink* sink) {
  SelView view;
  ColumnBatch scratch;
  const bool views = sink->wants_views();
  while (true) {
    GUS_ASSIGN_OR_RETURN(bool more, pipeline->NextView(&view));
    if (!more) break;
    if (view.num_rows() == 0) continue;
    if (view.whole_batch()) {
      GUS_RETURN_NOT_OK(sink->Consume(*view.data));
      continue;
    }
    if (views) {
      // Gather-free hand-off: the sink reads the borrowed columns through
      // the selection directly.
      GUS_RETURN_NOT_OK(sink->ConsumeView(view));
      continue;
    }
    PrepareBatch(pipeline->layout(), &scratch);
    if (view.contiguous()) {
      scratch.AppendRangeFrom(*view.data, view.begin, view.len);
    } else {
      scratch.GatherFrom(*view.data, view.sel, view.sel_len);
    }
    GUS_RETURN_NOT_OK(sink->Consume(scratch));
  }
  return Status::OK();
}

// ---- Sources ---------------------------------------------------------------

namespace {

/// Concatenated layout of two join/product inputs; fails on column-name or
/// lineage overlap.
Result<LayoutPtr> ConcatBatchLayouts(const BatchLayout& left,
                                     const BatchLayout& right) {
  for (const auto& name : left.lineage_schema) {
    for (const auto& other : right.lineage_schema) {
      if (name == other) {
        return Status::InvalidArgument(
            "join inputs must have disjoint lineage schemas (self-joins are "
            "not supported by the GUS algebra, paper Prop. 6)");
      }
    }
  }
  auto layout = std::make_shared<BatchLayout>();
  GUS_ASSIGN_OR_RETURN(layout->schema,
                       Schema::Concat(left.schema, right.schema));
  layout->lineage_schema = left.lineage_schema;
  layout->lineage_schema.insert(layout->lineage_schema.end(),
                                right.lineage_schema.begin(),
                                right.lineage_schema.end());
  return LayoutPtr(layout);
}

/// Zero-copy scan: range views straight over the input's row runs — no
/// per-batch slice copies. Views clip at run ends, which every downstream
/// consumer tolerates: the row stream, not its chunking, is what operators
/// and estimator folds see.
class ScanSliceSource final : public BatchSource {
 public:
  ScanSliceSource(ScanInput input, int64_t batch_rows, int64_t begin,
                  int64_t len)
      : BatchSource(input.layout()),
        input_(std::move(input)),
        batch_rows_(batch_rows),
        pos_(begin),
        end_(len < 0 ? input_.num_rows()
                     : std::min(begin + len, input_.num_rows())) {}

  Result<bool> NextView(SelView* out) override {
    if (pos_ >= end_) return false;
    GUS_RETURN_NOT_OK(input_.Seek(pos_, &run_));
    const int64_t len = std::min(batch_rows_, std::min(end_, run_.end) - pos_);
    *out = SelView::Range(run_.batch.get(), pos_ - run_.begin, len);
    pos_ += len;
    return true;
  }

  int64_t remaining_rows() const override { return end_ - pos_; }

 private:
  ScanInput input_;
  int64_t batch_rows_;
  int64_t pos_;
  int64_t end_;
  RowRun run_;
};

/// \brief The longest prefix of the sorted global row ids [ids, ids + n)
/// that one run holds, as a selection view over that run's batch (`run`
/// seeks to the run holding ids[0]). A run that begins at row 0 has local
/// indices equal to global ids, so the view borrows `ids`; any other run
/// rebases them into `scratch`.
Result<SelView> RunSelection(const ScanInput& input, const int64_t* ids,
                             int64_t n, RowRun* run,
                             std::vector<int64_t>* scratch) {
  GUS_RETURN_NOT_OK(input.Seek(ids[0], run));
  SelView v;
  v.data = run->batch.get();
  v.sel = ids;
  v.sel_len = std::lower_bound(ids, ids + n, run->end) - ids;
  if (run->begin != 0) {
    scratch->resize(static_cast<size_t>(v.sel_len));
    for (int64_t i = 0; i < v.sel_len; ++i) {
      (*scratch)[i] = ids[i] - run->begin;
    }
    v.sel = scratch->data();
  }
  return v;
}

/// \brief A fixed-size sampler's leaf: the rows named by keep[offset,
/// offset + len) (global row ids, ascending) as selection views, one run
/// at a time. The keep-set is shared; a morsel walks its own sub-range, the
/// serial pipeline all of it.
class KeepSliceSource final : public BatchSource {
 public:
  KeepSliceSource(ScanInput input,
                  std::shared_ptr<const std::vector<int64_t>> keep,
                  int64_t offset, int64_t len, int64_t batch_rows)
      : BatchSource(input.layout()),
        input_(std::move(input)),
        keep_(std::move(keep)),
        pos_(offset),
        end_(offset + len),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
    if (pos_ >= end_) return false;
    GUS_ASSIGN_OR_RETURN(
        *out, RunSelection(input_, keep_->data() + pos_,
                           std::min(batch_rows_, end_ - pos_), &run_, &sel_));
    pos_ += out->sel_len;
    return true;
  }

  int64_t remaining_rows() const override { return end_ - pos_; }

 private:
  ScanInput input_;
  std::shared_ptr<const std::vector<int64_t>> keep_;
  int64_t pos_;
  int64_t end_;
  int64_t batch_rows_;
  RowRun run_;
  std::vector<int64_t> sel_;  // run-local indices when the run is rebased
};

/// Sampled-mode block sampling over scan rows [begin, end): per-block keep
/// decisions are pure functions of (seed, block id), kept rows gather with
/// their lineage re-keyed to the block id — bit-identical to
/// DecideSampling's block keep-set over the whole scan, whatever the run
/// geometry (a kept block may straddle runs) or the row range.
class BlockSampleSource final : public BatchSource {
 public:
  BlockSampleSource(ScanInput input, int64_t begin, int64_t end,
                    uint64_t seed, double p, int64_t block_size,
                    int64_t batch_rows)
      : BatchSource(input.layout()),
        input_(std::move(input)),
        pos_(begin),
        end_(end),
        seed_(seed),
        p_(p),
        block_size_(block_size),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
    if (pos_ >= end_) return false;
    sel_.clear();
    const int64_t stop = std::min(end_, pos_ + batch_rows_);
    while (pos_ < stop) {
      const int64_t block = pos_ / block_size_;
      const int64_t block_end = std::min(stop, (block + 1) * block_size_);
      if (DecoupledBlockKeep(seed_, static_cast<uint64_t>(block), p_)) {
        for (int64_t r = pos_; r < block_end; ++r) sel_.push_back(r);
      }
      pos_ = block_end;
    }
    // The lineage re-key mutates rows, so this path gathers into an owned
    // batch (same discipline as the breaker's re-key path), one run at a
    // time; GatherFrom appends, so runs concatenate in row order.
    PrepareBatch(layout_, &scratch_);
    const int64_t n = static_cast<int64_t>(sel_.size());
    for (int64_t k = 0; k < n;) {
      GUS_ASSIGN_OR_RETURN(const SelView run_rows,
                           RunSelection(input_, sel_.data() + k, n - k, &run_,
                                        &local_sel_));
      scratch_.GatherFrom(*run_rows.data, run_rows.sel, run_rows.sel_len);
      k += run_rows.sel_len;
    }
    auto& lineage = *scratch_.mutable_lineage();
    for (size_t k = 0; k < sel_.size(); ++k) {
      lineage[k] = static_cast<uint64_t>(sel_[k] / block_size_);
    }
    *out = SelView::Whole(&scratch_);
    return true;
  }

 private:
  ScanInput input_;
  int64_t pos_;
  int64_t end_;
  uint64_t seed_;
  double p_;
  int64_t block_size_;
  int64_t batch_rows_;
  RowRun run_;
  std::vector<int64_t> sel_;        // kept global row ids this pull
  std::vector<int64_t> local_sel_;  // run-local indices when rebased
  ColumnBatch scratch_;
};

/// \brief The serial pipeline's WOR, WR-distinct or block sampler over a
/// base scan: it draws on the scan input and never drains it.
///
/// The first pull draws the sampler seed (DrawSamplerSeed) from the input's
/// row count alone — the Rng position where a breaker over the scan would
/// draw, since no scan row consumes the Rng — and picks the leaf the morsel
/// engine uses for the same sampler, over the whole scan: the keep-set's
/// rows as selection views over the scan's runs, or the kept blocks
/// re-keyed.
class ScanSamplerSource final : public BatchSource {
 public:
  ScanSamplerSource(ScanInput input, SamplingSpec spec, Rng* rng,
                    int64_t batch_rows)
      : BatchSource(input.layout()),
        input_(std::move(input)),
        spec_(std::move(spec)),
        rng_(rng),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
    if (leaf_ == nullptr) GUS_RETURN_NOT_OK(Draw());
    return leaf_->NextView(out);
  }

  int64_t remaining_rows() const override {
    return leaf_ == nullptr ? -1 : leaf_->remaining_rows();
  }

 private:
  Status Draw() {
    const int64_t rows = input_.num_rows();
    GUS_ASSIGN_OR_RETURN(
        const uint64_t seed,
        DrawSamplerSeed(spec_, rows, layout_->lineage_arity(), rng_));
    if (spec_.method == SamplingMethod::kBlockBernoulli) {
      leaf_ = MakeBlockSampleSource(std::move(input_), 0, rows, seed, spec_.p,
                                    spec_.block_size, batch_rows_);
      return Status::OK();
    }
    GUS_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                         FixedSizeKeepIndices(spec_, rows, seed));
    const auto kept = static_cast<int64_t>(keep.size());
    leaf_ = MakeKeepSliceSource(
        std::move(input_),
        std::make_shared<const std::vector<int64_t>>(std::move(keep)), 0,
        kept, batch_rows_);
    return Status::OK();
  }

  ScanInput input_;
  SamplingSpec spec_;
  Rng* rng_;
  int64_t batch_rows_;
  std::unique_ptr<BatchSource> leaf_;
};

/// Fused select: composes the child view's selection with the predicate's
/// truthy rows; only the predicate's column footprint is gathered.
class SelectSource final : public BatchSource {
 public:
  SelectSource(std::unique_ptr<BatchSource> child, ExprPtr bound)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        bound_(std::move(bound)) {
    ExprColumnFootprint(bound_, layout_->schema.num_columns(), &footprint_);
  }

  Result<bool> NextView(SelView* out) override {
    SelView in;
    GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&in));
    if (!more) return false;
    GUS_RETURN_NOT_OK(EvalPredicateView(bound_, in, footprint_,
                                        &eval_scratch_, &range_scratch_,
                                        &sel_));
    *out = SelView::Selection(in.data, sel_);
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  ExprPtr bound_;
  std::vector<char> footprint_;
  ColumnBatch eval_scratch_;
  std::vector<int64_t> range_scratch_;
  std::vector<int64_t> sel_;
};

/// \brief Fused Bernoulli sampler: advances the resumable geometric-skip
/// kernel over the child's logical row stream and composes the kept rows
/// into the selection — no materialization, ~p rows' worth of Rng draws.
///
/// Only instantiated when no other streaming Rng consumer shares the
/// fragment (see FragmentHasStreamingRngSampler), so the draw order —
/// hence the keep-set — is bit-identical to the one-shot
/// BernoulliKeepIndices the row engine and breaker paths use.
class FusedBernoulliSource final : public BatchSource {
 public:
  FusedBernoulliSource(std::unique_ptr<BatchSource> child, double p, Rng* rng)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        state_(p),
        rng_(rng) {}

  Result<bool> NextView(SelView* out) override {
    SelView in;
    GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&in));
    if (!more) return false;
    local_.clear();
    state_.NextSpan(in.num_rows(), rng_, &local_);
    sel_.clear();
    sel_.reserve(local_.size());
    if (in.contiguous()) {
      for (const int64_t off : local_) sel_.push_back(in.begin + off);
    } else {
      for (const int64_t off : local_) sel_.push_back(in.sel[off]);
    }
    *out = SelView::Selection(in.data, sel_);
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  SkipBernoulliState state_;
  Rng* rng_;
  std::vector<int64_t> local_;
  std::vector<int64_t> sel_;
};

/// Fused Section-7 sub-sampler: lineage-hash filter composed into the
/// selection in one tight loop (no Rng, no Value boxing).
class FusedLineageBernoulliSource final : public BatchSource {
 public:
  FusedLineageBernoulliSource(std::unique_ptr<BatchSource> child, double p,
                              uint64_t seed, int dim)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        p_(p),
        seed_(seed),
        dim_(dim) {}

  Result<bool> NextView(SelView* out) override {
    SelView in;
    GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&in));
    if (!more) return false;
    sel_.clear();
    const int arity = layout_->lineage_arity();
    const uint64_t* lineage = in.data->lineage().data();
    if (in.contiguous()) {
      LineageBernoulliDense(p_, seed_, lineage, arity, dim_, in.begin, in.len,
                            &sel_);
    } else {
      LineageBernoulliGather(p_, seed_, lineage, arity, dim_, in.sel,
                             in.sel_len, &sel_);
    }
    *out = SelView::Selection(in.data, sel_);
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  double p_;
  uint64_t seed_;
  int dim_;
  std::vector<int64_t> sel_;
};

/// Exact-mode block sampling: streaming lineage re-key to block ids.
/// `base` is the global row index of the child's first row (non-zero when
/// the child is a morsel slice of the scan).
class BlockRekeySource final : public BatchSource {
 public:
  BlockRekeySource(std::unique_ptr<BatchSource> child, int64_t block_size,
                   int64_t base = 0)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        block_size_(block_size),
        base_(base) {}

  Result<bool> Next(ColumnBatch* out) override {
    GUS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    auto& lineage = *out->mutable_lineage();
    for (int64_t i = 0; i < out->num_rows(); ++i) {
      lineage[i] = static_cast<uint64_t>((base_ + i) / block_size_);
    }
    base_ += out->num_rows();
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  int64_t block_size_;
  int64_t base_ = 0;
};

/// Sampled-mode sampler: pipeline breaker routed through the shared
/// index-selection core, so the Rng sequence matches the row engine's.
class SampleBreakerSource final : public BatchSource {
 public:
  SampleBreakerSource(std::unique_ptr<BatchSource> child, SamplingSpec spec,
                      Rng* rng, int64_t batch_rows)
      : BatchSource(child->layout()),
        child_(std::move(child)),
        spec_(std::move(spec)),
        rng_(rng),
        batch_rows_(batch_rows) {}

  Result<bool> NextView(SelView* out) override {
    if (!drained_) {
      GUS_ASSIGN_OR_RETURN(mat_, DrainSource(child_.get()));
      const ColumnBatch& data = mat_.data();
      GUS_ASSIGN_OR_RETURN(
          SamplingDecision d,
          DecideSampling(spec_, mat_.num_rows(), mat_.lineage_schema(),
                         [&data](int64_t r, int dim) {
                           return data.lineage_at(r, dim);
                         },
                         rng_));
      keep_ = std::move(d.keep);
      rekey_ = d.rekey_block_lineage;
      drained_ = true;
    }
    if (pos_ >= static_cast<int64_t>(keep_.size())) return false;
    const int64_t len =
        std::min(batch_rows_, static_cast<int64_t>(keep_.size()) - pos_);
    const int64_t* sel = keep_.data() + pos_;
    if (rekey_) {
      // Block lineage re-key (id = pre-filter row index / block size)
      // mutates rows, so this path gathers into an owned batch.
      PrepareBatch(layout_, &rekey_scratch_);
      rekey_scratch_.GatherFrom(mat_.data(), sel, len);
      auto& lineage = *rekey_scratch_.mutable_lineage();
      for (int64_t k = 0; k < len; ++k) {
        lineage[k] = static_cast<uint64_t>(sel[k] / spec_.block_size);
      }
      *out = SelView::Whole(&rekey_scratch_);
    } else {
      SelView v;
      v.data = &mat_.data();
      v.sel = sel;
      v.sel_len = len;
      *out = v;
    }
    pos_ += len;
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  SamplingSpec spec_;
  Rng* rng_;
  int64_t batch_rows_;
  bool drained_ = false;
  ColumnarRelation mat_;
  std::vector<int64_t> keep_;
  bool rekey_ = false;
  ColumnBatch rekey_scratch_;
  int64_t pos_ = 0;
};

/// The join of a streamed probe input with a SharedSide: per pulled view,
/// hash the probe rows, batch-probe with prefetching, recheck key equality
/// vectorized over the candidate pairs, then emit — probe rows ascending,
/// candidates in build input order, in the step's left ++ right column
/// order.
class JoinProbeSource final : public BatchSource {
 public:
  JoinProbeSource(std::unique_ptr<BatchSource> child,
                  std::shared_ptr<const SharedSide> side, int64_t batch_rows)
      : BatchSource(side->step.out_layout),
        child_(std::move(child)),
        side_(std::move(side)),
        probe_key_(side_->probe_is_left ? side_->step.left_key
                                        : side_->step.right_key),
        build_key_(side_->probe_is_left ? side_->step.right_key
                                        : side_->step.left_key),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    PrepareBatch(layout_, out);
    const ColumnBatch& build_data = side_->mat.data();
    const ColumnData& build_key = build_data.column(build_key_);
    while (out->num_rows() < batch_rows_) {
      if (emit_pos_ >= static_cast<int64_t>(pair_probe_.size())) {
        if (done_) break;
        // Fused pull: the probe rows arrive as a selection view over the
        // child's storage — no gather of the probe chain's output. The
        // pair buffer never outlives the view (refilled only when empty).
        GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&probe_));
        if (!more) {
          done_ = true;
          break;
        }
        const ColumnData& key = probe_.data->column(probe_key_);
        if (key.type == ValueType::kString && key.dict != probe_dict_) {
          probe_dict_ = key.dict;
          probe_dict_hashes_ = DictKeyHashes(key);
        }
        const int64_t n = probe_.num_rows();
        hash_scratch_.resize(static_cast<size_t>(n));
        if (probe_.contiguous()) {
          KeyHashRange(key, probe_dict_hashes_, probe_.begin, n,
                       hash_scratch_.data());
        } else {
          KeyHashRows(key, probe_dict_hashes_, probe_.sel, n,
                      hash_scratch_.data());
        }
        pair_probe_.clear();
        pair_build_.clear();
        side_->table.ProbeBatch(hash_scratch_.data(), n, &pair_probe_,
                                &pair_build_);
        for (int64_t& pr : pair_probe_) pr = probe_.row(pr);
        FilterEqualKeyPairs(key, build_key, &pair_probe_, &pair_build_);
        emit_pos_ = 0;
        continue;
      }
      // Batch emit over the surviving pair lists (front-to-back, so the
      // classic per-row order is preserved).
      const int64_t pairs = static_cast<int64_t>(pair_probe_.size());
      const int64_t take =
          std::min(batch_rows_ - out->num_rows(), pairs - emit_pos_);
      const int64_t* probe_idx = pair_probe_.data() + emit_pos_;
      const int64_t* build_idx = pair_build_.data() + emit_pos_;
      if (side_->probe_is_left) {
        out->AppendConcatGather(*probe_.data, probe_idx, build_data,
                                build_idx, take);
      } else {
        out->AppendConcatGather(build_data, build_idx, *probe_.data,
                                probe_idx, take);
      }
      emit_pos_ += take;
    }
    if (done_ && out->num_rows() == 0 &&
        emit_pos_ >= static_cast<int64_t>(pair_probe_.size())) {
      return false;
    }
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  std::shared_ptr<const SharedSide> side_;
  int probe_key_;
  int build_key_;
  int64_t batch_rows_;
  SelView probe_;
  DictPtr probe_dict_;
  std::vector<uint64_t> probe_dict_hashes_;
  std::vector<uint64_t> hash_scratch_;
  std::vector<int64_t> pair_probe_, pair_build_;
  int64_t emit_pos_ = 0;
  bool done_ = false;
};

/// Cross product of a streamed input with a SharedSide, streamed-row-major.
class ProductProbeSource final : public BatchSource {
 public:
  ProductProbeSource(std::unique_ptr<BatchSource> child,
                     std::shared_ptr<const SharedSide> side,
                     int64_t batch_rows)
      : BatchSource(side->step.out_layout),
        child_(std::move(child)),
        side_(std::move(side)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (done_) return false;
    PrepareBatch(layout_, out);
    const ColumnBatch& other = side_->mat.data();
    const int64_t n_other = other.num_rows();
    while (out->num_rows() < batch_rows_) {
      if (i_ >= probe_.num_rows()) {
        GUS_ASSIGN_OR_RETURN(bool more, child_->NextView(&probe_));
        if (!more) {
          done_ = true;
          break;
        }
        i_ = 0;
        j_ = 0;
        continue;
      }
      if (n_other == 0) {
        i_ = probe_.num_rows();
        continue;
      }
      // Stage this chunk's (probe, other) index pairs, then emit them in
      // one batched gather per column.
      probe_scratch_.clear();
      other_scratch_.clear();
      const int64_t budget = batch_rows_ - out->num_rows();
      while (static_cast<int64_t>(probe_scratch_.size()) < budget &&
             i_ < probe_.num_rows()) {
        probe_scratch_.push_back(probe_.row(i_));
        other_scratch_.push_back(j_);
        if (++j_ >= n_other) {
          j_ = 0;
          ++i_;
        }
      }
      const auto take = static_cast<int64_t>(probe_scratch_.size());
      if (side_->probe_is_left) {
        out->AppendConcatGather(*probe_.data, probe_scratch_.data(), other,
                                other_scratch_.data(), take);
      } else {
        out->AppendConcatGather(other, other_scratch_.data(), *probe_.data,
                                probe_scratch_.data(), take);
      }
    }
    if (done_ && out->num_rows() == 0) return false;
    return true;
  }

 private:
  std::unique_ptr<BatchSource> child_;
  std::shared_ptr<const SharedSide> side_;
  int64_t batch_rows_;
  SelView probe_;
  int64_t i_ = 0, j_ = 0;
  std::vector<int64_t> probe_scratch_, other_scratch_;
  bool done_ = false;
};

/// \brief Serial join or product: a breaker on both inputs (left drains
/// first, preserving the row engine's post-order Rng consumption), then
/// the probe operator streaming range views of the drained probe input.
///
/// A join shares its smaller input — the row engine's build rule, bit for
/// bit — and a product its right one, so both emit in the row engine's
/// order.
class JoinBreakerSource final : public BatchSource {
 public:
  JoinBreakerSource(JoinStep step, std::unique_ptr<BatchSource> left,
                    std::unique_ptr<BatchSource> right, int64_t batch_rows)
      : BatchSource(step.out_layout),
        step_(std::move(step)),
        left_(std::move(left)),
        right_(std::move(right)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (probe_ == nullptr) GUS_RETURN_NOT_OK(DrainAndBuild());
    return probe_->Next(out);
  }

  Result<bool> NextView(SelView* out) override {
    if (probe_ == nullptr) GUS_RETURN_NOT_OK(DrainAndBuild());
    return probe_->NextView(out);
  }

 private:
  Status DrainAndBuild() {
    GUS_ASSIGN_OR_RETURN(ColumnarRelation left, DrainSource(left_.get()));
    GUS_ASSIGN_OR_RETURN(ColumnarRelation right, DrainSource(right_.get()));
    const bool probe_is_left =
        !step_.is_join || left.num_rows() > right.num_rows();
    streamed_ = std::move(probe_is_left ? left : right);
    GUS_ASSIGN_OR_RETURN(
        std::shared_ptr<const SharedSide> side,
        BuildSharedSide(step_, std::move(probe_is_left ? right : left),
                        probe_is_left, /*num_threads=*/1));
    probe_ = MakeProbeSource(
        MakeScanSliceSource(ScanInput::Resident(&streamed_), batch_rows_),
        std::move(side), batch_rows_);
    return Status::OK();
  }

  JoinStep step_;
  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  int64_t batch_rows_;
  ColumnarRelation streamed_;  // outlives probe_, which views it
  std::unique_ptr<BatchSource> probe_;
};

/// Exact-mode union: the exact evaluation of both branches yields the same
/// set, so only the left branch's rows flow downstream — but the right
/// branch still *runs* (rows discarded) once the left is exhausted, so its
/// runtime errors surface exactly as they do in the row engine, which
/// executes both branches.
class ExactUnionSource final : public BatchSource {
 public:
  ExactUnionSource(std::unique_ptr<BatchSource> left,
                   std::unique_ptr<BatchSource> right)
      : BatchSource(left->layout()),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (!left_done_) {
      GUS_ASSIGN_OR_RETURN(bool more, left_->Next(out));
      if (more) return true;
      left_done_ = true;
    }
    while (!right_done_) {
      GUS_ASSIGN_OR_RETURN(bool more, right_->Next(&discard_));
      if (!more) right_done_ = true;
    }
    return false;
  }

 private:
  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  ColumnBatch discard_;
  bool left_done_ = false;
  bool right_done_ = false;
};

/// Bag union keeping each lineage once (first occurrence, left first) —
/// the sampled-mode GUS union of Prop. 7.
class UnionSource final : public BatchSource {
 public:
  UnionSource(std::unique_ptr<BatchSource> left,
              std::unique_ptr<BatchSource> right, int64_t batch_rows)
      : BatchSource(left->layout()),
        left_(std::move(left)),
        right_(std::move(right)),
        batch_rows_(batch_rows) {}

  Result<bool> Next(ColumnBatch* out) override {
    if (!drained_) GUS_RETURN_NOT_OK(DrainAndDedup());
    const int64_t total_a = static_cast<int64_t>(sel_a_.size());
    const int64_t total_b = static_cast<int64_t>(sel_b_.size());
    if (pos_ >= total_a + total_b) return false;
    PrepareBatch(layout_, out);
    while (out->num_rows() < batch_rows_ && pos_ < total_a + total_b) {
      const int64_t want = batch_rows_ - out->num_rows();
      if (pos_ < total_a) {
        const int64_t len = std::min(want, total_a - pos_);
        out->GatherFrom(a_mat_.data(), sel_a_.data() + pos_, len);
        pos_ += len;
      } else {
        const int64_t off = pos_ - total_a;
        const int64_t len = std::min(want, total_b - off);
        out->GatherFrom(b_mat_.data(), sel_b_.data() + off, len);
        pos_ += len;
      }
    }
    return true;
  }

 private:
  Status DrainAndDedup() {
    GUS_ASSIGN_OR_RETURN(a_mat_, DrainSource(left_.get()));
    GUS_ASSIGN_OR_RETURN(b_mat_, DrainSource(right_.get()));
    const int arity = layout_->lineage_arity();
    LineageRowSet seen(arity, a_mat_.num_rows() + b_mat_.num_rows());
    auto add_all = [&](const ColumnarRelation& mat,
                       std::vector<int64_t>* sel) {
      const uint64_t* lineage = mat.data().lineage().data();
      for (int64_t i = 0; i < mat.num_rows(); ++i) {
        if (seen.Insert(lineage + i * arity)) sel->push_back(i);
      }
    };
    add_all(a_mat_, &sel_a_);
    add_all(b_mat_, &sel_b_);
    drained_ = true;
    return Status::OK();
  }

  std::unique_ptr<BatchSource> left_;
  std::unique_ptr<BatchSource> right_;
  int64_t batch_rows_;
  bool drained_ = false;
  ColumnarRelation a_mat_, b_mat_;
  std::vector<int64_t> sel_a_, sel_b_;
  int64_t pos_ = 0;
};

}  // namespace

Result<JoinStep> ResolveJoinStep(const PlanNode& plan, const BatchLayout& left,
                                 const BatchLayout& right) {
  JoinStep step;
  GUS_ASSIGN_OR_RETURN(step.out_layout, ConcatBatchLayouts(left, right));
  step.is_join = plan.op() == PlanOp::kJoin;
  if (step.is_join) {
    GUS_ASSIGN_OR_RETURN(step.left_key, left.schema.IndexOf(plan.left_key()));
    GUS_ASSIGN_OR_RETURN(step.right_key,
                         right.schema.IndexOf(plan.right_key()));
  }
  return step;
}

Result<std::shared_ptr<const SharedSide>> BuildSharedSide(
    JoinStep step, ColumnarRelation mat, bool probe_is_left,
    int num_threads) {
  auto side = std::make_shared<SharedSide>();
  side->step = std::move(step);
  side->probe_is_left = probe_is_left;
  side->mat = std::move(mat);
  if (side->step.is_join) {
    const int key =
        probe_is_left ? side->step.right_key : side->step.left_key;
    GUS_RETURN_NOT_OK(side->table.BuildFrom(side->mat.data().column(key),
                                            side->mat.num_rows(),
                                            num_threads));
  }
  return std::shared_ptr<const SharedSide>(std::move(side));
}

std::unique_ptr<BatchSource> MakeProbeSource(
    std::unique_ptr<BatchSource> probe, std::shared_ptr<const SharedSide> side,
    int64_t batch_rows) {
  if (side->step.is_join) {
    return std::unique_ptr<BatchSource>(
        new JoinProbeSource(std::move(probe), std::move(side), batch_rows));
  }
  return std::unique_ptr<BatchSource>(
      new ProductProbeSource(std::move(probe), std::move(side), batch_rows));
}

std::unique_ptr<BatchSource> MakeScanSliceSource(ScanInput input,
                                                 int64_t batch_rows,
                                                 int64_t begin, int64_t len) {
  return std::unique_ptr<BatchSource>(
      new ScanSliceSource(std::move(input), batch_rows, begin, len));
}

std::unique_ptr<BatchSource> MakeKeepSliceSource(
    ScanInput input, std::shared_ptr<const std::vector<int64_t>> keep,
    int64_t offset, int64_t len, int64_t batch_rows) {
  return std::unique_ptr<BatchSource>(new KeepSliceSource(
      std::move(input), std::move(keep), offset, len, batch_rows));
}

std::unique_ptr<BatchSource> MakeBlockSampleSource(
    ScanInput input, int64_t begin, int64_t end, uint64_t seed, double p,
    int64_t block_size, int64_t batch_rows) {
  return std::unique_ptr<BatchSource>(new BlockSampleSource(
      std::move(input), begin, end, seed, p, block_size, batch_rows));
}

std::unique_ptr<BatchSource> MakeBlockRekeySource(
    std::unique_ptr<BatchSource> child, int64_t block_size, int64_t base_row) {
  return std::unique_ptr<BatchSource>(
      new BlockRekeySource(std::move(child), block_size, base_row));
}

Result<std::unique_ptr<BatchSource>> MakeUnionSource(
    std::unique_ptr<BatchSource> left, std::unique_ptr<BatchSource> right,
    int64_t batch_rows, ExecMode mode) {
  if (mode == ExecMode::kExact) {
    return std::unique_ptr<BatchSource>(
        new ExactUnionSource(std::move(left), std::move(right)));
  }
  GUS_RETURN_NOT_OK(CheckUnionLayouts(*left->layout(), *right->layout()));
  return std::unique_ptr<BatchSource>(
      new UnionSource(std::move(left), std::move(right), batch_rows));
}

Result<std::unique_ptr<BatchSource>> MakeSelectSource(
    std::unique_ptr<BatchSource> child, const ExprPtr& predicate) {
  GUS_ASSIGN_OR_RETURN(ExprPtr bound,
                       predicate->Bind(child->layout()->schema));
  return std::unique_ptr<BatchSource>(
      new SelectSource(std::move(child), std::move(bound)));
}

Result<std::unique_ptr<BatchSource>> MakeSampleSource(
    std::unique_ptr<BatchSource> child, const SamplingSpec& spec, Rng* rng,
    int64_t batch_rows, bool stream_ok) {
  GUS_RETURN_NOT_OK(spec.Validate());
  switch (spec.method) {
    case SamplingMethod::kLineageBernoulli: {
      // Pure function of (seed, lineage id): always fuses.
      const auto& ls = child->layout()->lineage_schema;
      const auto it = std::find(ls.begin(), ls.end(), spec.lineage_relation);
      if (it == ls.end()) {
        return Status::KeyError("relation '" + spec.lineage_relation +
                                "' not in the input's lineage schema");
      }
      const int dim = static_cast<int>(it - ls.begin());
      return std::unique_ptr<BatchSource>(new FusedLineageBernoulliSource(
          std::move(child), spec.p, spec.seed, dim));
    }
    case SamplingMethod::kBernoulli:
      if (stream_ok) {
        return std::unique_ptr<BatchSource>(
            new FusedBernoulliSource(std::move(child), spec.p, rng));
      }
      break;
    default:
      break;
  }
  return std::unique_ptr<BatchSource>(
      new SampleBreakerSource(std::move(child), spec, rng, batch_rows));
}

bool FragmentHasStreamingRngSampler(const PlanPtr& plan, ExecMode mode) {
  if (mode == ExecMode::kExact) return false;  // samplers are no-ops
  switch (plan->op()) {
    case PlanOp::kScan:
      return false;
    case PlanOp::kSelect:
      return FragmentHasStreamingRngSampler(plan->child(), mode);
    case PlanOp::kSample:
      switch (plan->spec().method) {
        case SamplingMethod::kLineageBernoulli:
          // Streams but consumes no Rng: transparent to the fragment.
          return FragmentHasStreamingRngSampler(plan->child(), mode);
        case SamplingMethod::kBernoulli:
          // Streams iff nothing below already does; otherwise it runs as
          // a breaker, which resets the fragment above it.
          return !FragmentHasStreamingRngSampler(plan->child(), mode);
        default:
          return false;  // fixed-size / block samplers are breakers
      }
    case PlanOp::kJoin:
    case PlanOp::kProduct:
    case PlanOp::kUnion:
      // Breakers drain their subtrees (all draws done) before emitting.
      return false;
  }
  return false;
}

Result<std::unique_ptr<BatchSource>> CompileBatchPipeline(
    const PlanPtr& plan, ColumnarCatalog* catalog, Rng* rng, ExecMode mode,
    int64_t batch_rows) {
  if (batch_rows < 1) {
    return Status::InvalidArgument("batch_rows must be >= 1");
  }
  switch (plan->op()) {
    case PlanOp::kScan: {
      // A segment-backed relation streams one pinned segment at a time.
      GUS_ASSIGN_OR_RETURN(ScanInput input,
                           ResolveScanInput(catalog, plan->relation()));
      return MakeScanSliceSource(std::move(input), batch_rows);
    }
    case PlanOp::kSample: {
      const SamplingMethod method = plan->spec().method;
      if (mode == ExecMode::kSampled &&
          plan->child()->op() == PlanOp::kScan &&
          method != SamplingMethod::kBernoulli &&
          method != SamplingMethod::kLineageBernoulli) {
        // Fixed-size and block samplers over a base scan draw on the scan
        // input itself (ScanSamplerSource): nothing is drained.
        GUS_ASSIGN_OR_RETURN(
            ScanInput input,
            ResolveScanInput(catalog, plan->child()->relation()));
        GUS_RETURN_NOT_OK(plan->spec().Validate());
        return std::unique_ptr<BatchSource>(new ScanSamplerSource(
            std::move(input), plan->spec(), rng, batch_rows));
      }
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> child,
          CompileBatchPipeline(plan->child(), catalog, rng, mode, batch_rows));
      if (mode == ExecMode::kExact) {
        // Sampling is a no-op in exact mode, but block sampling still
        // re-keys lineage so both modes agree on lineage granularity.
        if (plan->spec().method == SamplingMethod::kBlockBernoulli) {
          if (plan->spec().block_size <= 0) {
            return Status::InvalidArgument("block_size must be positive");
          }
          if (child->layout()->lineage_arity() != 1) {
            return Status::InvalidArgument(
                "block lineage applies to base (single-lineage) relations");
          }
          return std::unique_ptr<BatchSource>(
              new BlockRekeySource(std::move(child), plan->spec().block_size));
        }
        return child;
      }
      const bool stream_ok =
          !FragmentHasStreamingRngSampler(plan->child(), mode);
      return MakeSampleSource(std::move(child), plan->spec(), rng,
                              batch_rows, stream_ok);
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> child,
          CompileBatchPipeline(plan->child(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(ExprPtr bound,
                           plan->predicate()->Bind(child->layout()->schema));
      return std::unique_ptr<BatchSource>(
          new SelectSource(std::move(child), std::move(bound)));
    }
    case PlanOp::kJoin:
    case PlanOp::kProduct: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> left,
          CompileBatchPipeline(plan->left(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> right,
          CompileBatchPipeline(plan->right(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          JoinStep step,
          ResolveJoinStep(*plan, *left->layout(), *right->layout()));
      return std::unique_ptr<BatchSource>(new JoinBreakerSource(
          std::move(step), std::move(left), std::move(right), batch_rows));
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> left,
          CompileBatchPipeline(plan->left(), catalog, rng, mode, batch_rows));
      GUS_ASSIGN_OR_RETURN(
          std::unique_ptr<BatchSource> right,
          CompileBatchPipeline(plan->right(), catalog, rng, mode, batch_rows));
      // Exact mode: no sampler below consumes the Rng, so only the left
      // branch's rows are needed; the right branch runs for its error
      // effects (see ExactUnionSource).
      return MakeUnionSource(std::move(left), std::move(right), batch_rows,
                             mode);
    }
  }
  return Status::Internal("unknown plan op");
}

Result<ColumnarRelation> ExecutePlanColumnar(const PlanPtr& plan,
                                             ColumnarCatalog* catalog,
                                             Rng* rng, ExecMode mode,
                                             int64_t batch_rows) {
  GUS_ASSIGN_OR_RETURN(
      std::unique_ptr<BatchSource> pipeline,
      CompileBatchPipeline(plan, catalog, rng, mode, batch_rows));
  return DrainSource(pipeline.get());
}

}  // namespace gus
