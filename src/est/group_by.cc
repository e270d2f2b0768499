#include "est/group_by.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_map>

#include "est/variance_tail.h"
#include "est/wire.h"
#include "est/ys.h"
#include "kernels/key_hash.h"
#include "kernels/simd/simd_dispatch.h"
#include "plan/vector_eval.h"

namespace gus {

namespace {

/// Canonical order over group keys: a total order, so equal logical state
/// always produces equal bytes and output. Numerics sort before strings
/// (by promoted value, then type tag for int64-vs-float64 ties beyond
/// 2^53); strings sort lexicographically; the key hash is a final
/// tiebreak. Distinct-by-KeyEquals keys never compare equal here.
bool CanonicalKeyLess(const Value& a, const Value& b) {
  const bool an = a.is_numeric(), bn = b.is_numeric();
  if (an != bn) return an;
  if (an) {
    const double da = a.ToDouble(), db = b.ToDouble();
    if (da != db) return da < db;
    const int ta = static_cast<int>(a.type()), tb = static_cast<int>(b.type());
    if (ta != tb) return ta < tb;
  } else {
    if (a.AsString() != b.AsString()) return a.AsString() < b.AsString();
  }
  return a.Hash() < b.Hash();
}

Status KeyCollision(const Value& a, const Value& b) {
  return Status::Internal("group-by key hash collision between '" +
                          a.ToString() + "' and '" + b.ToString() + "'");
}

/// The index of `key`'s group (hash h), numbering a new key after the
/// existing ones. Refuses to silently fuse distinct keys on a 64-bit hash
/// collision.
Status FindOrAddGroup(uint64_t h, const Value& key,
                      std::unordered_map<uint64_t, uint32_t>* index,
                      std::vector<Value>* keys, uint32_t* group) {
  const auto [it, inserted] =
      index->try_emplace(h, static_cast<uint32_t>(keys->size()));
  if (inserted) {
    keys->push_back(key);
  } else if (!(*keys)[it->second].KeyEquals(key)) {
    return KeyCollision((*keys)[it->second], key);
  }
  *group = it->second;
  return Status::OK();
}

/// Every row index of `group_of`, group after group, each group's in row
/// order (a stable counting sort); group g's rows end at ends[g].
void RowsByGroup(const std::vector<uint32_t>& group_of, size_t num_groups,
                 std::vector<int64_t>* order, std::vector<int64_t>* ends) {
  ends->assign(num_groups, 0);
  for (uint32_t g : group_of) ++(*ends)[g];
  std::exclusive_scan(ends->begin(), ends->end(), ends->begin(), int64_t{0});
  order->resize(group_of.size());
  for (size_t i = 0; i < group_of.size(); ++i) {
    (*order)[(*ends)[group_of[i]]++] = static_cast<int64_t>(i);
  }
}

/// Every group's Theorem-1 estimate, each group's y_S read as one slice of
/// `rows`: row i belongs to group group_of[i], whose key is
/// keys[group_of[i]]. Sorted by CanonicalKeyLess. Shared by the relation
/// and streaming paths so their numbers agree bit for bit.
Result<std::vector<GroupEstimate>> EstimateGroups(
    const GusParams& gus, const SampleView& rows,
    const std::vector<uint32_t>& group_of, const std::vector<Value>& keys,
    double confidence_level, BoundKind kind) {
  std::vector<int64_t> order, ends;
  RowsByGroup(group_of, keys.size(), &order, &ends);
  YsInput input = YsInput::Of(rows);
  input.sel = order.data();
  const std::vector<double> ys = ComputeAllYSOfSlices(input, ends);
  const size_t num_subsets = gus.schema().num_subsets();
  std::vector<GroupEstimate> out(keys.size());
  std::vector<double> y, y_hat;
  int64_t begin = 0;
  for (size_t g = 0; g < keys.size(); ++g) {
    GroupEstimate& ge = out[g];
    ge.key = keys[g];
    for (int64_t i = begin; i < ends[g]; ++i) ge.estimate += rows.f[order[i]];
    ge.estimate /= gus.a();
    ge.sample_rows = ends[g] - begin;
    begin = ends[g];
    y.assign(ys.begin() + g * num_subsets, ys.begin() + (g + 1) * num_subsets);
    GUS_ASSIGN_OR_RETURN(const double var,
                         SampleVariance(gus, gus, y, &y_hat));
    GUS_RETURN_NOT_OK(
        SetVariance(std::max(0.0, var), confidence_level, kind, &ge));
  }
  std::sort(out.begin(), out.end(),
            [](const GroupEstimate& a, const GroupEstimate& b) {
              return CanonicalKeyLess(a.key, b.key);
            });
  return out;
}

}  // namespace

Result<std::vector<GroupEstimate>> GroupedSumEstimate(
    const GusParams& gus, const Relation& rel, const ExprPtr& f_expr,
    const std::string& key_column, double confidence_level, BoundKind kind) {
  GUS_ASSIGN_OR_RETURN(SampleView view,
                       SampleView::FromRelation(rel, f_expr, gus.schema()));
  GUS_ASSIGN_OR_RETURN(int key_idx, rel.schema().IndexOf(key_column));

  // Group rows by key hash (exact keys kept for output). Hash grouping
  // follows KeyEquals semantics: numerically equal keys of mixed
  // int64/float64 type hash together and deliberately form one group
  // (consistent with how joins match keys); a typed key column never mixes
  // types unless the input was malformed to begin with.
  std::unordered_map<uint64_t, uint32_t> index;
  std::vector<Value> keys;
  std::vector<uint32_t> group_of(static_cast<size_t>(rel.num_rows()));
  const std::shared_ptr<const ColumnarRelation> cols = rel.Columnar();
  const ColumnData& key_col = cols->data().column(key_idx);
  for (int64_t i = 0; i < rel.num_rows(); ++i) {
    const Value key = key_col.ValueAt(i);
    GUS_RETURN_NOT_OK(
        FindOrAddGroup(key.Hash(), key, &index, &keys, &group_of[i]));
  }
  return EstimateGroups(gus, view, group_of, keys, confidence_level, kind);
}

Result<GroupedSumBuilder> GroupedSumBuilder::Make(const BatchLayout& layout,
                                                  const ExprPtr& f_expr,
                                                  const std::string& key_column,
                                                  const LineageSchema& schema) {
  GroupedSumBuilder builder;
  GUS_ASSIGN_OR_RETURN(builder.source_,
                       MapAnalysisDims(layout.lineage_schema, schema));
  GUS_ASSIGN_OR_RETURN(builder.bound_, f_expr->Bind(layout.schema));
  GUS_ASSIGN_OR_RETURN(builder.key_idx_, layout.schema.IndexOf(key_column));
  builder.rows_.schema = schema;
  builder.rows_.lineage.assign(schema.arity(), {});
  ExprColumnFootprint(builder.bound_, layout.schema.num_columns(),
                      &builder.footprint_);
  return builder;
}

namespace {

/// Typed key test of a group against row `row` of the key column — the
/// exact Value::KeyEquals relation without constructing a Value (same-type
/// is the only shape a live builder sees: a key column's type is fixed by
/// the layout; the mismatch fallback keeps the semantics total).
bool GroupKeyEqualsAt(const Value& key, const ColumnData& col, int64_t row) {
  switch (col.type) {
    case ValueType::kInt64:
      if (key.type() == ValueType::kInt64) return key.AsInt64() == col.i64[row];
      break;
    case ValueType::kFloat64:
      if (key.type() == ValueType::kFloat64) {
        return key.AsFloat64() == col.f64[row];
      }
      break;
    case ValueType::kString:
      if (key.type() == ValueType::kString) {
        return key.AsString() == col.StringAt(row);
      }
      break;
  }
  return key.KeyEquals(col.ValueAt(row));
}

}  // namespace

Status GroupedSumBuilder::AccumulateRows(const ColumnBatch& data,
                                         const int64_t* rows, int64_t len) {
  const ColumnData& key_col = data.column(key_idx_);
  hash_scratch_.resize(static_cast<size_t>(len));
  switch (key_col.type) {
    case ValueType::kInt64:
      simd::HashI64KeysGather(key_col.i64.data(), rows, len,
                              hash_scratch_.data());
      break;
    case ValueType::kFloat64:
      for (int64_t k = 0; k < len; ++k) {
        hash_scratch_[k] = HashFloat64Key(key_col.f64[rows[k]]);
      }
      break;
    case ValueType::kString:
      if (key_col.dict != key_dict_) {
        key_dict_ = key_col.dict;
        key_dict_hashes_ = DictKeyHashes(key_col);
      }
      simd::HashDictCodesGather(key_dict_hashes_.data(),
                                key_col.codes.data(), rows, len,
                                hash_scratch_.data());
      break;
  }
  const int n = static_cast<int>(source_.size());
  const int arity = data.lineage_arity();
  const uint64_t* lineage = data.lineage().data();
  // Run cache: grouped streams are frequently key-clustered, and equal
  // hash within one builder means equal group (collisions are refused on
  // insert) — but each row is still key-checked below, exactly as the
  // per-row path did.
  uint64_t last_hash = 0;
  int64_t group = -1;
  for (int64_t k = 0; k < len; ++k) {
    const int64_t row = rows[k];
    const uint64_t h = hash_scratch_[k];
    bool checked = false;
    if (group < 0 || h != last_hash) {
      const auto [it, inserted] =
          index_.try_emplace(h, static_cast<uint32_t>(keys_.size()));
      if (inserted) keys_.push_back(key_col.ValueAt(row));
      group = it->second;
      last_hash = h;
      checked = inserted;
    }
    if (!checked && !GroupKeyEqualsAt(keys_[group], key_col, row)) {
      return KeyCollision(keys_[group], key_col.ValueAt(row));
    }
    rows_.f.push_back(f_scratch_[k]);
    const uint64_t* lrow = lineage + static_cast<size_t>(row) * arity;
    for (int d = 0; d < n; ++d) {
      rows_.lineage[d].push_back(lrow[source_[d]]);
    }
    group_of_.push_back(static_cast<uint32_t>(group));
  }
  return Status::OK();
}

Status GroupedSumBuilder::Consume(const ColumnBatch& batch) {
  return ConsumeView(SelView::Whole(&batch));
}

Status GroupedSumBuilder::ConsumeView(const SelView& view) {
  if (bound_ == nullptr) {
    return Status::InvalidArgument(
        "deserialized GroupedSumBuilder state is merge/finish-only (the "
        "bound aggregate expression does not travel on the wire)");
  }
  const int64_t len = view.num_rows();
  if (len == 0) return Status::OK();
  const ColumnBatch& data = *view.data;
  const int64_t* rows = view.sel;
  if (view.contiguous()) {
    rows_scratch_.resize(static_cast<size_t>(len));
    for (int64_t i = 0; i < len; ++i) rows_scratch_[i] = view.begin + i;
    rows = rows_scratch_.data();
  }
  f_scratch_.clear();
  if (view.whole_batch()) {
    GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(
        bound_, data, "aggregate expression must be numeric", &f_scratch_));
  } else {
    // Only the f expression's columns are gathered (keys and lineage are
    // read through the selection directly).
    if (eval_scratch_.layout_ptr() != data.layout_ptr()) {
      eval_scratch_.ResetLayout(data.layout_ptr());
    } else {
      eval_scratch_.Clear();
    }
    eval_scratch_.GatherColumnsFrom(data, rows, len, footprint_);
    GUS_RETURN_NOT_OK(EvalExprBatchToDoubles(
        bound_, eval_scratch_, "aggregate expression must be numeric",
        &f_scratch_));
  }
  return AccumulateRows(data, rows, len);
}

Status GroupedSumBuilder::Merge(GroupedSumBuilder&& other) {
  if (source_ != other.source_ || key_idx_ != other.key_idx_ ||
      !(rows_.schema == other.rows_.schema)) {
    return Status::InvalidArgument(
        "cannot merge GroupedSumBuilders over different layouts");
  }
  std::vector<uint32_t> remap(other.keys_.size());
  for (size_t g = 0; g < other.keys_.size(); ++g) {
    const Value& key = other.keys_[g];
    GUS_RETURN_NOT_OK(
        FindOrAddGroup(key.Hash(), key, &index_, &keys_, &remap[g]));
  }
  for (uint32_t g : other.group_of_) group_of_.push_back(remap[g]);
  return rows_.Merge(std::move(other.rows_));
}

namespace {

/// Key wire tags (docs/WIRE_FORMAT.md, GRUP section).
constexpr uint8_t kKeyInt64 = 0;
constexpr uint8_t kKeyFloat64 = 1;
constexpr uint8_t kKeyString = 2;

}  // namespace

std::string GroupedSumBuilder::SerializeState() const {
  const LineageSchema& schema = rows_.schema;
  WireWriter w;
  w.PutU32(static_cast<uint32_t>(schema.arity()));
  for (const std::string& rel : schema.relations()) w.PutString(rel);
  EncodeSourceMap(source_, &w);
  w.PutI32(key_idx_);

  std::vector<uint32_t> ordered(keys_.size());
  std::iota(ordered.begin(), ordered.end(), 0u);
  std::sort(ordered.begin(), ordered.end(), [this](uint32_t a, uint32_t b) {
    return CanonicalKeyLess(keys_[a], keys_[b]);
  });

  // String keys are dictionary-coded: distinct strings once, in
  // first-use (canonical) order; groups then reference codes. Codes are
  // local to this payload — the decoder resolves them back to strings, so
  // two shards assigning the same code to different strings merge
  // correctly by content.
  std::unordered_map<std::string, uint32_t> dict_codes;
  std::vector<const std::string*> dict;
  for (uint32_t g : ordered) {
    if (keys_[g].type() != ValueType::kString) continue;
    const std::string& s = keys_[g].AsString();
    if (dict_codes.emplace(s, static_cast<uint32_t>(dict.size())).second) {
      dict.push_back(&s);
    }
  }
  w.PutU32(static_cast<uint32_t>(dict.size()));
  for (const std::string* s : dict) w.PutString(*s);

  // Each group's rows, in row order.
  std::vector<int64_t> order, ends;
  RowsByGroup(group_of_, keys_.size(), &order, &ends);

  w.PutU64(ordered.size());
  for (uint32_t g : ordered) {
    const Value& key = keys_[g];
    switch (key.type()) {
      case ValueType::kInt64:
        w.PutU8(kKeyInt64);
        w.PutI64(key.AsInt64());
        break;
      case ValueType::kFloat64:
        w.PutU8(kKeyFloat64);
        w.PutDouble(key.AsFloat64());
        break;
      case ValueType::kString:
        w.PutU8(kKeyString);
        w.PutU32(dict_codes.at(key.AsString()));
        break;
    }
    // Groups share the builder's analysis schema, so only the row data
    // travels (no per-group schema repeat).
    const std::span<const int64_t> group_rows(
        order.data() + (g == 0 ? 0 : ends[g - 1]), order.data() + ends[g]);
    w.PutU64(group_rows.size());
    for (int d = 0; d < schema.arity(); ++d) {
      for (int64_t i : group_rows) w.PutU64(rows_.lineage[d][i]);
    }
    for (int64_t i : group_rows) w.PutDouble(rows_.f[i]);
  }
  return w.Take();
}

Result<GroupedSumBuilder> GroupedSumBuilder::DeserializeState(
    std::string_view payload) {
  WireReader r(payload);
  GroupedSumBuilder builder;
  uint32_t arity = 0;
  GUS_RETURN_NOT_OK(r.ReadU32(&arity));
  if (arity > LineageSchema::kMaxLineageArity) {
    return Status::InvalidArgument("wire GroupedSumBuilder arity out of range");
  }
  std::vector<std::string> rels(arity);
  for (auto& rel : rels) GUS_RETURN_NOT_OK(r.ReadString(&rel));
  SampleView& rows = builder.rows_;
  GUS_ASSIGN_OR_RETURN(rows.schema, LineageSchema::Make(std::move(rels)));
  rows.lineage.assign(arity, {});
  GUS_RETURN_NOT_OK(DecodeSourceMap(&r, &builder.source_));
  if (builder.source_.size() != arity) {
    return Status::InvalidArgument(
        "wire GroupedSumBuilder source map does not match the schema");
  }
  GUS_RETURN_NOT_OK(r.ReadI32(&builder.key_idx_));

  uint32_t dict_size = 0;
  GUS_RETURN_NOT_OK(r.ReadU32(&dict_size));
  if (dict_size > r.remaining()) {
    return Status::InvalidArgument("truncated wire GroupedSumBuilder "
                                   "dictionary");
  }
  std::vector<std::string> dict(dict_size);
  for (auto& s : dict) GUS_RETURN_NOT_OK(r.ReadString(&s));

  uint64_t group_count = 0;
  GUS_RETURN_NOT_OK(r.ReadU64(&group_count));
  if (group_count > r.remaining()) {
    return Status::InvalidArgument("truncated wire GroupedSumBuilder groups");
  }
  for (uint64_t g = 0; g < group_count; ++g) {
    uint8_t key_type = 0;
    GUS_RETURN_NOT_OK(r.ReadU8(&key_type));
    Value key;
    switch (key_type) {
      case kKeyInt64: {
        int64_t v = 0;
        GUS_RETURN_NOT_OK(r.ReadI64(&v));
        key = Value(v);
        break;
      }
      case kKeyFloat64: {
        double v = 0.0;
        GUS_RETURN_NOT_OK(r.ReadDouble(&v));
        key = Value(v);
        break;
      }
      case kKeyString: {
        uint32_t code = 0;
        GUS_RETURN_NOT_OK(r.ReadU32(&code));
        if (code >= dict.size()) {
          return Status::InvalidArgument(
              "wire GroupedSumBuilder key references a dictionary code "
              "outside the payload's dictionary");
        }
        key = Value(dict[code]);
        break;
      }
      default:
        return Status::InvalidArgument(
            "wire GroupedSumBuilder has an unknown key type tag");
    }
    const uint32_t group = static_cast<uint32_t>(builder.keys_.size());
    if (!builder.index_.try_emplace(key.Hash(), group).second) {
      return Status::InvalidArgument(
          "wire GroupedSumBuilder repeats a group key");
    }
    builder.keys_.push_back(std::move(key));
    uint64_t count = 0;
    GUS_RETURN_NOT_OK(r.ReadU64(&count));
    if (count > r.remaining() / 8) {
      return Status::InvalidArgument(
          "truncated wire GroupedSumBuilder group rows");
    }
    const size_t at = rows.f.size();
    for (uint32_t d = 0; d < arity; ++d) {
      rows.lineage[d].resize(at + count);
      for (uint64_t i = 0; i < count; ++i) {
        GUS_RETURN_NOT_OK(r.ReadU64(&rows.lineage[d][at + i]));
      }
    }
    rows.f.resize(at + count);
    for (uint64_t i = 0; i < count; ++i) {
      GUS_RETURN_NOT_OK(r.ReadDouble(&rows.f[at + i]));
    }
    builder.group_of_.resize(at + count, group);
  }
  GUS_RETURN_NOT_OK(r.ExpectEnd());
  return builder;
}

Result<std::vector<GroupEstimate>> GroupedSumBuilder::Finish(
    const GusParams& gus, double confidence_level, BoundKind kind) const {
  if (!(gus.schema() == rows_.schema)) {
    return Status::InvalidArgument(
        "GusParams schema does not match the builder's analysis schema");
  }
  return EstimateGroups(gus, rows_, group_of_, keys_, confidence_level, kind);
}

}  // namespace gus
