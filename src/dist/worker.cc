#include "dist/worker.h"

#include "est/streaming.h"
#include "util/fault_inject.h"
#include "util/random.h"

namespace gus {

namespace {

/// Prefixes a worker-side failure with its shard id and site so the
/// coordinator's retry logic (and its logs) can attribute every error to
/// one shard attempt without parsing message text heuristically.
Status AnnotateShard(Status st, int shard_index, const char* site) {
  if (st.ok()) return st;
  const std::string msg = "[shard " + std::to_string(shard_index) + "/" +
                          site + "] " + st.message();
  switch (st.code()) {
    case StatusCode::kUnavailable:
      return Status::Unavailable(msg);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(msg);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kKeyError:
      return Status::KeyError(msg);
    default:
      return Status::Internal(msg);
  }
}

}  // namespace

std::string BuildShardBundle(
    const ShardMeta& meta, const std::vector<ResolvedPivotSampler>& samplers,
    const std::vector<std::pair<WireTag, std::string>>& extra) {
  WireBundleWriter bundle;
  bundle.AddSection(WireTag::kMeta, ShardMetaToBytes(meta));
  // The RNGS fingerprint is the worker's *initial* stream position,
  // Rng(seed): byte-equality across shards proves every worker started
  // from the same seed (the META stream base then proves they also agreed
  // on plan and catalog).
  bundle.AddSection(WireTag::kRngState, RngStateToBytes(Rng(meta.seed)));
  // The SMPL section pins the resolved pivot-path fixed-size samplers:
  // byte-equality proves the workers agreed on the global WOR / WR /
  // block draws their slices were filtered against.
  bundle.AddSection(WireTag::kSamplerState, SamplerStateToBytes(samplers));
  for (const auto& [tag, payload] : extra) {
    bundle.AddSection(tag, payload);
  }
  return bundle.Finish();
}

Status RunShardToSink(
    const PlanPtr& plan, ColumnarCatalog* catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int shard_index, int num_shards,
    const MorselSinkFactory& make_sink,
    std::unique_ptr<MergeableBatchSink>* out, ShardMeta* meta,
    std::vector<ResolvedPivotSampler>* samplers,
    const std::optional<uint64_t>& expected_catalog_fingerprint) {
  if (shard_index < 0 || shard_index >= num_shards) {
    return Status::InvalidArgument(
        "shard_index " + std::to_string(shard_index) +
        " outside [0, " + std::to_string(num_shards) + ")");
  }
  // Injection site: death/failure before the worker has done anything.
  GUS_RETURN_NOT_OK(AnnotateShard(
      FaultInjector::Global()->Hit("worker.start", shard_index), shard_index,
      "worker.start"));
  GUS_ASSIGN_OR_RETURN(const uint64_t catalog_fingerprint,
                       PlanCatalogFingerprint(plan, catalog));
  if (expected_catalog_fingerprint.has_value() &&
      *expected_catalog_fingerprint != catalog_fingerprint) {
    // Divergent base data caught BEFORE executing a single unit — the
    // partial state this worker would produce could never merge validly.
    return Status::InvalidArgument(
        "shard " + std::to_string(shard_index) +
        " holds divergent base data (local catalog fingerprint does not "
        "match the coordinator's); refusing to execute");
  }
  const ExecOptions normalized = ShardedExecOptions(exec);
  GUS_ASSIGN_OR_RETURN(
      ShardPlan sp, PlanShards(plan, catalog, mode, normalized, num_shards));
  const ShardSpec& spec = sp.shards[shard_index];

  Rng rng(seed);
  uint64_t stream_base = 0;
  std::vector<ResolvedPivotSampler> resolved;
  // Injection site: failure/hang/death mid-execution of the unit range.
  GUS_RETURN_NOT_OK(AnnotateShard(
      FaultInjector::Global()->Hit("worker.execute", shard_index),
      shard_index, "worker.execute"));
  GUS_RETURN_NOT_OK(AnnotateShard(
      ParallelExecuteUnitRangeToSink(plan, catalog, &rng, mode, normalized,
                                     spec.unit_begin, spec.unit_end, make_sink,
                                     out, &stream_base, &resolved),
      shard_index, "worker.execute"));
  if (samplers != nullptr) *samplers = resolved;

  meta->shard_index = static_cast<uint32_t>(shard_index);
  meta->num_shards = static_cast<uint32_t>(num_shards);
  meta->unit_begin = spec.unit_begin;
  meta->unit_end = spec.unit_end;
  meta->num_units = sp.split.num_units;
  meta->morsel_rows = sp.split.partitionable ? sp.split.morsel_rows : 0;
  meta->seed = seed;
  meta->stream_base = stream_base;
  meta->catalog_fingerprint = catalog_fingerprint;
  meta->rows = 0;  // sink-dependent; the caller fills it in
  return Status::OK();
}

Result<std::string> RunShardSbox(
    const PlanPtr& plan, ColumnarCatalog* catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int shard_index, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    const std::optional<uint64_t>& expected_catalog_fingerprint) {
  std::unique_ptr<MergeableBatchSink> sink;
  ShardMeta meta;
  std::vector<ResolvedPivotSampler> samplers;
  GUS_RETURN_NOT_OK(RunShardToSink(
      plan, catalog, seed, mode, exec, shard_index, num_shards,
      SboxEstimatorSink::Factory(f_expr, gus, options), &sink, &meta,
      &samplers, expected_catalog_fingerprint));
  StreamingSboxEstimator* est =
      static_cast<SboxEstimatorSink*>(sink.get())->estimator();
  meta.rows = est->rows_seen();
  // Injection site: the range executed, but the bundle never materializes
  // (death/failure between execution and serialization).
  GUS_RETURN_NOT_OK(AnnotateShard(
      FaultInjector::Global()->Hit("worker.bundle", shard_index), shard_index,
      "worker.bundle"));
  return BuildShardBundle(meta, samplers,
                          {{WireTag::kSboxState, est->SerializeState()}});
}

}  // namespace gus
