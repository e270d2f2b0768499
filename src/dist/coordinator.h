// Gather coordination for shared-nothing distributed estimation.
//
// The coordinator never sees tuples — only the serialized partial
// estimator states the shard workers produced (dist/worker.h). Gathering
// is: receive bundle k for k = 0..N-1, validate the META/RNGS consistency
// fingerprints, deserialize, and fold the states in ascending shard
// (= global unit) order with the est/ Merge family. The ordered fold is
// what makes the result bit-identical to a single-process run: merge
// order is part of the floating-point result's identity.
//
// Every scatter/gather — SBox in-process, from a transport or over sockets
// (serve/session.h), and sqlish's per-item SQL gathers — is an attempt
// callable run by the one per-shard retry loop (SuperviseShards), whose
// outcomes one accounting step judges: fatal, retried, or degraded. Only
// the fold differs: FinishShardGather (SBox) or FinishItemShardGather
// (per-item). See examples/sharded_estimate.cc for both process shapes.

#ifndef GUS_DIST_COORDINATOR_H_
#define GUS_DIST_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algebra/gus_params.h"
#include "dist/shard.h"
#include "dist/transport.h"
#include "est/partial_gather.h"
#include "est/sbox.h"
#include "est/wire.h"
#include "plan/columnar_executor.h"
#include "plan/executor.h"
#include "rel/expression.h"
#include "util/status.h"

namespace gus {

/// \brief Cross-shard equality of the SMPL resolved-sampler payloads
/// (index order, shard 0 as the reference).
///
/// Every shard filters its unit slices against the same global fixed-size
/// draws; divergent resolutions mean the merged sample would be neither
/// shard's design, so the gather refuses.
Status ValidateShardSamplerStates(
    const std::vector<std::string>& sampler_payloads);

/// \brief True for failures a retry can fix: lost workers, torn/missing
/// transport frames (Unavailable, KeyError), and elapsed deadlines.
///
/// Divergent-state failures (InvalidArgument: seed, catalog-fingerprint,
/// or wire-version skew; SMPL divergence) are fatal — re-executing the
/// same divergent inputs reproduces the same mismatch, so retrying them
/// only hides a configuration bug behind latency.
bool IsRetryableShardFailure(const Status& st);

/// \brief What SuperviseShards learned about one shard.
struct ShardOutcome {
  /// OK iff some attempt delivered; otherwise the last attempt's failure.
  Status status = Status::Internal("shard was never attempted");
  std::string bundle;     ///< the delivered bundle, iff status is OK
  int attempts = 0;       ///< attempts actually made
  int deadline_hits = 0;  ///< attempts that ended in DeadlineExceeded
};

/// \brief One attempt at shard `shard`: returns its (verified) bundle.
using ShardAttemptFn = std::function<Result<std::string>(int shard)>;

/// \brief The per-shard attempt loop behind every SBox scatter/gather.
///
/// Runs `attempt(k)` for each shard k in [0, num_shards), each loop on its
/// own plain thread — never a shared-pool task, whose held batch would
/// stall an attempt that leases the pool — except the last shard's, which
/// runs on the calling thread. Retryable failures are re-attempted up to
/// `retry.max_attempts` times after a deterministic backoff (jitter
/// forked from (shard, attempt), so a fixed fault plan replays the same
/// schedule); a fatal one ends the loop at once.
/// `attempt` must be safe to call concurrently for distinct shards.
std::vector<ShardOutcome> SuperviseShards(int num_shards,
                                          const ShardRetryPolicy& retry,
                                          const ShardAttemptFn& attempt);

/// \brief Outcome of a gather: the report, plus — iff the gather had to
/// degrade — the acknowledgement payload describing what was lost.
struct FaultTolerantResult {
  SboxReport report;
  /// True when the report folds only a subset of the shards (unbiased,
  /// re-weighted, CI widened; see est/partial_gather.h).
  bool degraded = false;
  /// Meaningful iff degraded.
  DegradedReport degradation;
  /// Meaningful iff degraded: the WireTag::kSurvivingRanges payload that
  /// makes a cached partial result self-describing.
  SurvivingRangesInfo live;
  /// \brief Filled only when the fold was asked to capture it (see
  /// FoldGatheredShardBundles) AND the gather was complete: the merged
  /// (pre-Finish) StreamingSboxEstimator state.
  ///
  /// Round-trip bit-exactness (est/streaming.h) makes Finish over the
  /// deserialized state reproduce `report` to the last bit — this is
  /// what an approximate-view cache stores. Never captured for degraded
  /// folds: a cache must not immortalize an outage.
  std::string merged_sbox_state;
};

/// \brief The one fold implementation behind every SBox gather.
///
/// `shard_ids`/`bundles` are parallel and strictly ascending; `failed`
/// carries (shard, final error) for shards that never delivered — with a
/// complete set it folds every state in shard order, with a subset it
/// degrades through est/partial_gather (or fails when a CI would be
/// fabricated). With `capture_merged_state`, a complete fold also
/// serializes the merged pre-Finish estimator state into
/// FaultTolerantResult::merged_sbox_state (the view-cache payload).
/// Using this single implementation is what makes a served gather
/// bit-identical to the one-shot kSharded gather by construction.
Result<FaultTolerantResult> FoldGatheredShardBundles(
    const std::vector<int>& shard_ids,
    const std::vector<const std::string*>& bundles, int num_shards,
    const std::string& pivot_relation,
    const std::vector<std::pair<int, std::string>>& failed,
    bool capture_merged_state = false);

/// \brief The SBox finish step: SuperviseShards outcomes -> result.
///
/// A fatal failure propagates with its own code; so does a retryable loss
/// (naming the shard and the attempts it made) unless `allow_partial` is
/// set. Otherwise the bundles fold through
/// FoldGatheredShardBundles (`pivot_relation`: MorselSplit::
/// pivot_relation, "" for non-partitionable plans), capturing the merged
/// state only for a complete gather. `stats`, when set, receives the
/// shard counters on every return path, and degraded/effective_coverage
/// from a successful fold; no other field is touched.
Result<FaultTolerantResult> FinishShardGather(
    const std::vector<ShardOutcome>& outcomes,
    const std::string& pivot_relation, bool allow_partial,
    bool capture_merged_state, ExecStats* stats);

/// Merges item `item`'s serialized state into the caller's accumulator.
using ShardItemMergeFn =
    std::function<Status(size_t item, std::string_view payload)>;

/// \brief The per-item finish step of the sqlish kSharded / kServed
/// gathers, whose bundles carry `num_items` `item_tag` sections (VBLD or
/// GRUP) instead of one SBOX state.
///
/// Accounts the outcomes as FinishShardGather does, except that per-item
/// states never degrade: any lost shard fails with its own code. All
/// bundles pass the SBox fold's META/RNGS/SMPL checks and
/// ValidateShardMetas before `merge` sees an item, shard-major in shard
/// order. Returns the summed META row count.
Result<int64_t> FinishItemShardGather(const std::vector<ShardOutcome>& outcomes,
                                      WireTag item_tag, size_t num_items,
                                      const ShardItemMergeFn& merge,
                                      ExecStats* stats);

/// \brief Receives (once per shard) and merges `num_shards` SBox shard
/// bundles from `transport` and finishes the estimation — the half the
/// coordinator of a multi-process deployment runs after external workers
/// populated the transport.
///
/// Fails loudly on corrupt or version-skewed bundles and on any
/// consistency-fingerprint mismatch — merging incompatible partial states
/// would silently bias the estimate. A missing or retryably damaged
/// bundle fails the gather unless `allow_partial` is set; then the
/// survivors are re-weighted into an unbiased partial estimate with an
/// honestly wider CI (see FinishShardGather and est/partial_gather.h; a
/// CI needs >= 2 survivors on a partitioned plan).
Result<FaultTolerantResult> GatherSboxEstimate(
    ShardTransport* transport, int num_shards,
    const std::string& pivot_relation = "", bool allow_partial = false);

/// \brief One in-process run of shard `shard`, returning its bundle.
/// Holds what it uses by value: an attempt abandoned at its deadline may
/// outlive the gather that launched it.
using InProcessShardFn = std::function<Result<std::string>(
    int shard, const ExecOptions& exec, uint64_t expected_fingerprint)>;

/// \brief The in-process scatter behind the one-call SBox forms and the
/// sqlish SQL gathers: fingerprints `columnar`, then runs `worker` per
/// shard under SuperviseShards with `exec.retry` (valid `exec` required).
/// Each attempt runs under the deadline with `exec.stats` stripped, then is
/// sent through `transport` (a local mailbox when null) and read back, so
/// wire damage surfaces while the shard can still be re-dispatched.
Result<std::vector<ShardOutcome>> SuperviseInProcessShards(
    const PlanPtr& plan, ColumnarCatalog* columnar, const ExecOptions& exec,
    int num_shards, ShardTransport* transport, const InProcessShardFn& worker);

/// \brief One-call scatter/gather: runs every shard worker in-process
/// (concurrently, one attempt each, each from its own Rng(seed)) through
/// `transport` — defaulting to a process-local mailbox when null — then
/// gathers.
///
/// For a fixed (plan, catalog, seed, morsel_rows) the report is
/// bit-identical across num_shards AND to EstimatePlanParallel at the
/// same options: shards are contiguous ranges of the same global unit
/// sequence, merged in the same order.
Result<SboxReport> ShardedSboxEstimate(const PlanPtr& plan,
                                       const Catalog& catalog, uint64_t seed,
                                       ExecMode mode, const ExecOptions& exec,
                                       int num_shards, const ExprPtr& f_expr,
                                       const GusParams& gus,
                                       const SboxOptions& options,
                                       ShardTransport* transport = nullptr);

/// \brief ShardedSboxEstimate over an externally owned columnar catalog —
/// the out-of-core form (hand it a SegmentCatalog and shards stream
/// segments through the pinned cache instead of materializing the base
/// data). Bit-identical to the row-catalog form holding the same rows:
/// the fingerprints come from the same ContentFingerprint chain.
Result<SboxReport> ShardedSboxEstimateOverCatalog(
    const PlanPtr& plan, ColumnarCatalog* columnar_catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport = nullptr);

/// \brief The fault-tolerant one-call scatter/gather.
///
/// Dispatches every shard's unit range to an in-process worker under
/// SuperviseShards with `exec.retry`: per-attempt deadlines (attempts past
/// their deadline are abandoned and the shard re-dispatched — the range
/// re-executes bit-reproducibly from the same seed), bounded retries with
/// deterministic exponential backoff + jitter, and verification read-back
/// through `transport` (defaulting to a process-local mailbox) so wire
/// damage is caught while the shard can still be re-sent. When a shard
/// exhausts its budget, FinishShardGather decides: with
/// `exec.allow_partial` the survivors fold through est/partial_gather
/// (DegradedReport attached); without it the shard's final error
/// propagates. `exec.stats`, when set, is reset and receives the
/// retry/degradation counters on every return path. With no faults the
/// report is bit-identical to ShardedSboxEstimate.
Result<FaultTolerantResult> FaultTolerantShardedSboxEstimate(
    const PlanPtr& plan, const Catalog& catalog, uint64_t seed, ExecMode mode,
    const ExecOptions& exec, int num_shards, const ExprPtr& f_expr,
    const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport = nullptr);

/// \brief Joins shard attempt threads abandoned at their deadline (first
/// releasing any injected hangs so they can finish).
///
/// Abandoned attempts still reference the query's plan and catalog; call
/// this before tearing those down (tests and long-lived coordinators do;
/// short-lived processes can rely on exit). Idempotent.
void JoinAbandonedShardAttempts();

}  // namespace gus

#endif  // GUS_DIST_COORDINATOR_H_
