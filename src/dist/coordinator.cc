#include "dist/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dist/worker.h"
#include "est/streaming.h"
#include "est/wire.h"
#include "plan/exec_stats.h"
#include "util/fault_inject.h"
#include "util/random.h"

namespace gus {

namespace {

/// The shared parse/validate step behind every (complete or partial)
/// gather: each bundle -> its sections, with META recorded in `*metas`,
/// the RNGS seed fingerprint enforced across the set, and the SMPL
/// sections well-formed and byte-equal (ValidateShardSamplerStates).
Result<std::vector<std::vector<WireSectionView>>> ParseShardBundles(
    const std::vector<int>& shard_ids,
    const std::vector<const std::string*>& bundles,
    std::vector<ShardMeta>* metas) {
  std::vector<std::vector<WireSectionView>> parsed;
  parsed.reserve(bundles.size());
  std::vector<std::string> sampler_payloads;
  sampler_payloads.reserve(bundles.size());
  std::string_view rng_fingerprint;
  for (size_t i = 0; i < bundles.size(); ++i) {
    GUS_ASSIGN_OR_RETURN(std::vector<WireSectionView> sections,
                         ParseWireBundle(*bundles[i]));
    GUS_ASSIGN_OR_RETURN(WireSectionView meta_section,
                         FindWireSection(sections, WireTag::kMeta));
    GUS_ASSIGN_OR_RETURN(ShardMeta meta,
                         ShardMetaFromBytes(meta_section.payload));
    metas->push_back(meta);
    GUS_ASSIGN_OR_RETURN(WireSectionView rng_section,
                         FindWireSection(sections, WireTag::kRngState));
    if (i == 0) {
      rng_fingerprint = rng_section.payload;
    } else if (rng_section.payload != rng_fingerprint) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard_ids[i]) +
          " started from a different Rng stream than the first gathered "
          "shard (seed mismatch); refusing to merge");
    }
    GUS_ASSIGN_OR_RETURN(WireSectionView sampler_section,
                         FindWireSection(sections, WireTag::kSamplerState));
    GUS_RETURN_NOT_OK(SamplerStateFromBytes(sampler_section.payload).status());
    sampler_payloads.emplace_back(sampler_section.payload);
    parsed.push_back(std::move(sections));
  }
  GUS_RETURN_NOT_OK(ValidateShardSamplerStates(sampler_payloads));
  return parsed;
}

/// Registry of attempt threads abandoned at their deadline. Leaked on
/// purpose: an orphan may still be running at process exit, and joining
/// it from a static destructor would re-introduce the unbounded wait the
/// deadline existed to remove.
std::mutex* OrphanMutex() {
  static auto* mu = new std::mutex;
  return mu;
}
std::vector<std::thread>* Orphans() {
  static auto* threads = new std::vector<std::thread>;
  return threads;
}

/// \brief Runs `fn` under a wall-clock deadline (0 = unbounded, inline).
///
/// On timeout the runner thread is abandoned into the orphan registry —
/// it only computes (never touches the transport), so a late finisher's
/// work is simply discarded; re-dispatch re-derives the identical bundle
/// from the same seed.
Result<std::string> RunWithDeadline(int64_t deadline_ms,
                                    std::function<Result<std::string>()> fn) {
  if (deadline_ms <= 0) return fn();
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::string> result{Status::Internal("attempt did not run")};
  };
  auto slot = std::make_shared<Slot>();
  std::thread runner([slot, fn = std::move(fn)] {
    Result<std::string> r = fn();
    std::lock_guard<std::mutex> lock(slot->mu);
    slot->result = std::move(r);
    slot->done = true;
    slot->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(slot->mu);
  const bool done =
      slot->cv.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                        [&] { return slot->done; });
  lock.unlock();
  if (done) {
    runner.join();
    return std::move(slot->result);
  }
  {
    std::lock_guard<std::mutex> guard(*OrphanMutex());
    Orphans()->push_back(std::move(runner));
  }
  return Status::DeadlineExceeded(
      "shard attempt exceeded its " + std::to_string(deadline_ms) +
      " ms deadline; abandoned for re-dispatch");
}

/// The retry backoff schedule (ShardRetryPolicy): 1 ms doubling per retry
/// to a 100 ms cap, plus up to one base of jitter from a fixed stream seed.
constexpr int64_t kBackoffBaseMs = 1;
constexpr double kBackoffMult = 2.0;
constexpr int64_t kBackoffMaxMs = 100;
constexpr uint64_t kBackoffJitterSeed = 0x9E3779B97F4A7C15ull;

/// Deterministic exponential backoff before re-attempt `attempt` (2-based:
/// the first retry). Jitter comes from a forked stream keyed on
/// (shard, attempt), so a fixed fault plan replays the same schedule.
void SleepBackoff(int64_t shard, int attempt) {
  const double scaled =
      static_cast<double>(kBackoffBaseMs) *
      std::pow(kBackoffMult, static_cast<double>(attempt - 2));
  int64_t ms = static_cast<int64_t>(
      std::min(scaled, static_cast<double>(kBackoffMaxMs)));
  Rng jitter = Rng::ForkStream(kBackoffJitterSeed,
                               static_cast<uint64_t>(shard) * 64 +
                                   static_cast<uint64_t>(attempt));
  ms += static_cast<int64_t>(
      jitter.UniformInt(static_cast<uint64_t>(kBackoffBaseMs) + 1));
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Result<FaultTolerantResult> FoldGatheredShardBundles(
    const std::vector<int>& shard_ids,
    const std::vector<const std::string*>& bundles, int num_shards,
    const std::string& pivot_relation,
    const std::vector<std::pair<int, std::string>>& failed,
    bool capture_merged_state) {
  GUS_RETURN_NOT_OK(FaultInjector::Global()->Hit("coordinator.gather"));
  if (shard_ids.empty()) {
    return Status::Unavailable(
        "no shard delivered a bundle; nothing to estimate from");
  }
  std::vector<ShardMeta> metas;
  GUS_ASSIGN_OR_RETURN(std::vector<std::vector<WireSectionView>> parsed,
                       ParseShardBundles(shard_ids, bundles, &metas));
  std::vector<StreamingSboxEstimator> states;
  states.reserve(parsed.size());
  for (const std::vector<WireSectionView>& sections : parsed) {
    GUS_ASSIGN_OR_RETURN(WireSectionView state,
                         FindWireSection(sections, WireTag::kSboxState));
    GUS_ASSIGN_OR_RETURN(
        StreamingSboxEstimator est,
        StreamingSboxEstimator::DeserializeState(state.payload));
    states.push_back(std::move(est));
  }
  // Shard-ordered merge of the delivered states; the degraded path below
  // folds the per-shard states directly instead (it needs the
  // within-shard / cross-shard pair split the merge would erase).
  const auto merge_all = [&states]() -> Result<StreamingSboxEstimator> {
    StreamingSboxEstimator merged = std::move(states[0]);
    for (size_t i = 1; i < states.size(); ++i) {
      GUS_RETURN_NOT_OK(merged.Merge(std::move(states[i])));
    }
    return merged;
  };

  FaultTolerantResult out;
  if (static_cast<int>(shard_ids.size()) == num_shards) {
    GUS_RETURN_NOT_OK(ValidateShardMetas(metas));
    GUS_ASSIGN_OR_RETURN(StreamingSboxEstimator merged, merge_all());
    // Captured *before* Finish: round-trip bit-exactness means a later
    // DeserializeState + Finish reproduces out.report to the last bit.
    if (capture_merged_state) out.merged_sbox_state = merged.SerializeState();
    GUS_ASSIGN_OR_RETURN(out.report, merged.Finish());
    return out;
  }

  GUS_RETURN_NOT_OK(ValidateSurvivingShardMetas(metas));
  const ShardMeta& first = metas[0];
  if (static_cast<int>(first.num_shards) != num_shards) {
    return Status::InvalidArgument(
        "surviving shards report num_shards = " +
        std::to_string(first.num_shards) + " but the gather expected " +
        std::to_string(num_shards));
  }
  const int64_t num_units = first.num_units;

  // The survival model counts *data-bearing* shards: losing a shard whose
  // canonical range is empty loses nothing and must not re-weight (the
  // estimate over the data-bearing shards is already complete). Ranges
  // are deterministic in (num_units, num_shards), so emptiness is a plan
  // property, never a data peek.
  int total_bearing = 0;
  int surviving_bearing = 0;
  int64_t surviving_units = 0;
  std::vector<size_t> bearing_state_index;
  {
    size_t s = 0;
    for (int k = 0; k < num_shards; ++k) {
      const ShardUnitRange range =
          CanonicalShardRange(num_units, num_shards, k);
      const bool bearing = range.unit_end > range.unit_begin;
      const bool survived =
          s < shard_ids.size() && shard_ids[s] == k ? (++s, true) : false;
      if (bearing) {
        ++total_bearing;
        if (survived) {
          ++surviving_bearing;
          surviving_units += range.unit_end - range.unit_begin;
          bearing_state_index.push_back(s - 1);
        }
      }
    }
  }

  out.degradation.surviving_shards = static_cast<int>(shard_ids.size());
  out.degradation.total_shards = num_shards;
  out.degradation.surviving_units = surviving_units;
  out.degradation.total_units = num_units;
  for (const auto& [shard, message] : failed) {
    const ShardUnitRange range = CanonicalShardRange(num_units, num_shards, shard);
    if (range.unit_end > range.unit_begin) {
      out.degradation.lost_ranges.push_back(range);
    }
    out.degradation.failures.push_back("shard " + std::to_string(shard) +
                                       ": " + message);
  }
  out.degradation.effective_coverage =
      num_units > 0
          ? static_cast<double>(surviving_units) / static_cast<double>(num_units)
          : 1.0;

  if (surviving_bearing == total_bearing) {
    // Every lost shard had an empty range: the fold covers all units and
    // the complete estimate stands un-reweighted. (Tiling is implied:
    // survivors cover their canonical ranges and all bearing ranges
    // survived.)
    GUS_ASSIGN_OR_RETURN(StreamingSboxEstimator merged, merge_all());
    if (capture_merged_state) out.merged_sbox_state = merged.SerializeState();
    GUS_ASSIGN_OR_RETURN(out.report, merged.Finish());
    return out;
  }
  if (surviving_bearing == 0) {
    return Status::Unavailable(
        "every data-bearing shard was lost (" + std::to_string(num_units) +
        " units); no partial estimate is possible");
  }
  if (surviving_bearing < 2 && total_bearing >= 2) {
    return Status::Unavailable(
        "only 1 of " + std::to_string(total_bearing) +
        " data-bearing shards survived: cross-shard co-survival is "
        "impossible, so the pairwise variance (and any CI) would be "
        "fabricated; need >= 2 surviving shards for a degraded estimate");
  }
  GUS_ASSIGN_OR_RETURN(
      GusParams survival,
      ShardSurvivalGus(states[bearing_state_index[0]].design().schema(),
                       pivot_relation, surviving_bearing, total_bearing));
  // Only the bearing survivors enter the fold: empty shards carry no
  // segments or retained rows and are not part of the survival population.
  std::vector<StreamingSboxEstimator> bearing_states;
  bearing_states.reserve(bearing_state_index.size());
  for (size_t idx : bearing_state_index) {
    bearing_states.push_back(std::move(states[idx]));
  }
  GUS_ASSIGN_OR_RETURN(
      out.report,
      StreamingSboxEstimator::FinishDegraded(std::move(bearing_states),
                                             survival, surviving_bearing,
                                             total_bearing));
  out.degraded = true;
  out.live.pivot_relation = pivot_relation;
  out.live.total_shards = static_cast<uint32_t>(num_shards);
  out.live.total_units = num_units;
  for (int k : shard_ids) {
    out.live.surviving.push_back(CanonicalShardRange(num_units, num_shards, k));
  }
  return out;
}

bool IsRetryableShardFailure(const Status& st) {
  switch (st.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kKeyError:  // a bundle that never arrived
      return true;
    default:
      return false;
  }
}

void JoinAbandonedShardAttempts() {
  FaultInjector::Global()->ReleaseHangs();
  std::vector<std::thread> take;
  {
    std::lock_guard<std::mutex> guard(*OrphanMutex());
    take.swap(*Orphans());
  }
  for (std::thread& t : take) t.join();
}

Status ValidateShardSamplerStates(
    const std::vector<std::string>& sampler_payloads) {
  for (size_t k = 1; k < sampler_payloads.size(); ++k) {
    if (sampler_payloads[k] != sampler_payloads[0]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) +
          " resolved different fixed-size sampler draws than shard 0 "
          "(SMPL fingerprint mismatch); refusing to merge");
    }
  }
  return Status::OK();
}

std::vector<ShardOutcome> SuperviseShards(int num_shards,
                                          const ShardRetryPolicy& retry,
                                          const ShardAttemptFn& attempt) {
  std::vector<ShardOutcome> outcomes(
      static_cast<size_t>(std::max(num_shards, 0)));
  const int max_attempts = std::max(retry.max_attempts, 1);
  const auto supervise = [&](int k) {
    ShardOutcome& outcome = outcomes[static_cast<size_t>(k)];
    for (int a = 1; a <= max_attempts; ++a) {
      if (a > 1) SleepBackoff(k, a);
      ++outcome.attempts;
      Result<std::string> delivered = attempt(k);
      if (delivered.ok()) {
        outcome.bundle = std::move(delivered).ValueOrDie();
        outcome.status = Status::OK();
        return;
      }
      outcome.status = delivered.status();
      if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
        ++outcome.deadline_hits;
      }
      // Retrying identical divergent inputs reproduces the identical
      // mismatch: fatal failures end the loop.
      if (!IsRetryableShardFailure(outcome.status)) return;
    }
  };
  // The last shard's loop runs on the calling thread, so one shard
  // spawns nothing.
  std::vector<std::thread> loops;
  loops.reserve(outcomes.size());
  for (int k = 0; k + 1 < num_shards; ++k) loops.emplace_back(supervise, k);
  if (num_shards > 0) supervise(num_shards - 1);
  for (std::thread& loop : loops) loop.join();
  return outcomes;
}

namespace {

/// The delivered bundles (borrowed from the outcomes) in ascending shard
/// order, plus (shard, final error) for each shard lost past its retry
/// budget — non-empty only under allow_partial.
struct DeliveredShards {
  std::vector<int> shard_ids;
  std::vector<const std::string*> bundles;
  std::vector<std::pair<int, std::string>> failed;
};

/// The outcome accounting every finish step shares: shard counters into
/// `stats` on every return path, a fatal failure propagates, a retryable
/// loss propagates unless `allow_partial` (its message ending in
/// `no_partial_why`).
Result<DeliveredShards> AccountShardOutcomes(
    const std::vector<ShardOutcome>& outcomes, bool allow_partial,
    const char* no_partial_why, ExecStats* stats) {
  const int num_shards = static_cast<int>(outcomes.size());
  DeliveredShards delivered;
  int fatal_shard = -1;
  int64_t attempts = 0;
  int64_t retries = 0;
  int64_t deadline_hits = 0;
  for (int k = 0; k < num_shards; ++k) {
    const ShardOutcome& outcome = outcomes[static_cast<size_t>(k)];
    attempts += outcome.attempts;
    retries += std::max(outcome.attempts - 1, 0);
    deadline_hits += outcome.deadline_hits;
    if (outcome.status.ok()) {
      delivered.shard_ids.push_back(k);
      delivered.bundles.push_back(&outcome.bundle);
      continue;
    }
    if (fatal_shard < 0 && !IsRetryableShardFailure(outcome.status)) {
      fatal_shard = k;
    }
    delivered.failed.emplace_back(k, outcome.status.ToString());
  }
  if (stats != nullptr) {
    stats->shard_attempts = attempts;
    stats->shard_retries = retries;
    stats->shard_deadline_hits = deadline_hits;
    stats->shards_lost = static_cast<int64_t>(delivered.failed.size());
  }
  const auto shard_failure = [&](int k, const char* why) {
    const ShardOutcome& outcome = outcomes[static_cast<size_t>(k)];
    return outcome.status.WithMessage(
        "shard " + std::to_string(k) + " failed after " +
        std::to_string(outcome.attempts) + " attempt(s)" + why + ": " +
        outcome.status.message());
  };
  // Fatal (divergent-state) failures propagate regardless of
  // allow_partial — degrading would hide a configuration bug.
  if (fatal_shard >= 0) return shard_failure(fatal_shard, "");
  if (!delivered.failed.empty() && !allow_partial) {
    return shard_failure(delivered.failed.front().first, no_partial_why);
  }
  return delivered;
}

}  // namespace

Result<FaultTolerantResult> FinishShardGather(
    const std::vector<ShardOutcome>& outcomes,
    const std::string& pivot_relation, bool allow_partial,
    bool capture_merged_state, ExecStats* stats) {
  GUS_ASSIGN_OR_RETURN(DeliveredShards delivered,
                       AccountShardOutcomes(outcomes, allow_partial,
                                            " and allow_partial is not set",
                                            stats));
  Result<FaultTolerantResult> result = FoldGatheredShardBundles(
      delivered.shard_ids, delivered.bundles,
      static_cast<int>(outcomes.size()), pivot_relation, delivered.failed,
      capture_merged_state && delivered.failed.empty());
  if (stats != nullptr && result.ok()) {
    const FaultTolerantResult& folded = result.ValueOrDie();
    stats->degraded = folded.degraded;
    stats->effective_coverage =
        folded.degraded ? folded.degradation.effective_coverage : 1.0;
  }
  return result;
}

Result<int64_t> FinishItemShardGather(const std::vector<ShardOutcome>& outcomes,
                                      WireTag item_tag, size_t num_items,
                                      const ShardItemMergeFn& merge,
                                      ExecStats* stats) {
  GUS_ASSIGN_OR_RETURN(
      DeliveredShards delivered,
      AccountShardOutcomes(outcomes, /*allow_partial=*/false,
                           " and per-item states cannot degrade", stats));
  std::vector<ShardMeta> metas;
  GUS_ASSIGN_OR_RETURN(
      std::vector<std::vector<WireSectionView>> parsed,
      ParseShardBundles(delivered.shard_ids, delivered.bundles, &metas));
  // Every bundle passed the consistency checks before any state merges.
  GUS_RETURN_NOT_OK(ValidateShardMetas(metas));
  int64_t rows = 0;
  for (size_t k = 0; k < parsed.size(); ++k) {
    std::vector<std::string_view> payloads;
    for (const WireSectionView& section : parsed[k]) {
      if (section.tag == item_tag) payloads.push_back(section.payload);
    }
    if (payloads.size() != num_items) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) + " bundle carries " +
          std::to_string(payloads.size()) + " item states, expected " +
          std::to_string(num_items));
    }
    for (size_t item = 0; item < num_items; ++item) {
      GUS_RETURN_NOT_OK(merge(item, payloads[item]));
    }
    rows += metas[k].rows;
  }
  return rows;
}

Result<FaultTolerantResult> GatherSboxEstimate(
    ShardTransport* transport, int num_shards,
    const std::string& pivot_relation, bool allow_partial) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ShardRetryPolicy once;
  once.max_attempts = 1;
  return FinishShardGather(
      SuperviseShards(num_shards, once,
                      [transport](int k) { return transport->Receive(k); }),
      pivot_relation, allow_partial, /*capture_merged_state=*/false,
      /*stats=*/nullptr);
}

Result<std::vector<ShardOutcome>> SuperviseInProcessShards(
    const PlanPtr& plan, ColumnarCatalog* columnar, const ExecOptions& exec,
    int num_shards, ShardTransport* transport, const InProcessShardFn& worker) {
  GUS_ASSIGN_OR_RETURN(const uint64_t expected_fingerprint,
                       PlanCatalogFingerprint(plan, columnar));
  LocalTransport local;
  if (transport == nullptr) transport = &local;
  // Workers must not share the caller's ExecStats (concurrent shards — and
  // abandoned attempts possibly outliving this call — would race on it).
  ExecOptions worker_exec = exec;
  worker_exec.stats = nullptr;
  return SuperviseShards(
      num_shards, exec.retry, [&](int k) -> Result<std::string> {
        GUS_ASSIGN_OR_RETURN(
            std::string bundle,
            RunWithDeadline(exec.retry.deadline_ms,
                            [worker, worker_exec, k, expected_fingerprint] {
                              return worker(k, worker_exec,
                                            expected_fingerprint);
                            }));
        GUS_RETURN_NOT_OK(transport->Send(k, std::move(bundle)));
        return transport->Receive(k);
      });
}

namespace {

/// \brief The SBox one-call scatter/gather: RunShardSbox attempts under
/// SuperviseInProcessShards, finished by FinishShardGather. `columnar` is
/// shared with attempts abandoned at a deadline, so late finishers keep
/// reading it (see JoinAbandonedShardAttempts).
Result<FaultTolerantResult> InProcessShardGather(
    const PlanPtr& plan, std::shared_ptr<ColumnarCatalog> columnar,
    uint64_t seed, ExecMode mode, const ExecOptions& exec, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport) {
  if (exec.stats != nullptr) exec.stats->Reset();
  // PlanShards validates num_shards and `exec` before anything runs.
  GUS_ASSIGN_OR_RETURN(ShardPlan sp,
                       PlanShards(plan, columnar.get(), mode,
                                  ShardedExecOptions(exec), num_shards));
  const std::string pivot_relation =
      sp.split.partitionable ? sp.split.pivot_relation : std::string();
  GUS_ASSIGN_OR_RETURN(
      std::vector<ShardOutcome> outcomes,
      SuperviseInProcessShards(
          plan, columnar.get(), exec, num_shards, transport,
          [plan, columnar, seed, mode, num_shards, f_expr, gus, options](
              int k, const ExecOptions& worker_exec,
              uint64_t expected_fingerprint) {
            return RunShardSbox(plan, columnar.get(), seed, mode, worker_exec,
                                k, num_shards, f_expr, gus, options,
                                expected_fingerprint);
          }));
  return FinishShardGather(outcomes, pivot_relation, exec.allow_partial,
                           /*capture_merged_state=*/false, exec.stats);
}

}  // namespace

Result<FaultTolerantResult> FaultTolerantShardedSboxEstimate(
    const PlanPtr& plan, const Catalog& catalog, uint64_t seed, ExecMode mode,
    const ExecOptions& exec, int num_shards, const ExprPtr& f_expr,
    const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport) {
  Result<FaultTolerantResult> result = InProcessShardGather(
      plan, std::make_shared<ColumnarCatalog>(&catalog), seed, mode, exec,
      num_shards, f_expr, gus, options, transport);
  if (exec.stats != nullptr && ProfileEnvEnabled()) {
    std::fputs(exec.stats->ToString("sharded-ft").c_str(), stderr);
  }
  return result;
}

Result<SboxReport> ShardedSboxEstimateOverCatalog(
    const PlanPtr& plan, ColumnarCatalog* columnar_catalog, uint64_t seed,
    ExecMode mode, const ExecOptions& exec, int num_shards,
    const ExprPtr& f_expr, const GusParams& gus, const SboxOptions& options,
    ShardTransport* transport) {
  ExecOptions once = exec;
  once.retry = ShardRetryPolicy{};
  once.retry.max_attempts = 1;
  once.allow_partial = false;
  // Non-owning: with no deadline every attempt runs inline on its shard
  // loop, so none outlives this call.
  std::shared_ptr<ColumnarCatalog> columnar(columnar_catalog,
                                            [](ColumnarCatalog*) {});
  GUS_ASSIGN_OR_RETURN(
      FaultTolerantResult result,
      InProcessShardGather(plan, std::move(columnar), seed, mode, once,
                           num_shards, f_expr, gus, options, transport));
  return std::move(result.report);
}

Result<SboxReport> ShardedSboxEstimate(const PlanPtr& plan,
                                       const Catalog& catalog, uint64_t seed,
                                       ExecMode mode, const ExecOptions& exec,
                                       int num_shards, const ExprPtr& f_expr,
                                       const GusParams& gus,
                                       const SboxOptions& options,
                                       ShardTransport* transport) {
  // In-process workers share one columnar catalog, immutable after
  // construction, so concurrent workers only read it — real
  // multi-process workers each hold their own, which changes nothing
  // observable.
  ColumnarCatalog columnar(&catalog);
  return ShardedSboxEstimateOverCatalog(plan, &columnar, seed, mode, exec,
                                        num_shards, f_expr, gus, options,
                                        transport);
}

}  // namespace gus
