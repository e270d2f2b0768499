// Per-query execution profile for the parallel engines.
//
// The E3c bench sat at ~1x scaling for three PRs because nobody could say
// *which* phase was eating the time — this struct makes the answer a
// measurement instead of a guess. Point ExecOptions::stats at an ExecStats
// and the morsel-parallel executor fills in per-phase wall times, per-worker
// morsel counts, pool behavior, and data volume. Setting the GUS_PROFILE
// environment variable (any non-empty value except "0") prints the same
// profile to stderr after every parallel execution, with no code changes.
//
// Collection is cheap (a handful of steady_clock reads and relaxed atomic
// adds per query, not per row) and never changes results: the stats pointer
// is deliberately excluded from everything that feeds the deterministic
// morsel split / Rng stream derivation.

#ifndef GUS_PLAN_EXEC_STATS_H_
#define GUS_PLAN_EXEC_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gus {

/// \brief Wall-clock and work profile of one parallel plan execution.
///
/// Filled by ParallelExecutePlanToSink / ExecutePlanParallel (and the
/// range/shard primitives underneath) when ExecOptions::stats points here.
/// Reset() is called on entry, so one instance can be reused across
/// queries. Phase times satisfy
///   prepare_ms + parallel_ms <= total_ms   (plus epsilon)
/// and sink_fold_ms is time *inside* parallel_ms spent in ordered
/// MergeFrom folds (it overlaps morsel work on other threads, so it is not
/// an additive phase).
struct ExecStats {
  // ---- Phase wall times (milliseconds) ----
  /// Serial prepare: pivot analysis, non-pivot subtree execution, sampler
  /// resolution, shared join-side builds.
  double prepare_ms = 0.0;
  /// Part of prepare_ms: resolving fixed-size (WOR / WR) keep-sets, both
  /// pivot samplers and the breakers of non-pivot subtrees. Zero on the
  /// serial fallback, whose samplers run inside the pump.
  double prepare_sampler_ms = 0.0;
  /// The morsel loop: scan/sample/probe/emit across all workers, wall time.
  double parallel_ms = 0.0;
  /// Time spent folding per-morsel sinks in ascending morsel order
  /// (measured on whichever thread held the folder role; overlaps
  /// parallel_ms).
  double sink_fold_ms = 0.0;
  /// Whole engine call, wall time.
  double total_ms = 0.0;

  // ---- Work accounting ----
  int64_t pivot_rows = 0;  ///< rows of the partitioned pivot scan
  int64_t morsels = 0;     ///< units the pivot was split into
  int64_t morsel_rows = 0; ///< resolved rows per morsel (after auto sizing)
  int64_t rows_emitted = 0;   ///< rows pushed into per-morsel sinks
  int64_t bytes_moved = 0;    ///< approx payload of those rows (cols+lineage)
  int64_t sinks_created = 0;  ///< fresh per-morsel sink allocations
  int64_t sinks_recycled = 0; ///< sinks served from the reuse arena
  /// Minor page faults during the engine call: the getrusage(RUSAGE_SELF)
  /// ru_minflt delta around it. Process-wide, so faults taken by other
  /// threads of the process at the same time count too; read only when
  /// stats are on.
  int64_t minor_faults = 0;
  /// Morsels run by each worker (index = worker id; 0 is the caller).
  std::vector<int64_t> worker_morsels;

  // ---- Pool behavior ----
  int workers = 0;                    ///< parallelism of the morsel loop
  uint64_t pool_wakeups = 0;          ///< worker cv wakeups for this query
  uint64_t pool_threads_spawned = 0;  ///< threads created (0 = pool reused)
  /// True when the plan had no partitionable pivot and fell back to the
  /// serial columnar pipeline (phase times then cover that path).
  bool serial_fallback = false;

  // ---- Fault tolerance (every supervised shard gather: see
  // FinishShardGather in dist/coordinator.h) ----
  int64_t shard_attempts = 0;       ///< shard worker attempts launched
  int64_t shard_retries = 0;        ///< re-dispatches after retryable failure
  int64_t shard_deadline_hits = 0;  ///< attempts abandoned at the deadline
  int64_t shards_lost = 0;          ///< shards given up after the retry budget
  /// True when the result came from a degraded (partial) gather.
  bool degraded = false;
  /// Fraction of the global unit sequence the folded shards covered
  /// (1.0 for a complete gather; see DegradedReport).
  double effective_coverage = 1.0;

  // ---- Segment store (store/; filled when the pivot scan is
  // segment-backed) ----
  /// Segments of the pivot relation overlapping the executed unit range.
  int64_t segments_total = 0;
  /// Segments the pruner proved useless (their units folded empty sinks
  /// without executing; see store/pruner.h for the soundness argument).
  int64_t segments_skipped = 0;
  /// Segment decodes performed during this execution (cache-miss faults,
  /// including materializations of non-pivot relations).
  int64_t segments_faulted = 0;
  /// Page bytes decoded from disk during this execution: exactly the
  /// faulted segments' page bytes on a cold cache.
  ///
  /// With a cold cache, one thread, a single-relation plan and one segment
  /// per unit (morsel_rows == segment_rows):
  ///   * pruning on:  segments_skipped + segments_faulted == segments_total
  ///   * pruning off: segments_skipped == 0, and only the segments a leaf
  ///     reads fault — a keep slice reads just those holding a kept row,
  ///     so segments_faulted may be below segments_total.
  int64_t store_bytes_read = 0;

  // ---- Approximate-view cache (serve/view_cache.h; filled by the
  // serving layer and the sqlish kServed engine) ----
  int64_t cache_hits = 0;           ///< queries answered from merged state
  int64_t cache_misses = 0;         ///< queries that had to execute
  int64_t cache_invalidations = 0;  ///< entries dropped (catalog change/clear)

  /// Clears everything (worker_morsels becomes empty).
  void Reset();

  /// \brief Human-readable multi-line profile block, e.g. for GUS_PROFILE.
  ///
  /// `label` names the query in the header line (empty = none).
  std::string ToString(const std::string& label = "") const;
};

/// The process's minor page faults so far (getrusage(RUSAGE_SELF)
/// ru_minflt); ExecStats::minor_faults is a delta of two reads.
int64_t ProcessMinorFaults();

/// True when the GUS_PROFILE environment variable asks for per-query
/// profile dumps (set to anything but "" or "0"). Read once per process.
bool ProfileEnvEnabled();

}  // namespace gus

#endif  // GUS_PLAN_EXEC_STATS_H_
