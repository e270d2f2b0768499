// The three workloads. Each drives one layer stack through public entry
// points only, fills `report`, and returns 0 (or non-zero when it could
// not run at all — set-up failure, unusable work directory).
//
//   sql_q1     sqlish::RunApproxQuery on kMorselParallel (sqlish, plan, est)
//   q1_served  SessionCoordinator::Execute over Unix sockets to two
//              in-process WorkerDaemons (serve, dist, wire, view cache)
//   seg_scan   EstimatePlanParallel over a SegmentCatalog with a 16 MiB
//              segment cache (store: prune, fault, decode, evict)
//
// Shared shape: set up kSetupReps times (setup_s is the median), warm the
// first queries and the pool outside timing, run a closed loop for the
// measured seconds, then check every answer outside the timed region.
// Some fresh queries are sent again with the same seed (every one on
// q1_served, every fourth elsewhere); those repeats feed
// hit_latency_p50_ms: view-cache hits on q1_served, a warm segment cache
// on seg_scan, and a full re-execution on sql_q1, which caches nothing.
// With --trace 1 the loop runs untraced for the first half and traced for
// the second, and the run reports per-layer metrics instead.
#ifndef GUSBENCH_WORKLOADS_H_
#define GUSBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace gusbench {

/// Set-ups per run; setup_s and the set-up layer metrics are medians.
inline constexpr int kSetupReps = 3;

int RunSqlQ1(const Options& opt, RunReport* report);
int RunQ1Served(const Options& opt, RunReport* report);
int RunSegScan(const Options& opt, RunReport* report);

/// Path of the span file a traced run writes.
std::string TracePath(const Options& opt);

}  // namespace gusbench

#endif  // GUSBENCH_WORKLOADS_H_
